"""The workloads and the pipeline each one runs.

Every run goes through the same pipeline: set-up (synthetic corpus,
split, vocabulary, encoding, initial parameters), the two training
stages, a checkpoint round trip through save_model/load_model, and a
closed loop of eval requests from one client. The workloads differ in
encoder shape, test-set size, and whether the training round is timed
or part of set-up.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from snoic import (
    Dataset,
    EncoderConfig,
    Model,
    SnoicError,
    TrainConfig,
    apply_split,
    build_vocab,
    encode_dataset,
    evaluate,
    init_params,
    load_dataset,
    load_model,
    make_split,
    predict,
    pretrain,
    save_model,
    threshold_baseline_predict,
    train_open,
)
import snoic.trainer
from snoic.corpus import ClassDataset
from snoic.synth import write_corpus
from spans import patched
from speed import Phase, SpeedProbe

R = 0.5  # 8 synthetic intents, so M = 4 known classes
# The known/open partition is part of the workload, not of the seed. Over
# seeds 0-9 at the default shape, letting the seed pick it spread f1_open
# by 8.5% of its median, against 3% with it fixed. The seed draws the
# corpus, the initial weights and every training stream.
SPLIT_SEED = 0
BATCH_SIZE = 32
THRESHOLD = 0.5
# Utterances per eval request: the default batch of predict and of the
# threshold baseline, the batch `snoic eval` runs the whole test set in.
REQUEST_SIZE = 128
MIN_REQUESTS = 128  # p90 then has more than ten samples above it
MIN_CYCLES = 3  # setup_s is the median over at least this many set-ups

BENCH_SHAPE = dict(hidden=32, num_layers=2, ffn=64, dim=32, max_len=16)
DEFAULT_SHAPE = dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32)


@dataclass(frozen=True)
class Workload:
    shape: dict
    epochs: int  # per stage and training round; patience equals it
    test_per_class: int
    timed: str  # "train" or "eval": whether the training round is timed or set-up


WORKLOADS = {
    "train-small": Workload(BENCH_SHAPE, epochs=3, test_per_class=1024, timed="train"),
    "train-default": Workload(DEFAULT_SHAPE, epochs=1, test_per_class=512, timed="train"),
    "eval-default": Workload(DEFAULT_SHAPE, epochs=1, test_per_class=1024, timed="eval"),
}

class Checks:
    """Correctness checks, each weighted by the steps or requests it covers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, units: int = 1, detail: str = "") -> bool:
        self.attempted += units
        if not ok:
            self.failed += units
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Setup:
    workload: Workload
    M: int
    vocab: object
    max_len: int
    train_enc: object
    val_enc: object
    test: ClassDataset
    params: object
    cfg: TrainConfig

    @property
    def steps_per_stage(self) -> int:
        return math.ceil(len(self.train_enc) / BATCH_SIZE) * self.workload.epochs


@dataclass
class Timings:
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    setup: list[Phase] = field(default_factory=list)
    pretrain: list[Phase] = field(default_factory=list)
    open: list[Phase] = field(default_factory=list)
    requests: list[Phase] = field(default_factory=list)
    passes: list[Phase] = field(default_factory=list)
    utterances: int = 0
    train_rows: int = 0
    f1_open: float = float("nan")


def set_up(wl: Workload, seed: int, workdir: str) -> Setup:
    paths = write_corpus(workdir, seed=seed, test_per_class=wl.test_per_class)
    train_ds, val_ds, test_ds = (load_dataset(paths[role]) for role in ("train", "val", "test"))
    split = make_split(train_ds, R, SPLIT_SEED)
    known = set(split.known_classes)
    vocab = build_vocab(Dataset(examples=[ex for ex in train_ds.examples if ex.label in known]), min_freq=2)
    enc_cfg = EncoderConfig(vocab_size=len(vocab), **wl.shape)
    return Setup(
        workload=wl,
        M=split.num_known,
        vocab=vocab,
        max_len=enc_cfg.max_len,
        train_enc=encode_dataset(apply_split(train_ds, split, "train"), vocab, enc_cfg.max_len),
        val_enc=encode_dataset(apply_split(val_ds, split, "val"), vocab, enc_cfg.max_len),
        test=apply_split(test_ds, split, "test"),
        params=init_params(enc_cfg, split.num_known, seed),
        cfg=TrainConfig(batch_size=BATCH_SIZE, max_epochs=wl.epochs, patience=wl.epochs, seed=seed),
    )


def same_params(a, b) -> bool:
    return (
        a.M == b.M
        and a.cfg == b.cfg
        and a.names() == b.names()
        and all(a[n].dtype == b[n].dtype and np.array_equal(a[n], b[n]) for n in a.names())
    )


def train_round(s: Setup, t: Timings, checks: Checks):
    """pretrain then train_open, exactly what train_two_stage runs."""
    try:
        with t.probe.timed() as stage1:
            best1, log = pretrain(s.params, s.train_enc, s.val_enc, s.cfg)
        with t.probe.timed() as stage2:
            best2, log = train_open(best1, s.train_enc, s.val_enc, s.cfg, log=log)
    except SnoicError as exc:
        checks.record("training round", False, 2 * s.steps_per_stage, repr(exc))
        return None
    t.pretrain.append(stage1)
    t.open.append(stage2)
    losses = [r.mean_loss for r in log.records]
    checks.record(
        "finite losses", len(losses) == 2 * s.workload.epochs and all(map(math.isfinite, losses)),
        2 * s.steps_per_stage, f"epoch mean losses {losses}",
    )
    return best2


def checkpoint_round_trip(s: Setup, params, workdir: str, checks: Checks):
    model_dir = os.path.join(workdir, "model")
    save_model(Model(params=params, vocab=s.vocab), model_dir, meta={"bench": True})
    try:
        model, _ = load_model(model_dir)
    except SnoicError as exc:
        checks.record("checkpoint reloads", False, detail=repr(exc))
        return None
    ok = same_params(model.params, params) and model.vocab.id_to_token == s.vocab.id_to_token
    return model.params if checks.record("checkpoint reloads equal", ok) else None


def serve(s: Setup, params, start: int, stop: int):
    """One eval request: raw utterances in, model and baseline ids out."""
    request = ClassDataset(texts=s.test.texts[start:stop], class_ids=s.test.class_ids[start:stop], num_known=s.M)
    enc = encode_dataset(request, s.vocab, s.max_len)
    return predict(params, enc), threshold_baseline_predict(params, enc, THRESHOLD)


def in_range(ids: np.ndarray, n: int, M: int) -> bool:
    return ids.shape == (n,) and bool(np.all((ids >= 1) & (ids <= M + 1)))


def eval_pass(s: Setup, params, t: Timings, checks: Checks):
    """One pass over the test set, one request at a time from one client.
    Returns the predictions concatenated, or None if a request failed."""
    n = len(s.test)
    preds_all, request_s = [], []
    with t.probe.timed() as whole:
        for start in range(0, n, REQUEST_SIZE):
            stop = min(start + REQUEST_SIZE, n)
            r0 = perf_counter()
            try:
                preds, base = serve(s, params, start, stop)
            except SnoicError as exc:
                checks.record("eval request", False, detail=repr(exc))
                return None
            request_s.append(perf_counter() - r0)
            checks.record("predictions in 1..M+1",
                          in_range(preds, stop - start, s.M) and in_range(base, stop - start, s.M))
            preds_all.append(preds)
            t.probe.tick()
    t.requests.extend(Phase(r, whole.slowdown) for r in request_s)
    t.passes.append(whole)
    t.utterances += n
    return np.concatenate(preds_all)


def final_eval(s: Setup, params, pass_preds, t: Timings, checks: Checks) -> None:
    """One full-set predict: it must equal the per-request results, and its
    metrics must satisfy (M*f1_known + f1_open)/(M+1) == f1_all."""
    full = predict(params, encode_dataset(s.test, s.vocab, s.max_len), batch_size=REQUEST_SIZE)
    checks.record("per-request predict equals full-set predict", np.array_equal(pass_preds, full))
    if not checks.record("predictions in 1..M+1", in_range(full, len(s.test), s.M)):
        return
    report = evaluate(full.tolist(), list(s.test.class_ids), s.M + 1)
    identity = (s.M * report.f1_known + report.f1_open) / (s.M + 1)
    checks.record("f1 identity", abs(identity - report.f1_all) <= 1e-12,
                  detail=f"{identity!r} vs f1_all {report.f1_all!r}")
    t.f1_open = report.f1_open


def next_model(s: Setup, workdir: str, t: Timings, checks: Checks, previous):
    """Train one round and reload it from a checkpoint; every round must
    give the same model as the one before, since the seed is the same."""
    params = train_round(s, t, checks)
    if params is None:
        return None
    params = checkpoint_round_trip(s, params, workdir, checks)
    if params is not None and previous is not None:
        checks.record("repeated training gives identical models", same_params(params, previous))
    return params


def run_pipeline(wl: Workload, seed: int, workdir: str, checks: Checks, *,
                 seconds: float, min_cycles: int, min_requests: int) -> Timings:
    """Repeat the cycle until `seconds` have passed, at least `min_cycles`
    cycles ran and at least `min_requests` requests were served, then check
    the last pass against one full-set predict.

    A cycle is a set-up, a training round with its checkpoint round trip,
    and one pass over the test set. On eval workloads the training round
    counts as set-up; on training workloads it is timed on its own.
    Set-ups, rounds and passes alternate, so each is sampled across the
    whole run rather than in one block. Every training step, like every
    eval request, is followed by a tick of the speed probe.
    """
    t = Timings()
    with patched([(snoic.trainer, "optimizer_step", t.probe.ticking)]) as state:
        last = cycles(wl, seed, workdir, t, checks, seconds, min_cycles, min_requests)
    checks.record("probe hook restored every module attribute", state["restored"])
    if last is not None:
        s, model, pass_preds = last
        t.train_rows = len(s.train_enc)
        final_eval(s, model, pass_preds, t, checks)
    return t


def cycles(wl: Workload, seed: int, workdir: str, t: Timings, checks: Checks,
           seconds: float, min_cycles: int, min_requests: int):
    """The cycles of run_pipeline. Returns the last set-up, model and pass
    predictions, or None once a cycle failed."""
    model = None
    t0 = perf_counter()
    for cycle in itertools.count(1):
        cycle_dir = os.path.join(workdir, f"cycle{cycle}")
        with t.probe.timed() as setup:
            s = set_up(wl, seed, cycle_dir)
            if wl.timed == "eval":
                model = next_model(s, cycle_dir, t, checks, model)
        if model is None and wl.timed == "eval":
            return None
        t.setup.append(setup)
        if wl.timed == "train":
            model = next_model(s, cycle_dir, t, checks, model)
            if model is None:
                return None
        pass_preds = eval_pass(s, model, t, checks)
        if pass_preds is None:
            return None
        shutil.rmtree(cycle_dir)
        if cycle >= min_cycles and len(t.requests) >= min_requests and perf_counter() - t0 >= seconds:
            return s, model, pass_preds


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(t: Timings, wl: Workload, timing: str = "s") -> dict:
    """The timed metrics, from each phase's seconds at the reference speed
    (timing="s") or from its raw wall time (timing="raw_s")."""
    # Throughputs and the mean latency are totals over the run, not medians:
    # a total moves only with the time spent in fast and slow states of the
    # machine, where a median flips between the two.
    def secs(phases):
        return [getattr(p, timing) for p in phases]

    rows = t.train_rows * wl.epochs
    request_s = secs(t.requests)
    return {
        "setup_s": statistics.median(secs(t.setup)),
        "pretrain_samples_per_s": rows * len(t.pretrain) / sum(secs(t.pretrain)),
        "open_samples_per_s": rows * len(t.open) / sum(secs(t.open)),
        "eval_utts_per_s": t.utterances / sum(secs(t.passes)),
        "eval_request_ms.mean": 1e3 * statistics.fmean(request_s),
        "eval_request_ms.p90": 1e3 * percentile(request_s, 90),
        "f1_open": t.f1_open,
    }
