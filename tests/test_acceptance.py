"""Release gate: the checks that qualify a build, one printed verdict each.

Every test here prints an ``ACCEPTANCE n name: PASS|FAIL`` line with
capture suspended, so the verdicts reach the real stdout, then asserts.
"""

import json
import os
from itertools import product

import numpy as np

from gradcheck import packing, real_of, run_gradient_suite, unpacked
from snoic.augment import inject_noise, mixup, sample_lambda
from snoic.cli import main
from snoic.corpus import Batch, Dataset, LabeledExample, apply_split, make_split
from snoic.encoder import EncoderConfig, Packing, forward, init_params, run_from_layer, run_to_layer
from snoic.losses import soft_targets
from snoic.metrics import evaluate
from snoic.synth import write_corpus


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line + (f" [{detail}]" if detail else "")


def test_acceptance_1_gradient_check(capsys):
    results, elapsed = run_gradient_suite()
    worst = max(err for _, err, _ in results)
    counts_ok = all(checked >= 200 for _, _, checked in results)
    ok = worst < 1e-4 and counts_ok and elapsed < 60.0
    _verdict(capsys, 1, "analytic gradients match finite differences", ok,
             f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def _slow_f1(preds, golds, c):
    tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
    fp = sum(1 for p, g in zip(preds, golds) if p == c and g != c)
    fn = sum(1 for p, g in zip(preds, golds) if p != c and g == c)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    return 2.0 * prec * rec / (prec + rec) if prec + rec else 0.0


def test_acceptance_2_metrics_exactness(capsys):
    mismatches = 0
    cases = 0
    for c, max_n in ((2, 5), (3, 4)):
        for n in range(1, max_n + 1):
            for assignment in product(range(1, c + 1), repeat=2 * n):
                preds, golds = list(assignment[:n]), list(assignment[n:])
                rep = evaluate(preds, golds, c)
                per = [_slow_f1(preds, golds, k) for k in range(1, c + 1)]
                acc = sum(1 for p, g in zip(preds, golds) if p == g) / n
                cases += 1
                if not (
                    rep.accuracy == acc
                    and rep.f1_all == sum(per) / c
                    and rep.f1_known == sum(per[:-1]) / (c - 1)
                    and rep.f1_open == per[-1]
                ):
                    mismatches += 1
    rng = np.random.default_rng(99)
    worst_dev = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        preds = rng.integers(1, c + 1, size=n).tolist()
        golds = rng.integers(1, c + 1, size=n).tolist()
        rep = evaluate(preds, golds, c)
        dev = abs((rep.M * rep.f1_known + rep.f1_open) / (rep.M + 1) - rep.f1_all)
        worst_dev = max(worst_dev, dev)
    ok = mismatches == 0 and worst_dev <= 1e-9
    _verdict(capsys, 2, "metrics agree exactly with exhaustive counting", ok,
             f"{cases} exhaustive cases, {mismatches} mismatches, decomposition dev {worst_dev:.2e}")


def _equal_length_batch(seed: int, vocab_size: int, max_len: int) -> Batch:
    rng = np.random.default_rng(seed)
    lengths = np.array([5, 8, 3, 6], dtype=np.int32)
    tokens = np.zeros((4, max_len), dtype=np.int32)
    tokens[:, 0] = 2
    for i, ln in enumerate(lengths):
        tokens[i, 1:ln] = rng.integers(3, vocab_size, size=ln - 1)
    return Batch(tokens=tokens, lengths=lengths, class_ids=np.ones(4, dtype=np.int32))


def test_acceptance_3_mixing_identities(capsys):
    cfg = EncoderConfig(vocab_size=40, hidden=16, num_layers=3, ffn=24, dim=12, max_len=8)
    p = init_params(cfg, 4, seed=2)
    b1 = _equal_length_batch(31, cfg.vocab_size, cfg.max_len)
    b2 = _equal_length_batch(32, cfg.vocab_size, cfg.max_len)
    e1_direct, _ = forward(p, b1)
    e2_direct, _ = forward(p, b2)

    # the mixed rows are the union's real tokens, a half's padding there read as zero
    on = real_of(b1) | real_of(b2)
    pu = Packing(np.maximum(b1.lengths, b2.lengths), cfg.max_len, p.flat.dtype)

    def union_rows(b, rl):
        return unpacked(run_to_layer(p, b.tokens, packing(b, p.flat.dtype), rl), real_of(b))[on]

    worst = 0.0
    for rl in range(1, cfg.num_layers + 1):
        h1, h2 = union_rows(b1, rl), union_rows(b2, rl)
        for lam, direct in ((1.0, e1_direct), (0.0, e2_direct)):
            resumed = run_from_layer(p, mixup(h1, h2, lam), pu, rl)
            worst = max(worst, float(np.max(np.abs(resumed - direct))))
    endpoints_ok = worst < 1e-6

    packed = mixup(union_rows(b1, 1), union_rows(b2, 1), 0.35)
    silent, scale = inject_noise(packed, np.random.default_rng(0), 0.0, 0.0)
    zero_noise_ok = np.array_equal(silent, packed) and np.all(scale == 1.0)

    # Noise is zero-mean: the empirical mean over many draws stays within
    # four standard errors of the noiseless tensor, elementwise. The draws
    # are made over the mixed rows laid out as (n, t, H), the field this
    # check has always drawn, and checked at the union's positions.
    n = 10_000
    rng = np.random.default_rng(5)
    mixed = unpacked(packed, on)
    acc = np.zeros(mixed.shape, dtype=np.float64)
    for _ in range(n):
        noisy, _ = inject_noise(mixed, rng, 0.4, 0.2)
        acc += noisy
    mean = acc / n
    se = np.sqrt((0.2 * mixed) ** 2 + 0.4**2) / np.sqrt(n)
    mean_ok = np.all(np.abs(mean - mixed)[on] <= 4.0 * se[on] + 1e-12)

    # The open step draws its noise over the packed (U, H) union rows. The
    # K = U * H z-scores of their 10 000-draw means have mean 0 within
    # 4 / sqrt(K) and standard deviation 1 within 4 / sqrt(2K).
    acc = np.zeros(packed.shape, dtype=np.float64)
    for _ in range(n):
        noisy, _ = inject_noise(packed, rng, 0.4, 0.2)
        acc += noisy
    z = (acc / n - packed) / (np.sqrt((0.2 * packed) ** 2 + 0.4**2) / np.sqrt(n))
    z_mean, z_sd = float(z.mean()), float(z.std())
    packed_ok = abs(z_mean) <= 4.0 / np.sqrt(z.size) and abs(z_sd - 1.0) <= 4.0 / np.sqrt(2 * z.size)

    ok = endpoints_ok and zero_noise_ok and mean_ok and packed_ok
    _verdict(capsys, 3, "mixing endpoints recover the unmixed branches", ok,
             f"endpoint dev {worst:.2e}, packed z mean {z_mean:.3f} sd {z_sd:.3f}")


def test_acceptance_4_mixing_weight_distribution(capsys):
    rng = np.random.default_rng(123)
    n = 100_000
    ok = True
    detail = []
    for alpha in (0.5, 1.0, 2.0):
        draws = np.array([sample_lambda(rng, alpha) for _ in range(n)])
        in_range = bool(np.all((draws >= 0.0) & (draws <= 1.0)))
        mean_dev = abs(float(draws.mean()) - 0.5)
        ok = ok and in_range and mean_dev < 0.01
        detail.append(f"a={alpha}: mean dev {mean_dev:.4f}")
        if alpha == 1.0:
            var_dev = abs(float(draws.var()) - 1.0 / 12.0)
            ok = ok and var_dev < 0.005
            detail.append(f"var dev {var_dev:.4f}")
    _verdict(capsys, 4, "mixing weights follow the symmetric Beta law", ok, "; ".join(detail))


def test_acceptance_5_soft_target_distribution(capsys):
    t = soft_targets(np.array([2]), 4, 0.3)[0]
    point_ok = (
        t.shape == (5,)
        and t[1] == 1.0 - 0.3
        and t[4] == 0.3
        and t[0] == 0.0 and t[2] == 0.0 and t[3] == 0.0
    )
    sums_ok = True
    for rho in np.linspace(0.0, 0.999, 41):
        for row in soft_targets(np.arange(1, 5), 4, float(rho)):
            sums_ok = sums_ok and abs(float(row.sum()) - 1.0) <= 1e-6
            sums_ok = sums_ok and row[4] == float(rho) and np.all(row >= 0.0)
    ok = point_ok and sums_ok
    _verdict(capsys, 5, "soft targets relocate exactly rho to the open class", ok)


def test_acceptance_6_open_intent_benchmark(bench_grid, capsys):
    full_f1 = bench_grid.mean_f1_open("full")
    full_acc = bench_grid.mean_known_acc("full")
    closed_f1 = float(np.mean([
        evaluate(run.closed_preds.tolist(), run.golds.tolist(), run.m + 1).f1_open
        for run in bench_grid.of("full")
    ]))
    hard_f1 = bench_grid.mean_f1_open("no_soft_labels")
    ok = (
        full_f1 >= 0.60
        and full_acc >= 0.80
        and closed_f1 == 0.0
        and full_f1 > closed_f1
        and full_f1 > hard_f1
        and bench_grid.elapsed_sec < 600.0
    )
    _verdict(capsys, 6, "open intents are recovered on the benchmark corpus", ok,
             f"f1_open {full_f1:.4f}, known acc {full_acc:.4f}, "
             f"closed {closed_f1:.4f}, hard labels {hard_f1:.4f}, "
             f"{bench_grid.elapsed_sec:.0f}s")


def test_acceptance_7_noise_ablation_margins(bench_grid, capsys):
    full_f1 = bench_grid.mean_f1_open("full")
    no_add = bench_grid.mean_f1_open("no_additive_noise")
    no_mul = bench_grid.mean_f1_open("no_multiplicative_noise")
    ok = no_add <= full_f1 + 0.02 and no_mul <= full_f1 + 0.02
    _verdict(capsys, 7, "noise ablations do not beat the full method", ok,
             f"full {full_f1:.4f}, no additive {no_add:.4f}, no multiplicative {no_mul:.4f}")


def test_acceptance_8_pipeline_determinism(tmp_path, capsys):
    os.environ.pop("SNOIC_SEED", None)
    paths = write_corpus(
        str(tmp_path / "corpus"), seed=0, train_per_class=30, val_per_class=10, test_per_class=10
    )
    config = {
        "name": "detcheck",
        "data": {role: str(paths[role]) for role in ("train", "val", "test")},
        "seed": 5,
        "r": 0.5,
        "vocab": {"min_freq": 2, "max_size": 4000},
        "encoder": {"hidden": 16, "num_layers": 1, "ffn": 32, "dim": 16, "max_len": 12},
        "train": {"lr": 0.005, "batch_size": 20, "max_epochs": 2, "patience": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        base.mkdir()
        split = str(base / "split.json")
        pre = str(base / "pre")
        final = str(base / "final")
        report = str(base / "run.json")
        assert main(["split", "--data", str(paths["train"]), "--r", "0.5", "--seed", "5", "--out", split]) == 0
        assert main(["pretrain", "--config", str(cfg_path), "--split", split, "--out", pre]) == 0
        assert main(["train", "--config", str(cfg_path), "--split", split, "--init", pre, "--out", final]) == 0
        assert main(["eval", "--model", final, "--split", split, "--test", str(paths["test"]), "--out", report]) == 0
        with open(report) as f:
            rep = json.load(f)
        rep.pop("wall_clock_sec")
        outs[tag] = {
            "ckpt": open(os.path.join(final, "model.ckpt"), "rb").read(),
            "report": rep,
        }
    ckpt_ok = outs["a"]["ckpt"] == outs["b"]["ckpt"]
    report_ok = outs["a"]["report"] == outs["b"]["report"]
    ok = ckpt_ok and report_ok
    _verdict(capsys, 8, "repeated runs are byte-identical", ok,
             f"checkpoint equal {ckpt_ok}, report equal {report_ok}")


def test_acceptance_9_split_protocol(capsys):
    labels = [f"intent{i:02d}" for i in range(77)]
    examples = [
        LabeledExample(text=f"sample {i} {j}", label=lab)
        for i, lab in enumerate(labels)
        for j in range(2)
    ]
    ds = Dataset(examples=examples)
    sizes = {}
    purity_ok = True
    for r, want in ((0.25, 19), (0.5, 38), (0.75, 57)):
        spec = make_split(ds, r, seed=11)
        sizes[r] = spec.num_known
        disjoint = not (set(spec.known_classes) & set(spec.open_classes))
        covers = sorted(spec.known_classes + spec.open_classes) == sorted(labels)
        train = apply_split(ds, spec, "train")
        test = apply_split(ds, spec, "test")
        purity_ok = purity_ok and disjoint and covers
        purity_ok = purity_ok and len(train) == 2 * want and int(np.max(train.class_ids)) <= want
        purity_ok = purity_ok and len(test) == 154 and int(np.max(test.class_ids)) == want + 1
    sizes_ok = sizes == {0.25: 19, 0.5: 38, 0.75: 57}
    ok = sizes_ok and purity_ok
    _verdict(capsys, 9, "known/open splits follow the ratio protocol", ok,
             f"sizes {sizes}")
