"""Benchmark command for snoic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 it measures the end-to-end
metrics for about S seconds; with --trace 1 it runs the workload's pipeline
once untraced, once with timing wrappers on snoic's modules and on the
pipeline's own calls, and twice under a call-counting profile hook, and
reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the
environment and every check. Exits 1 if any check fails.
"""

# Pin BLAS to one thread before numpy is imported anywhere.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
from pipeline import (  # noqa: E402
    MIN_CYCLES,
    MIN_REQUESTS,
    REQUEST_SIZE,
    WORKLOADS,
    Checks,
    Timings,
    end_to_end,
    run_pipeline,
    serve,
    set_up,
    train_round,
)
from spans import CallCounter, Tracer, patched, trace_patches  # noqa: E402
from speed import UNIT_S, SpeedProbe  # noqa: E402

# span totals reported in ms, and spans reported by self time
TOTAL_SPANS = [
    "trainer.optimizer_step",
    "encoder.taped_forward",
    "encoder.taped_backward",
    "encoder.mix_branch_forward",
    "encoder.mix_branch_backward",
    "losses.kl_loss",
    "losses.soft_targets",
    "losses.mixup_loss",
    "losses.pretrain_loss",
    "corpus.make_batches",
    "corpus.pair_batches",
    "trainer.known_accuracy",
    "encoder.params_copy",
    "encoder.forward",
    "trainer.predict",
    "trainer.threshold_baseline",
    "corpus.encode_dataset",
    "encoder.load_checkpoint",
]
SELF_SPANS = ["augment.mix", "augment.backward", "trainer.pretrain", "trainer.train_open"]
# the snoic functions the pipeline calls itself, looked up in its own module
PIPELINE_SPANS = [
    (pipeline, "pretrain", "trainer.pretrain"),
    (pipeline, "train_open", "trainer.train_open"),
    (pipeline, "encode_dataset", "corpus.encode_dataset"),
    (pipeline, "predict", "trainer.predict"),
    (pipeline, "threshold_baseline_predict", "trainer.threshold_baseline"),
    # the speed probe's own time, so that no stage's self time includes it
    (SpeedProbe, "sample", "perfbench.speed_probe"),
]
COUNTED_REQUESTS = 8


def blas_threads() -> int | None:
    """Thread count read back from the OpenBLAS that numpy loaded."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "snoic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure(wl, seed: int, seconds: float, workdir: str, checks: Checks) -> tuple[dict, dict]:
    t = run_pipeline(wl, seed, workdir, checks,
                     seconds=seconds, min_cycles=MIN_CYCLES, min_requests=MIN_REQUESTS)
    probe = t.probe.samples
    samples = {
        "cycles": len(t.setup), "rounds": len(t.pretrain), "requests": len(t.requests),
        "probe_samples": len(probe), "probe_s": t.probe.spent,
        "slowdown_quartiles": [q / UNIT_S for q in statistics.quantiles(probe, n=4)],
    }
    if checks.failed:
        return {}, samples
    samples["wall_clock_metrics"] = end_to_end(t, wl, timing="raw_s")
    return end_to_end(t, wl), samples


def one_pass(wl, seed: int, workdir: str, checks: Checks) -> Timings:
    """The workload's pipeline with fixed work: one cycle."""
    return run_pipeline(wl, seed, workdir, checks, seconds=0.0, min_cycles=1, min_requests=1)


def count_calls(wl, seed: int, workdir: str, checks: Checks) -> dict:
    s = set_up(wl, seed, workdir)
    counter = CallCounter()
    stages = [(pipeline, "pretrain", partial(counter.wrap, "pretrain")),
              (pipeline, "train_open", partial(counter.wrap, "open"))]
    with patched(stages) as state:
        params = train_round(s, Timings(), checks)
    checks.record("count wrappers restored every module attribute", state["restored"])
    if params is None:
        return {}
    counted_serve = counter.wrap("eval", serve)
    n = 0
    for start in range(0, min(len(s.test), COUNTED_REQUESTS * REQUEST_SIZE), REQUEST_SIZE):
        counted_serve(s, params, start, start + REQUEST_SIZE)
        n += 1
    return {
        "calls_per_step.pretrain": counter.calls["pretrain"] / s.steps_per_stage,
        "calls_per_step.open": counter.calls["open"] / s.steps_per_stage,
        "calls_per_request.eval": counter.calls["eval"] / n,
    }


def traced_run(wl, seed: int, workdir: str, checks: Checks, trace_path: Path) -> tuple[dict, dict]:
    ref = one_pass(wl, seed, os.path.join(workdir, "ref"), checks)
    tracer = Tracer()
    with patched(trace_patches(tracer, PIPELINE_SPANS)) as state:
        traced = one_pass(wl, seed, os.path.join(workdir, "traced"), checks)
    checks.record("trace wrappers restored every module attribute", state["restored"])
    counts = [count_calls(wl, seed, os.path.join(workdir, f"count{i}"), checks) for i in range(2)]
    checks.record("call counts repeat exactly", counts[0] == counts[1], detail=f"{counts[0]} vs {counts[1]}")
    trace_path.write_text(json.dumps({"spans": tracer.records()}))
    if checks.failed:
        return {}, {}

    totals = tracer.totals()

    def span(name, key):
        return totals.get(name, {}).get(key, 0)

    values = {f"{n}.ms": 1e3 * span(n, "total_s") for n in TOTAL_SPANS}
    values.update({f"{n}.self_ms": 1e3 * span(n, "self_s") for n in SELF_SPANS})
    values["encoder.forward.calls"] = span("encoder.forward", "calls")
    values["trainer.steps"] = span("trainer.optimizer_step", "calls")
    values.update(counts[0])
    values["trace_overhead.pretrain"] = traced.pretrain[0].s / ref.pretrain[0].s
    values["trace_overhead.open"] = traced.open[0].s / ref.open[0].s
    values["trace_overhead.eval"] = traced.passes[0].s / ref.passes[0].s
    samples = {"spans": len(tracer.spans), "requests": len(traced.requests)}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    checks = Checks()
    checks.record("BLAS pinned to one thread", env["blas_threads"] in (None, 1), detail=str(env["blas_threads"]))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            values, samples = traced_run(wl, args.seed, workdir, checks, trace_path)
        else:
            values, samples = measure(wl, args.seed, args.seconds, workdir, checks)
    if not args.trace:
        # A failed run still reports how much of it failed, and nothing else.
        if values:
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["success_frac"] = 1.0 - checks.failed / checks.attempted

    correct = checks.failed == 0
    if correct and set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {[m['name'] for m in wanted]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        print(f"{args.workload:>14} {name:<34} {m['value']:>14.4f} {m['unit']}", file=sys.stderr)
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "samples": samples, "checks_failed": checks.failures,
    }))
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
