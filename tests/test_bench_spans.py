"""The benchmark imports and patches snoic names; each must exist, and a
short run of it must pass its own checks."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from test_bench_traffic import load_pipeline

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = load_spans()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in (*spans.FUNCTION_SPANS, *spans.CLASS_SPANS)
        if not callable(vars(owner).get(attr))
    ]
    assert not missing


def test_every_traced_class_has_backward():
    spans = load_spans()
    for owner, attr, *_ in spans.CLASS_SPANS:
        cls = vars(owner)[attr]
        assert isinstance(cls, type), f"{owner.__name__}.{attr}"
        assert callable(getattr(cls, "backward", None)), f"{owner.__name__}.{attr}.backward"


def test_short_untraced_run_is_correct():
    """A renamed name that perfbench imports fails here, not only in the
    benchmark. ``--trace 0`` leaves no trace file behind."""
    args = ["--workload", "train-small", "--seed", "0", "--seconds", "0.01", "--trace", "0"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True


def test_every_span_is_reached(tmp_path, monkeypatch):
    """Each patched name is still what the program calls at run time: one
    set-up, training round, checkpoint round trip and eval request under
    the tracer record a call of every span. A call through a local alias
    would leave its span, and the benchmark's metric of it, at zero."""
    pipeline = load_pipeline(monkeypatch)
    spans = sys.modules["spans"]  # the module pipeline imported
    tracer, checks = spans.Tracer(), pipeline.Checks()
    with spans.patched(spans.trace_patches(tracer)) as state:
        s = pipeline.set_up(pipeline.WORKLOADS["train-small"], 0, str(tmp_path))
        params = pipeline.train_round(s, pipeline.Timings(), checks)
        params = pipeline.checkpoint_round_trip(s, params, str(tmp_path), checks)
        pipeline.serve(s, params, 0, pipeline.REQUEST_SIZE)
    names = {name for *_, name in spans.FUNCTION_SPANS} | {name for _, _, *pair in spans.CLASS_SPANS for name in pair}
    assert sorted(names - set(tracer.totals())) == []
    assert state["restored"]
    assert checks.failed == 0, checks.failures
