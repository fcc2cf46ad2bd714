"""The benchmark imports and patches snoic names; each must exist, and a
short run of it must pass its own checks."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
