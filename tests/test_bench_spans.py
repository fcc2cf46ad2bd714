"""The traced benchmark patches snoic attributes by name; each must exist."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
