"""What one benchmark eval request costs in encoder forwards: the model's
and the baseline's ids come from one forward over the request's rows."""

import importlib.util
import sys
from pathlib import Path

from snoic.encoder import forward

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_pipeline(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # pipeline imports spans and speed as top-level modules
    spec = importlib.util.spec_from_file_location("perfbench_pipeline", PERFBENCH / "pipeline.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_a_request_runs_one_pass(tmp_path, monkeypatch):
    pipeline = load_pipeline(monkeypatch)
    s = pipeline.set_up(pipeline.WORKLOADS["train-small"], 0, str(tmp_path))
    size = pipeline.REQUEST_SIZE
    calls = []
    monkeypatch.setattr("snoic.trainer.forward", lambda params, batch: calls.append(len(batch)) or forward(params, batch))
    pipeline.serve(s, s.params, 0, size)
    assert calls == [size]
