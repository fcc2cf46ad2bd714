"""What one benchmark eval request costs in encoder forwards: the model's
and the baseline's ids come from a single pass over the request."""

import importlib.util
import sys
from pathlib import Path

from snoic.corpus import ClassDataset, encode_dataset, length_sorted_batches
from snoic.encoder import forward
from snoic.trainer import EVAL_ROWS

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
    request = ClassDataset(texts=s.test.texts[:size], class_ids=s.test.class_ids[:size], num_known=s.M)
    enc = encode_dataset(request, s.vocab, s.max_len)
    calls = []
    monkeypatch.setattr("snoic.trainer.forward", lambda params, batch: calls.append(len(batch)) or forward(params, batch))
    pipeline.serve(s, s.params, 0, size)
    assert len(calls) == len(length_sorted_batches(enc, size, EVAL_ROWS)) == 2
