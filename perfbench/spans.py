"""Spans and call counts recorded from outside the program.

The tracer replaces the module attributes that snoic's own code looks up
at call time (``snoic.trainer.optimizer_step``, ``snoic.augment.run_to_layer``
and so on) with timing wrappers, and puts every original back when the
traced block ends. Spans live in memory until the run writes them out.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from time import perf_counter

import snoic.augment
import snoic.corpus
import snoic.encoder
import snoic.losses
import snoic.trainer

# (owner, attribute, span name) for plain functions
FUNCTION_SPANS = [
    (snoic.trainer, "optimizer_step", "trainer.optimizer_step"),
    (snoic.trainer, "known_accuracy", "trainer.known_accuracy"),
    (snoic.trainer, "pretrain_loss", "losses.pretrain_loss"),
    (snoic.trainer, "soft_targets", "losses.soft_targets"),
    (snoic.trainer, "kl_loss", "losses.kl_loss"),
    (snoic.trainer, "mixup_loss", "losses.mixup_loss"),
    (snoic.trainer, "total_loss", "losses.total_loss"),
    (snoic.trainer, "make_batches", "corpus.make_batches"),
    (snoic.trainer, "pair_batches", "corpus.pair_batches"),
    (snoic.trainer, "forward", "encoder.forward"),
    (snoic.trainer, "load_checkpoint", "encoder.load_checkpoint"),
    (snoic.augment, "run_to_layer", "encoder.mix_branch_forward"),
    (snoic.augment, "run_from_layer", "encoder.mix_branch_forward"),
    (snoic.augment, "backward_to_layer", "encoder.mix_branch_backward"),
    (snoic.augment, "backward_from_layer", "encoder.mix_branch_backward"),
    (snoic.encoder.EncoderParams, "copy", "encoder.params_copy"),
]

# (owner, class attribute, span of the constructor, span of backward)
CLASS_SPANS = [
    (snoic.trainer, "TapedForward", "encoder.taped_forward", "encoder.taped_backward"),
    (snoic.trainer, "NoisyMixupPass", "augment.mix", "augment.backward"),
]

WATCHED = (snoic.trainer, snoic.augment, snoic.encoder, snoic.corpus, snoic.losses, snoic.encoder.EncoderParams)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def wrap_class(self, cls, init_span, backward_span):
        traced = type(cls.__name__, (cls,), {
            "__init__": self.wrap(init_span, cls.__init__),
            "backward": self.wrap(backward_span, cls.backward),
        })
        traced.__module__ = cls.__module__
        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - children
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def _snapshot(owners) -> dict:
    return {(owner.__name__, key): value for owner in owners for key, value in vars(owner).items()}


@contextmanager
def patched(patches):
    """Set owner.attr to wrap(original) for each (owner, attr, wrap) in the
    block, and put every original back after it. Yields a dict whose
    "restored" entry, once the block is left, says whether every attribute
    of the watched modules and of each patched owner is the very object
    found before."""
    owners = list({id(o): o for o in (*WATCHED, *(owner for owner, _, _ in patches))}.values())
    before = _snapshot(owners)
    result: dict = {}
    saved = []
    try:
        for owner, attr, wrap in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield result
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        after = _snapshot(owners)
        result["restored"] = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def trace_patches(tracer: Tracer, extra=()) -> list:
    """Patches for every span above, plus (owner, attr, span) entries in extra."""
    return [(owner, attr, partial(tracer.wrap, span)) for owner, attr, span in (*FUNCTION_SPANS, *extra)] + [
        (owner, attr, partial(tracer.wrap_class, init_span=init_span, backward_span=backward_span))
        for owner, attr, init_span, backward_span in CLASS_SPANS
    ]


class CallCounter:
    """Python and C function calls made inside wrapped calls, per key.

    Counts 'call' and 'c_call' profile events, so it sees every Python
    function and every builtin called from Python, but not the numpy
    kernels that run inside one C call.
    """

    def __init__(self):
        self.calls: Counter = Counter()

    def wrap(self, key, fn):
        def counted(*args, **kwargs):
            n = 0

            def hook(frame, event, arg):
                nonlocal n
                if event == "call" or event == "c_call":
                    n += 1

            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)
                self.calls[key] += n

        return counted
