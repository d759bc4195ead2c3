"""In-memory span recording around the public boundaries of pkinv.

The traced run wraps the functions ``pkinv.search`` reaches through its
module globals, plus the oracle object, and records one span per call:
name, start, end, parent span, trial id and a small ``info`` value (a
fold key, a distance, a competitor count).  Nothing inside ``src/`` is
edited; every patched attribute is put back, and checked, on exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pkinv.search as search_module


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "info")

    def __init__(self, name, parent, trial, info):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.info = info
        self.start = self.end = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trial": self.trial,
        }


def _identity(value):
    return value


# pkinv.search global -> (span name, what to keep from the return value)
SEARCH_HOOKS = {
    "adjust_sequence": ("search.adjust", None),
    "local_search": ("search.local", None),
    "build_competitors": ("search.build_competitors", len),
    "mutate_against_competitors": ("search.mutate", None),
    "perturb_arc": ("search.perturb_arc", None),
    "TraceRecord": ("search.record", _identity),
    "structure_distance": ("structure.distance", _identity),
    "restrict_structure": ("structure.restrict", None),
    "validate_target": ("structure.validate", None),
    "build_intervals": ("loops.build_intervals", lambda plan: len(plan.intervals)),
    "random_compatible_sequence": ("sequences.sample", None),
}


class RestoreError(RuntimeError):
    """A wrapped module attribute was not restored after tracing."""


class Tracer:
    """Collects spans; ``trial`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial: int | None = None
        self._open: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, info=None, describe=None):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, self.trial, info)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if describe is not None:
            span.info = describe(result)
        return result

    def wrap(self, name, fn, describe=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe=describe)

        return traced

    @contextmanager
    def installed(self):
        """Patch pkinv.search's globals with tracing wrappers; restore on exit."""
        originals = {attr: getattr(search_module, attr) for attr in SEARCH_HOOKS}
        try:
            for attr, (name, describe) in SEARCH_HOOKS.items():
                setattr(search_module, attr, self.wrap(name, originals[attr], describe))
            yield self
        finally:
            for attr, original in originals.items():
                setattr(search_module, attr, original)
        leftovers = [a for a, o in originals.items()
                     if getattr(search_module, a) is not o]
        if leftovers:
            raise RestoreError(f"not restored: {', '.join(leftovers)}")


class TracedOracle:
    """Oracle wrapper: one ``oracle.fold`` span per call.

    ``info`` is (length, n_best, repeated) where ``repeated`` says the
    wrapper has seen the same (seq, n_best) key before, which is what the
    memo of a ReferenceFoldOracle would answer.
    """

    def __init__(self, oracle, tracer: Tracer):
        self.policy = oracle.policy
        self._oracle = oracle
        self._tracer = tracer
        self._seen: set[tuple[str, int]] = set()

    def fold(self, seq: str, n_best: int = 1):
        key = (seq, n_best)
        repeated = key in self._seen
        self._seen.add(key)
        return self._tracer.call(
            "oracle.fold", self._oracle.fold, (seq, n_best),
            info=(len(seq), n_best, repeated),
        )
