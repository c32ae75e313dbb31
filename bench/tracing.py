"""Spans around the calls into each symcone layer, from outside the package.

``Tracer.install`` replaces module attributes (``algebra.power``,
``metric.distance``, the entries of ``suites.SUITES``, ...) and two class
attributes (``Element.__post_init__`` and the ``SplitMix64`` methods) with
wrappers that record a span per call.  Calls inside and between symcone's
modules look these names up at call time, so the wrappers see them; no
file of the package is edited.  ``Tracer.remove`` puts the originals back.

A span holds its name (the wrapped function), start, end, parent span,
operation id and the algebra tag (``kind:param``) of its operation.  A
call into a layer from inside the same layer records no span of its own,
so nested calls (``random_word`` -> ``random_cone_element``, ``distance``
-> ``lambda_extremes``) count once.  A layer's self time is the duration
of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

from symcone import algebra, cli, metric, solver, suites, transforms
from symcone.rng import SplitMix64

# The benchmark's own span around each timed call.
OP_LAYER = "op"

RNG_METHODS = ("uniform", "uniform_in", "log_uniform", "normal", "normals",
               "normal_matrix", "unit_vector", "rotation", "integer",
               "permutation", "choice")

# (layer, owner, attribute) for every wrapped function.
TARGETS = (
    [("algebra.element", algebra.Element, "__post_init__"),
     ("algebra.decompose", algebra, "spectral_decompose")]
    + [("algebra.eigvals", algebra, name)
       for name in ("eigenvalues", "lambda_min", "spectral_norm", "det")]
    + [("algebra.power", algebra, "power"),
       ("algebra.quad", algebra, "quad"),
       ("algebra.product", algebra, "product"),
       ("metric.distance", metric, "distance"),
       ("metric.distance", metric, "lambda_extremes"),
       ("metric.oracle", metric, "upper_bound_oracle"),
       ("metric.oracle", metric, "rayleigh_oracle"),
       ("transforms.apply", transforms, "apply"),
       ("transforms.sample", transforms, "random_cone_element"),
       ("transforms.sample", transforms, "random_word")]
    + [("rng", SplitMix64, name) for name in RNG_METHODS]
    + [("solver.solve", solver, "solve"),
       ("solver.solve", solver, "solve_bushell"),
       ("cli", cli, "main")]
    + [(f"suites.{name}", suites.SUITES, name) for name in suites.SUITES]
)

LAYERS = [OP_LAYER] + list(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _owner_name(owner) -> str:
    if owner is suites.SUITES:
        return "suites.SUITES"
    if isinstance(owner, type):
        return owner.__name__
    return owner.__name__.rpartition(".")[2]


# Span names: the wrapped function, and the layer each belongs to.
NAMES = [OP_LAYER] + [f"{_owner_name(owner)}.{attr}" for _, owner, attr in TARGETS]
NAME_LAYER = [0] + [LAYERS.index(layer) for layer, _, _ in TARGETS]


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    duration = spans["end"] - spans["start"]
    covered = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], duration[has_parent])
    return duration - covered


class Tracer:
    """In-memory span store; one per traced run, single-threaded."""

    def __init__(self):
        self.tags: list[str] = []
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("h")
        self.start = array("d")
        self.end = array("d")
        self.draws = 0
        self._stack = [-1]
        self._current = -1
        self._op = -1
        self._tag = -1
        self._saved = []

    def _wrap(self, name_id: int, fn):
        layer_id = NAME_LAYER[name_id]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._current == layer_id:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.op.append(self._op)
            self.tag.append(self._tag)
            self.end.append(0.0)
            outer = self._current
            self._current = layer_id
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                self._current = outer

        return wrapper

    def install(self) -> None:
        for name_id, (_, owner, name) in enumerate(TARGETS, start=1):
            original = _get(owner, name)
            self._saved.append((owner, name, original))
            _set(owner, name, self._wrap(name_id, original))
        next_u64 = SplitMix64.next_u64
        self._saved.append((SplitMix64, "next_u64", next_u64))

        def counted(rng):
            self.draws += 1
            return next_u64(rng)

        SplitMix64.next_u64 = counted

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            _set(owner, name, original)

    def run_op(self, op_id: int, tag: str, call):
        """Run one timed call under the benchmark's own span."""
        if tag not in self.tags:
            self.tags.append(tag)
        self._op, self._tag = op_id, self.tags.index(tag)
        try:
            return self._wrap(0, call)()
        finally:
            self._op = self._tag = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_table(self, op_scale: np.ndarray) -> dict[str, dict]:
        """Calls and self milliseconds per layer, and per layer and tag;
        each span's self time is multiplied by its operation's entry of
        ``op_scale``."""
        spans = self.arrays()
        own = self_times(spans) * op_scale[spans["op"]]
        layer_of_span = np.array(NAME_LAYER)[spans["name"]]
        table = {}
        for layer_id, name in enumerate(LAYERS):
            mask = layer_of_span == layer_id
            by_tag = {}
            for tag_id, tag in enumerate(self.tags):
                sub = mask & (spans["tag"] == tag_id)
                if sub.any():
                    by_tag[tag] = {"calls": int(sub.sum()),
                                   "self_ms": float(own[sub].sum() * 1e3)}
            table[name] = {"calls": int(mask.sum()),
                           "self_ms": float(own[mask].sum() * 1e3),
                           "by_tag": by_tag}
        return table

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), tags=np.array(self.tags),
                            **self.arrays())
