"""Span tracing at the public-function boundaries of the ``dualnorm`` modules.

The tracer replaces every public function of the eight package modules,
in every ``dualnorm.*`` namespace that binds it (modules import each
other's functions with ``from .x import y``), by a wrapper that records a
span: name, start, end, parent span and job id.  ``Field`` construction and
arithmetic are traced through the class's own methods.  Spans stay in
memory in flat arrays and are written out once, at the end of a run.

A few boundaries also add a computed count (factorized block sizes,
digest bytes, sign patterns, moduli pairs); see ``_probe_*`` below.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter as _clock

import numpy as np

# Top-down, as the benchmark reports them.
LAYERS = (
    "cli",
    "inequalities",
    "interpolation",
    "duality",
    "norms",
    "dualmodel",
    "matcore",
    "report",
)

# Field methods traced as dualmodel work: construction runs __post_init__.
_FIELD_METHODS = {
    "__post_init__": "dualmodel.Field",
    "map_blocks": "dualmodel.Field.map_blocks",
    "__add__": "dualmodel.Field.add",
    "__sub__": "dualmodel.Field.sub",
    "__neg__": "dualmodel.Field.neg",
    "__rmul__": "dualmodel.Field.rmul",
    "__eq__": "dualmodel.Field.eq",
}

_MODULI_SAMPLERS = ("inequalities.modulus_convexity_sample", "inequalities.modulus_smoothness_sample")


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    }


class Tracer:
    """In-memory span store plus the counters computed at boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack: list[int] = [-1]
        self.current_job = -1
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float) -> None:
        """Add to a computed count; the caller resets ``counters`` per pass."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, probe=None):
        nid = self.intern(name)
        clock = _clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.current_job)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(self, fn, args, kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__bench_traced__ = True
        return traced

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> int:
        """Wrap every public function of every layer; return the number of bindings."""
        from dualnorm.dualmodel import Field

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dualnorm.{layer}")
            for name, fn in public_functions(module).items():
                full = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self.wrap(fn, full, _PROBES.get(full)))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for attr, name in _FIELD_METHODS.items():
            original = Field.__dict__[attr]
            self._patched.append((Field, attr, original))
            setattr(Field, attr, self.wrap(original, name))
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, first: int = 0, last: int | None = None) -> dict[str, np.ndarray]:
        """Copies of spans ``first:last`` (copies, so the stores can keep growing)."""
        last = len(self) if last is None else last
        return {
            key: np.frombuffer(memoryview(getattr(self, key))[first:last], dtype=dtype).copy()
            for key, dtype in (
                ("name_id", np.uint16),
                ("parent", np.int32),
                ("job", np.int32),
                ("start", np.float64),
                ("end", np.float64),
                ("error", np.int8),
            )
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "dualnorm" or name.startswith("dualnorm.")
    ]


def leftover_wrappers() -> list[str]:
    """Names in any ``dualnorm.*`` namespace still bound to a tracing wrapper."""
    from dualnorm.dualmodel import Field

    found = [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if getattr(value, "__bench_traced__", False)
    ]
    for attr in _FIELD_METHODS:
        if getattr(Field.__dict__.get(attr), "__bench_traced__", False):
            found.append(f"Field.{attr}")
    return found


# -- computed counts at boundaries -------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _probe_factorized(tracer, fn, args, kwargs):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    result = fn(*args, **kwargs)
    tracer.count("matcore.flop_n3", n**3)
    tracer.count("matcore.bytes_in", 16 * n * n)
    return result


def _probe_schatten(tracer, fn, args, kwargs):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    result = fn(*args, **kwargs)
    if n > 1:  # 1x1 blocks return |a| without a factorization
        tracer.count("matcore.flop_n3", n**3)
        tracer.count("matcore.bytes_in", 16 * n * n)
    return result


def _probe_canonical_json(tracer, fn, args, kwargs):
    text = fn(*args, **kwargs)
    tracer.count("report.digest.bytes", len(text.encode("utf-8")))
    return text


def _probe_emit(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("cli.emit.bytes", os.path.getsize(_arg(args, kwargs, 2, "path")))
    return result


def _probe_convexity(tracer, fn, args, kwargs):
    estimates = fn(*args, **kwargs)
    samples = _arg(args, kwargs, 4, "samples", 1000)
    tracer.count("inequalities.moduli.pairs", samples)
    tracer.count("inequalities.moduli.binned", sum(e.samples for e in estimates))
    return estimates


def _probe_rademacher(tracer, fn, args, kwargs):
    fields = list(_arg(args, kwargs, 0, "fields"))
    tracer.count("inequalities.rademacher.patterns", 2 ** len(fields) if fields else 0)
    if args:
        args = (fields,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, fields=fields)
    return fn(*args, **kwargs)


_PROBES = {
    "matcore.svd": _probe_factorized,
    "matcore.psd_power": _probe_factorized,
    "matcore.schatten_norm": _probe_schatten,
    "report.canonical_json": _probe_canonical_json,
    "cli.emit_report": _probe_emit,
    "inequalities.modulus_convexity_sample": _probe_convexity,
    "inequalities.rademacher_average": _probe_rademacher,
}


# -- span arithmetic ----------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and their durations add up without overlap.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(
    tracer: Tracer, first: int, last: int, wall_s: float, counters: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of one traced pass: spans ``first:last`` and its counters."""
    arr = tracer.arrays(first, last)
    parent = np.where(arr["parent"] >= first, arr["parent"] - first, -1)
    names = tracer.names
    layer_ids = np.array([LAYERS.index(layer_of(n)) for n in names], dtype=np.int64)
    span_layer = layer_ids[arr["name_id"]]
    self_s = self_times(parent, arr["start"], arr["end"])
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
    entering = parent_layer != span_layer

    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        in_layer = span_layer == i
        layer_self = float(self_s[in_layer].sum())
        out[f"{layer}.calls"] = int(np.count_nonzero(in_layer & entering))
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / wall_s
        out[f"{layer}.errors"] = int(np.count_nonzero(in_layer & entering & (arr["error"] != 0)))

    calls = np.bincount(arr["name_id"], minlength=len(names))
    self_by_name = np.bincount(arr["name_id"], weights=self_s, minlength=len(names))

    def n_calls(*span_names):
        return int(sum(calls[names.index(n)] for n in span_names if n in names))

    def name_self(name):
        return float(self_by_name[names.index(name)]) if name in names else 0.0

    out["dualmodel.random_field.calls"] = n_calls("dualmodel.random_field")
    out["dualmodel.random_field.self_s"] = name_self("dualmodel.random_field")
    out["dualmodel.mix_seed.calls"] = n_calls("dualmodel.mix_seed")
    out["dualmodel.Field.calls"] = n_calls("dualmodel.Field")
    out["dualmodel.Field.self_s"] = name_self("dualmodel.Field")
    out["dualmodel.encode_field.calls"] = n_calls("dualmodel.encode_field")
    out["dualmodel.encode_field.self_s"] = name_self("dualmodel.encode_field")
    out["matcore.cmatrix.calls"] = n_calls("matcore.cmatrix")
    out["matcore.svd.calls"] = n_calls("matcore.svd")
    out["matcore.schatten_norm.calls"] = n_calls("matcore.schatten_norm")
    out["norms.field_norm.calls"] = n_calls("norms.field_norm")
    out["interpolation.witness.calls"] = n_calls("interpolation.witness_f", "interpolation.witness_g")
    out["duality.pairing.calls"] = n_calls("duality.pairing")
    out["report.digest_inputs.calls"] = n_calls("report.digest_inputs")
    out["report.serialize.self_s"] = name_self("report.reports_to_json") + name_self("report.reports_to_csv")

    moduli_ids = [names.index(n) for n in _MODULI_SAMPLERS if n in names]
    draws = 0
    if moduli_ids and "dualmodel.random_field" in names:
        draw_id = names.index("dualmodel.random_field")
        name_id = arr["name_id"]
        for idx in np.flatnonzero(name_id == draw_id):
            up = parent[idx]
            while up >= 0 and name_id[up] not in moduli_ids:
                up = parent[up]
            draws += up >= 0
    pairs = counters.get("inequalities.moduli.pairs", 0)
    out["inequalities.moduli.draws_per_pair"] = draws / pairs if pairs else 0.0
    out["inequalities.moduli.binned_ratio"] = (
        counters.get("inequalities.moduli.binned", 0) / pairs if pairs else 0.0
    )
    for key in (
        "inequalities.rademacher.patterns",
        "matcore.flop_n3",
        "matcore.bytes_in",
        "report.digest.bytes",
        "cli.emit.bytes",
    ):
        out[key] = int(counters.get(key, 0))
    return out

