"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each triangulab module, and the
scipy/numpy calls they make, without editing the package.  A wrapper is
bound wherever the original function is reachable by name: on its home
module, and on every triangulab module that imported it by value
(``from .operators import save_matrix`` copies the function into
``experiments``; rebinding only ``operators.save_matrix`` would miss those
calls).  Library functions are also replaced on the library module, which
covers attribute calls (``scipy.linalg.svdvals(...)``) and imports made at
call time (``from scipy.integrate import quad`` inside a function).

Each span records calls, total time and self time (total minus the time of
the spans it directly encloses).  Time spent in one span while a span of
the same name is already open is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# layer -> public functions that get a span named "<layer>.<function>"
PACKAGE_SPANS = {
    "specfun": ["e_beta_cumulative", "e_beta", "m_moment"],
    "operators": [
        "build_ebeta_operator",
        "build_fractional",
        "build_imaginary_fractional",
        "build_difference_operator",
        "split_given_basis",
        "split_schur",
        "operator_norm",
        "save_matrix",
        "load_matrix",
    ],
    "resolvent": ["profile", "neumann_residual", "levinson_classify"],
    "spectral": [
        "eigenvalues_with_machine_noise",
        "verify_sigma_equality",
        "verify_spectral_mapping",
        "riesz_calculus",
        "macaev_norm",
        "schatten_norm",
    ],
    "symbol": ["trace_symbol", "transform", "boundedness_indicator", "prop54_residual"],
    "experiments": ["run_experiment"],
}

# span -> (library module, attribute): the boundary into scipy/numpy
LIBRARY_SPANS = {
    "lapack.svdvals": ("scipy.linalg", "svdvals"),
    "lapack.eigvals": ("numpy.linalg", "eigvals"),
    "lapack.solve": ("scipy.linalg", "solve"),
    "quad": ("scipy.integrate", "quad"),
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in PACKAGE_SPANS.items() for fn in fns] + list(
    LIBRARY_SPANS
)

# (parent span, child span) pairs reported on their own, e.g. the envelope
# SVDs of the resolvent sweep apart from the small SVDs of operator_norm
EDGES = [
    ("resolvent.profile", "lapack.svdvals"),
    ("operators.operator_norm", "lapack.svdvals"),
    ("spectral.eigenvalues_with_machine_noise", "lapack.eigvals"),
    ("specfun.e_beta_cumulative", "quad"),
    ("symbol.transform", "quad"),
]


def edge_name(parent: str, child: str) -> str:
    return f"{child}.in.{parent}"


def _n3(matrix) -> float:
    """rows * cols * min(rows, cols): n^3 for the square matrices passed here."""
    rows, cols = matrix.shape[-2], matrix.shape[-1]
    return float(rows * cols * min(rows, cols))


# span -> function(args, kwargs) -> {extra counter suffix: amount}, taken after the call
EXTRAS = {
    "lapack.svdvals": lambda args, kwargs: {"n3": _n3(args[0])},
    "lapack.eigvals": lambda args, kwargs: {"n3": _n3(args[0])},
    "operators.save_matrix": lambda args, kwargs: {"bytes": float(os.path.getsize(args[1]))},
    "operators.load_matrix": lambda args, kwargs: {"bytes": float(os.path.getsize(args[0]))},
}


class Tracer:
    """In-memory span recorder; single-threaded, like the package."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edge_calls = defaultdict(int)
        self.edge_total = defaultdict(float)
        self.extras = defaultdict(float)
        self.min_self = 0.0  # most negative per-call self time seen
        self._stack = []  # open spans: [name, time covered by direct children]

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(frame[0] == name for frame in self._stack):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                own = elapsed - frame[1]
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += own
                self.min_self = min(self.min_self, own)
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[1] += elapsed
                    self.edge_calls[(parent[0], name)] += 1
                    self.edge_total[(parent[0], name)] += elapsed
            if extra is not None:
                for key, amount in extra(args, kwargs).items():
                    self.extras[f"{name}.{key}"] += amount
            return result

        return traced

    def metrics(self) -> dict:
        """Flat ``{metric name: value}`` for every span, extra and edge."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for key in ("lapack.svdvals.n3", "lapack.eigvals.n3",
                    "operators.save_matrix.bytes", "operators.load_matrix.bytes"):
            out[key] = self.extras[key]
        for parent, child in EDGES:
            out[f"{edge_name(parent, child)}.calls"] = self.edge_calls[(parent, child)]
            out[f"{edge_name(parent, child)}.s"] = self.edge_total[(parent, child)]
        return out

    def consistency_errors(self) -> list:
        """Self times are never negative and children never exceed their parent."""
        errors = []
        slack = 1e-6  # timer resolution accumulated over many calls
        if self.min_self < -slack:
            errors.append(f"a span had negative self time {self.min_self:g} s")
        children = defaultdict(float)
        for (parent, _child), seconds in self.edge_total.items():
            children[parent] += seconds
        for parent, seconds in children.items():
            if seconds > self.total[parent] + slack:
                errors.append(
                    f"children of {parent} took {seconds:g} s, more than its {self.total[parent]:g} s"
                )
        return errors


def _package_modules() -> list:
    return [mod for key, mod in sys.modules.items()
            if key == "triangulab" or key.startswith("triangulab.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Bind every span wrapper for the duration of the block, then restore.

    Yields the rebound sites as ``"module.attribute"`` strings.
    """
    importlib.import_module("triangulab.experiments")  # loads every layer
    targets = []
    for layer, fns in PACKAGE_SPANS.items():
        home = importlib.import_module(f"triangulab.{layer}")
        targets += [(f"{layer}.{fn}", home, fn) for fn in fns]
    for span, (module_name, attr) in LIBRARY_SPANS.items():
        targets.append((span, importlib.import_module(module_name), attr))

    saved = []  # (module, attribute, original) to restore
    sites = []
    try:
        for span, home, attr in targets:
            original = getattr(home, attr)
            wrapper = tracer.wrap(span, original)
            for module in [home] + _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, wrapper)
                        sites.append(f"{module.__name__}.{key}")
        yield sites
    finally:
        for module, key, original in reversed(saved):
            setattr(module, key, original)
