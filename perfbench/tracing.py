"""Spans around the library's public entry points, and per-layer metrics.

Nothing here edits the library.  `Tracer.install` replaces each listed
function with a wrapper that records a span (name, start, end, parent
span, system id) and rebinds the wrapper in every module namespace that
imported the original, including the benchmark's own modules; methods
are replaced on their class.  `uninstall` puts the originals back.

Scalar operations are far cheaper than a span, so the L0 counts come
from a separate counting pass (`OpCounter`) that wraps only the
arithmetic operators of `Fraction` and `ModInt`.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from partialdual import coideal, hopf, linalg, pams, partial_dual, serialize
from partialdual.linalg import ModInt

ELIM = ("linalg.rref", "linalg.solve", "linalg.nullspace", "linalg.subspace_basis")


def _nnz(v) -> int:
    return sum(1 for x in v.entries if x)


def _elim_cells(name, args, kwargs):
    """rows x cols of the system an elimination entry point reduces."""
    if name != "linalg.subspace_basis":
        return args[0].nrows * args[0].ncols
    vectors = args[0]
    if not isinstance(vectors, (list, tuple)):
        return 0  # a consumed iterator; the library passes lists
    return len(vectors) * (len(vectors[0]) if vectors else kwargs.get("length") or 0)


# (owner, attribute, span name); the owner is a module or a class
TARGETS = [
    (linalg, "rref", "linalg.rref"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "nullspace", "linalg.nullspace"),
    (linalg, "subspace_basis", "linalg.subspace_basis"),
    (linalg.Matrix, "__matmul__", "linalg.matmul"),
    (linalg, "contract", "linalg.contract"),
    (hopf, "power_multiply", "hopf.power_multiply"),
    (hopf, "tensor_comult_leg", "hopf.tensor_comult_leg"),
    (hopf, "tensor_of", "hopf.tensor_of"),
    (hopf.Algebra, "multiply", "hopf.multiply"),
    (hopf, "convolution_inverse", "hopf.convolution_inverse"),
    (coideal, "certify_coideal", "coideal.certify_coideal"),
    (coideal, "build_quotient", "coideal.build_quotient"),
    (pams, "find_cointegral", "pams.find_cointegral"),
    (pams, "certify_pams", "pams.certify_pams"),
    (pams, "induced_pams", "pams.induced_pams"),
    (partial_dual, "left_partial_dual", "partial_dual.left_partial_dual"),
    (partial_dual, "verify_quasi_hopf", "partial_dual.verify_quasi_hopf"),
    (partial_dual, "right_partial_dual", "partial_dual.right_partial_dual"),
    (serialize, "serialize", "serialize.serialize"),
    (serialize, "parse", "serialize.parse"),
]


# entry points reported by self time alone
SELF_TIMED = (
    "coideal.certify_coideal", "coideal.build_quotient", "pams.find_cointegral", "pams.certify_pams",
    "pams.induced_pams", "partial_dual.left_partial_dual", "partial_dual.verify_quasi_hopf",
    "partial_dual.right_partial_dual", "serialize.serialize", "serialize.parse",
)


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, extra_modules=()):
        self.spans: list = []  # [name, start, end, parent index, system, size]
        self.system = ""
        self._stack: list[int] = []
        self._saved: list = []
        self._extra = list(extra_modules)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.system, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _size(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n.startswith("partialdual")] + self._extra
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in namespaces:
                if mod is not owner and getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def span_cost(calls: int) -> float:
    """Wall seconds one span adds to a call: `calls` calls of a traced
    no-op minus as many plain calls, divided by `calls`; the median
    over three tries.  The spans are kept, as in a traced round, so that
    their cost to the garbage collector counts.  They are named like
    the most frequent ones (products), whose size record is empty."""

    def noop(a, b):
        return None

    samples = []
    for _ in range(3):
        traced = Tracer()._wrap("linalg.matmul", noop)
        start = perf_counter()
        for _ in range(calls):
            noop(1, 2)
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced(1, 2)
        samples.append((perf_counter() - start - plain) / calls)
    return statistics.median(samples)


def _size(name, args, kwargs, result):
    """The size record a span keeps for the layer metrics."""
    if name in ELIM:
        return _elim_cells(name, args, kwargs)
    if name == "hopf.power_multiply":
        return [_nnz(args[2]) * _nnz(args[3]), _nnz(result)]
    if name == "partial_dual.left_partial_dual":
        return [_nnz(result.phi), len(result.report.checks)]
    if name == "partial_dual.verify_quasi_hopf":
        return len(result.checks)
    if name == "partial_dual.right_partial_dual":
        return len(result.report.checks)
    if name == "serialize.serialize":
        return len(result)
    if name == "serialize.parse":
        return len(args[0])
    return None


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    calls: Counter = Counter()
    out: Counter = Counter()
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        group = "linalg.elim" if name in ELIM else name
        self_s[group] += end - start - child[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if group == "linalg.elim":
            if parent_name not in ELIM:
                calls[group] += 1
                out["linalg.elim.cells"] += size
            continue
        calls[group] += 1
        if name == "hopf.power_multiply":
            out["hopf.power_multiply.pairs"] += size[0]
            out["_pm_out"] += size[1]
        elif name == "hopf.convolution_inverse" and parent_name == "pams.find_cointegral":
            out["pams.find_cointegral.candidates"] += 1
        elif name == "partial_dual.left_partial_dual":
            out["partial_dual.phi_nnz"] += size[0]
            out["partial_dual.checks"] += size[1]
        elif name in ("partial_dual.verify_quasi_hopf", "partial_dual.right_partial_dual"):
            out["partial_dual.checks"] += size
        elif name.startswith("serialize."):
            out["serialize.bytes"] += size
    metrics = {}
    for group in ("linalg.elim", "linalg.matmul", "linalg.contract", "hopf.power_multiply",
                  "hopf.tensor_comult_leg", "hopf.tensor_of", "hopf.multiply", "hopf.convolution_inverse"):
        metrics[f"{group}.calls"] = calls[group]
        metrics[f"{group}.self_s"] = self_s[group]
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = self_s[name]
    pairs = out["hopf.power_multiply.pairs"]
    for key in ("linalg.elim.cells", "hopf.power_multiply.pairs", "pams.find_cointegral.candidates",
                "partial_dual.phi_nnz", "partial_dual.checks", "serialize.bytes"):
        metrics[key] = out[key]
    metrics["hopf.power_multiply.useful_ratio"] = out["_pm_out"] / pairs if pairs else 0.0
    return metrics


class OpCounter:
    """Counts +, - and * on Fraction and ModInt while installed."""

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")

    def __init__(self):
        self.counts = Counter()
        self._saved: list = []

    def _wrap(self, key, fn):
        counts = self.counts

        def counted(a, b):
            counts[key] += 1
            return fn(a, b)

        return counted

    def install(self) -> None:
        for cls, key in ((Fraction, "linalg.q_ops"), (ModInt, "linalg.fp_ops")):
            for op in self.OPS:
                original = cls.__dict__[op]
                self._saved.append((cls, op, original))
                setattr(cls, op, self._wrap(key, original))

    def uninstall(self) -> None:
        for cls, op, original in reversed(self._saved):
            setattr(cls, op, original)
        self._saved.clear()
