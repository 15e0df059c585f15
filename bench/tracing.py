"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, task id), in every
module of the package that holds a reference to it, so names that
importing modules re-bind (``classify.companion_block``,
``isogeny.iterate``, ``cli.theta_eval``, ...) are traced too.  Spans stay
in memory and are written out by ``save``.  A span's self time is its
duration minus the time covered by its child spans; work the tracer does
after a span ends, such as counting output coefficients, is excluded from
the parent's self time as well.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

perf = time.perf_counter


def _terms(mat) -> int:
    n = mat.n
    return sum(len(mat.entry(i, j).support) for i in range(n) for j in range(n))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.task = []
        self._excluded = []
        self._stack: list[int] = []
        self.current_task = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._det_evals = 0
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.current_task)
        self._excluded.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf())
        return idx

    def _exit(self, idx: int) -> None:
        t = perf()
        self.end[idx] = t
        self._stack.pop()
        dur = t - self.start[idx]
        nm = self.names[self.name[idx]]
        self.calls[nm] += 1
        self.total_s[nm] += dur
        self.self_s[nm] += dur - self._excluded[idx]
        if self._stack:
            self._excluded[self._stack[-1]] += dur

    def _exclude_since(self, t0: float) -> None:
        if self._stack:
            self._excluded[self._stack[-1]] += perf() - t0

    def wrap(self, name, fn, count=None):
        """``name`` is a span name, or a function of the call's arguments
        returning one (None: call untraced).  ``count(args, result)``
        returns {counter: amount} added after the span ends."""
        pick = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nm = pick(*args, **kwargs)
            if nm is None:
                return fn(*args, **kwargs)
            idx = tracer._enter(tracer._id(nm))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if count is not None:
                t0 = perf()
                for key, amount in count(args, result).items():
                    tracer.counts[key] += amount
                tracer._exclude_since(t0)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_function(self, fn, wrapper) -> None:
        """Every binding of ``fn`` in the package's modules."""
        for modname, mod in list(sys.modules.items()):
            if modname == "torusbundles" or modname.startswith("torusbundles."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)

    def install(self, tb) -> None:
        from torusbundles import classify, cli, cocycle, functors, isogeny, laurent, theta

        lp, lm = laurent.LaurentPoly, laurent.LaurentMatrix
        mul = self.wrap("laurent.poly_mul", lp.__mul__)
        self._replace(lp, "__mul__", mul)
        self._replace(lp, "__rmul__", mul)
        self._replace(lm, "__matmul__", self.wrap(
            "laurent.matmul", lm.__matmul__,
            lambda args, res: {"laurent.matmul.coeffs_out": _terms(res)} if isinstance(res, lm) else {},
        ))
        self._replace(lm, "substitute_scaled", self.wrap("laurent.substitute_scaled", lm.substitute_scaled))
        self._replace(lm, "__init__", self.wrap("laurent.matrix_init", lm.__init__))
        # det caches its value on the matrix; only a computation is a span
        def det_name(m):
            if m._det is not None:
                return None
            self._det_evals = 0
            return "laurent.det_small" if m.n <= 8 else "laurent.det_large"

        def det_counts(args, res):
            if args[0].n <= 8:
                return {}
            return {"laurent.det_large.samples": self._det_evals / args[0].n ** 2, "laurent.det_large.coeffs_out": len(res.support)}

        self._replace(lm, "det", self.wrap(det_name, lm.det, det_counts))
        # a det_large sample evaluates every entry once, so the evaluations
        # made while that span is innermost, over n^2, are its samples
        det_large = self._id("laurent.det_large")
        evaluate = lp.__call__

        @functools.wraps(evaluate)
        def counted_call(p, u0):
            if self._stack and self.name[self._stack[-1]] == det_large:
                self._det_evals += 1
            return evaluate(p, u0)

        self._replace(lp, "__call__", counted_call)
        self._replace(lm, "inverse_monomial_det", self.wrap("laurent.inverse", lm.inverse_monomial_det))
        for fn in (laurent.matrix_to_json, laurent.matrix_from_json):
            self._replace_function(fn, self.wrap("laurent.json", fn))
        foa = cocycle.FactorOfAutomorphy
        self._replace(foa, "__init__", self.wrap("cocycle.factor_init", foa.__init__))
        traced = {
            "cocycle": (cocycle, ("iterate", "check_witness", "equivalent_constant")),
            "functors": (functors, ("tensor", "sym_power", "wedge_power", "dual")),
            "isogeny": (isogeny, ("pullback", "pushforward", "roundtrip_diag", "companion_block")),
            "classify": (classify, ("normal_form", "atiyah_construct", "degree", "recognize_deg0")),
            "theta": (theta, ("theta_eval", "verify_theta_function")),
            "cli": (cli, ("main",)),
        }
        for prefix, (mod, names) in traced.items():
            for attr in names:
                fn = getattr(mod, attr)
                self._replace_function(fn, self.wrap(f"{prefix}.{attr}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            task=np.array(self.task, dtype=np.int32),
        )


#: per layer metrics: (metric, source, kind); kind "calls" and "self_ms" read
#: the span of that name, "count" a counter, "total_ms" inclusive time
LAYER_METRICS = [
    ("laurent.poly_mul.calls", "laurent.poly_mul", "calls"),
    ("laurent.poly_mul.self_ms", "laurent.poly_mul", "self_ms"),
    ("laurent.matmul.calls", "laurent.matmul", "calls"),
    ("laurent.matmul.self_ms", "laurent.matmul", "self_ms"),
    ("laurent.matmul.coeffs_out", "laurent.matmul.coeffs_out", "count"),
    ("laurent.substitute_scaled.self_ms", "laurent.substitute_scaled", "self_ms"),
    ("laurent.matrix_init.calls", "laurent.matrix_init", "calls"),
    ("laurent.matrix_init.self_ms", "laurent.matrix_init", "self_ms"),
    ("laurent.det_small.calls", "laurent.det_small", "calls"),
    ("laurent.det_small.self_ms", "laurent.det_small", "self_ms"),
    ("laurent.det_large.calls", "laurent.det_large", "calls"),
    ("laurent.det_large.self_ms", "laurent.det_large", "self_ms"),
    ("laurent.det_large.samples", "laurent.det_large.samples", "count"),
    ("laurent.det_large.coeffs_out", "laurent.det_large.coeffs_out", "count"),
    ("laurent.inverse.calls", "laurent.inverse", "calls"),
    ("laurent.inverse.self_ms", "laurent.inverse", "self_ms"),
    ("laurent.json.self_ms", "laurent.json", "self_ms"),
    ("cocycle.factor_init.calls", "cocycle.factor_init", "calls"),
    ("cocycle.factor_init.self_ms", "cocycle.factor_init", "self_ms"),
    ("cocycle.iterate.self_ms", "cocycle.iterate", "self_ms"),
    ("cocycle.check_witness.self_ms", "cocycle.check_witness", "self_ms"),
    ("cocycle.equivalent_constant.self_ms", "cocycle.equivalent_constant", "self_ms"),
    ("functors.tensor.self_ms", "functors.tensor", "self_ms"),
    ("functors.sym_power.self_ms", "functors.sym_power", "self_ms"),
    ("functors.wedge_power.self_ms", "functors.wedge_power", "self_ms"),
    ("functors.dual.self_ms", "functors.dual", "self_ms"),
    ("isogeny.pullback.self_ms", "isogeny.pullback", "self_ms"),
    ("isogeny.pushforward.self_ms", "isogeny.pushforward", "self_ms"),
    ("isogeny.roundtrip_diag.self_ms", "isogeny.roundtrip_diag", "self_ms"),
    ("isogeny.companion_block.self_ms", "isogeny.companion_block", "self_ms"),
    ("classify.normal_form.self_ms", "classify.normal_form", "self_ms"),
    ("classify.atiyah_construct.self_ms", "classify.atiyah_construct", "self_ms"),
    ("classify.degree.self_ms", "classify.degree", "self_ms"),
    ("classify.recognize_deg0.self_ms", "classify.recognize_deg0", "self_ms"),
    ("theta.theta_eval.calls", "theta.theta_eval", "calls"),
    ("theta.theta_eval.self_ms", "theta.theta_eval", "self_ms"),
    ("theta.verify_theta_function.self_ms", "theta.verify_theta_function", "self_ms"),
    ("cli.main_ms", "cli.main", "total_ms"),
]


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Every per layer metric, per round of the workload; a layer the
    workload does not call reads 0."""
    out = {}
    for metric, src, kind in LAYER_METRICS:
        if kind == "calls":
            value, unit = tracer.calls.get(src, 0) / rounds, "count"
        elif kind == "count":
            value, unit = tracer.counts.get(src, 0) / rounds, "count"
        elif kind == "self_ms":
            value, unit = tracer.self_s.get(src, 0.0) * 1e3 / rounds, "ms"
        else:
            value, unit = tracer.total_s.get(src, 0.0) * 1e3 / rounds, "ms"
        out[metric] = {"value": value, "unit": unit}
    return out
