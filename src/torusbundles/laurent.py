"""Complex tori as multiplicative quotients, and Laurent polynomial matrices.

A torus is the quotient C*/<q> of the punctured plane by the cyclic group
generated by the nome q = exp(2*pi*i*tau), with tau in the upper half
plane.  Vector bundles on the quotient are described elsewhere in this
package by matrix valued generators A(u); here we provide the coefficient
ring those generators live in.

Entries are Laurent polynomials in one variable u: exact integer
exponents, double precision complex coefficients.  Sums, sampled
results and matrices built from user rows drop coefficients below
``PRUNE_REL`` times the largest of the matrix, so supports stay finite.
Products (@, kron) are never pruned: their small coefficients at high
or low exponents dominate off the unit circle.  Nor are exact results:
products by a monomial c u^k, substitutions u -> c u and assemblies.

A scalar is a LaurentPoly, a dict from exponent to coefficient, built
in one pass over its terms: _finite_terms checks each term and keeps
the smallest and largest modulus, and the prune runs only when the
smallest is at most PRUNE_REL times the largest.  Its arithmetic is the
1 x 1 case of the matrix arithmetic below, so a polynomial and a matrix
follow one rule for each operation.  A LaurentMatrix is its lowest
exponent plus one dense complex array of shape (K, n, n), coefficient
slices of consecutive exponents.  A product is one kernel, _product:
one GEMM for every pair of slices, added along the sum of their
exponents, and one test that every modulus is finite.  Substitution
u -> c u multiplies by the weights c^k, for several scales c in one
broadcast, _translate_stack.  iterate and the isogeny round trip take
all their translates A(q^i u) as such a stack, with each power q^i
taken inside the stack's guard.  Outside iterate, whose translates are
intermediates, a translate that loses no coefficient keeps its base's
window, and the det d c^k u^k when the base carries d u^k, so its
invertibility check takes no determinant.

det, the inverse of a monomial det matrix and the symmetric and exterior
powers take one path, LaurentMatrix._sampled: evaluate at the roots of
unity of a support window known in advance, apply a batched numeric map
to all samples, and interpolate by an inverse FFT.  A one-point window
takes no FFT and stays exact.  SAMPLE_BUDGET caps the size of a window,
and of the coefficient array of a matrix built from rows or blocks or
taken as a sum, whose window spans only its nonzero operands.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "PRUNE_REL",
    "CLOSE_TOL",
    "TorusBundleError",
    "NotInvertibleInRing",
    "DetVanishesOnCstar",
    "NotNilpotent",
    "Torus",
    "same_torus",
    "LaurentPoly",
    "LaurentMatrix",
    "poly_close",
    "matrices_close",
    "block_diagonal",
    "passes_sampled_invertibility",
    "torus_to_json",
    "torus_from_json",
    "terms_to_json",
    "terms_from_json",
    "matrix_to_json",
    "matrix_from_json",
]

#: relative pruning threshold for stored coefficients
PRUNE_REL = 1e-12

#: base tolerance for identity checks; always scaled by (1 + largest input coefficient)
CLOSE_TOL = 1e-9

#: points of the unit circle where passes_sampled_invertibility takes det
INVERTIBILITY_SAMPLES = 16

#: most elements a coefficient array (exponent window width x n^2), a root
#: table (window width x exponents, folded to at most the window width) or
#: a stack of samples (window width x n^2) may hold; wider windows raise
#: ValueError
SAMPLE_BUDGET = 1 << 22

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


class TorusBundleError(Exception):
    """Base class for the domain errors raised by this package."""


class NotInvertibleInRing(TorusBundleError):
    """A matrix inverse was requested but det is not a unit (a monomial)."""


class DetVanishesOnCstar(TorusBundleError):
    """A determinant has a zero in the working annulus, so the winding
    number that defines the degree is not available."""


class NotNilpotent(TorusBundleError):
    """A matrix expected to be nilpotent (after shifting an eigenvalue)
    failed the numerical nilpotency check."""


# ---------------------------------------------------------------------------
# the torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Torus:
    """The multiplicative torus C*/<q> with modulus tau, Im tau > 0.

    ``q = exp(2*pi*i*tau)`` and ``s = exp(pi*i*tau)`` is the fixed square
    root of q used whenever half integer powers of q appear; q is stored
    as s*s so the relation between the two is exact.
    """

    tau: complex
    s: complex = field(init=False, repr=False, compare=False)
    q: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ValueError(f"tau must be finite, got {tau!r}")
        if tau.imag <= 0:
            raise ValueError(f"tau must have positive imaginary part, got {tau!r}")
        s = cmath.exp(1j * cmath.pi * tau)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", s * s)


def same_torus(t1: Torus, t2: Torus) -> bool:
    return abs(t1.tau - t2.tau) <= 1e-12 * (1.0 + abs(t1.tau))


def _require_same_torus(t1: Torus, t2: Torus) -> None:
    if not same_torus(t1, t2):
        raise ValueError(f"torus mismatch: tau={t1.tau!r} vs tau={t2.tau!r}")


def _check_integer(k, what: str, least: Optional[int] = None) -> int:
    """k as an int when it is a Python or numpy integer, not a bool, of
    at least ``least``; else ValueError "<what>, got <k!r>"."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or (least is not None and k < least):
        raise ValueError(f"{what}, got {k!r}")
    return int(k)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


def _matrix_op(op: Callable[["LaurentMatrix", "LaurentMatrix"], "LaurentMatrix"]) -> Callable:
    """The LaurentPoly operator that computes p op other as [[p]] op
    [[other]] and reads back entry(0, 0); a scalar other is a constant."""

    def method(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return op(LaurentMatrix([[self]], prune=False), LaurentMatrix([[other]], prune=False)).entry(0, 0)

    return method


class LaurentPoly:
    """A Laurent polynomial sum_k c_k u^k with finite support.

    Stored as a dict from integer exponent to complex coefficient.
    Construction prunes coefficients below ``PRUNE_REL`` times the largest
    one and rejects non-finite values.  +, -, *, ** by m >= 0 and
    substitute_scaled are those of the 1 x 1 matrix [[p]], read back
    with entry(0, 0), with a scalar taken as a constant; so are their
    pruning and their errors.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[Mapping[int, complex]] = None):
        if not coeffs:
            self._c = {}
            return
        c, low, top = _finite_terms(coeffs)
        if low <= PRUNE_REL * top:
            threshold = PRUNE_REL * max(abs(v) for v in c.values())
            c = {k: v for k, v in c.items() if abs(v) > threshold}
        self._c = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def constant(cls, c: complex) -> "LaurentPoly":
        return cls({0: complex(c)})

    @classmethod
    def monomial(cls, k: int, c: complex = 1.0) -> "LaurentPoly":
        return cls({k: complex(c)})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> list[tuple[int, complex]]:
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    @property
    def support(self) -> list[int]:
        return sorted(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return not self._c or set(self._c) == {0}

    def constant_value(self) -> complex:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._c.get(0, 0j)

    def is_monomial(self) -> Optional[tuple[int, complex]]:
        """Return (k, c) when the polynomial is exactly c*u^k, else None.

        Monomials are the units of the Laurent ring, so this is the exact
        invertibility test for determinants.
        """
        if len(self._c) != 1:
            return None
        [(k, c)] = self._c.items()
        return k, c

    def max_coeff(self) -> float:
        return max((abs(v) for v in self._c.values()), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    __add__ = __radd__ = _matrix_op(operator.add)
    __sub__ = _matrix_op(operator.sub)
    __rsub__ = _matrix_op(lambda a, b: b - a)
    __mul__ = __rmul__ = _matrix_op(operator.matmul)

    def __neg__(self):
        return _unchecked_poly({k: -v for k, v in self._c.items()})

    def __pow__(self, m: int):
        if not isinstance(m, (int, np.integer)):
            return NotImplemented
        if m < 0:
            mono = self.is_monomial()
            if mono is None:
                raise NotInvertibleInRing(f"negative power of a non-monomial: {self}")
            k, c = mono
            return LaurentPoly.monomial(k * int(m), c ** int(m))
        base, out = LaurentMatrix([[self]], prune=False), LaurentMatrix.identity(1)
        for _ in range(int(m)):
            out = out @ base
        return out.entry(0, 0)

    def substitute_scaled(self, c: complex) -> "LaurentPoly":
        """Substitute u -> c*u for nonzero c, mapping u^k to c^k u^k, as
        LaurentMatrix.substitute_scaled does."""
        return LaurentMatrix([[self]], prune=False).substitute_scaled(c).entry(0, 0)

    def __call__(self, u0: complex) -> complex:
        return sum((v * complex(u0) ** k for k, v in self._c.items()), 0j)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    __hash__ = None  # mutable-float content; compare with poly_close instead

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k, v in self.terms():
            cs = _format_complex(v)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*u")
            else:
                parts.append(f"{cs}*u^{k}")
        return " + ".join(parts)


def _finite_terms(coeffs: Mapping[int, complex]) -> tuple[dict[int, complex], float, float]:
    """The nonzero terms of ``coeffs`` for the LaurentPoly constructor,
    repeated exponents summed, with the smallest and largest modulus
    among them; a repeated exponent sets the smallest to 0, as its sum
    may cancel.  A non-integer exponent raises TypeError, a non-finite
    modulus ValueError."""
    c: dict[int, complex] = {}
    low, top = math.inf, 0.0
    for k, v in coeffs.items():
        if type(k) is int:
            e = k
        elif isinstance(k, (int, np.integer)):
            e = int(k)
        else:
            raise TypeError(f"exponent must be an integer, got {k!r}")
        v = complex(v)
        try:
            a = abs(v)
        except OverflowError:  # finite parts whose modulus is past the double range
            a = math.inf
        if not a < math.inf:  # inf or nan
            raise ValueError(f"non-finite coefficient {v!r} at exponent {k}")
        if a:
            if e in c:
                c[e] += v
                low = 0.0
            else:
                # 0j + v stores a zero part as +0
                c[e] = 0j + v
                if a < low:
                    low = a
                if a > top:
                    top = a
    return c, low, top


def _as_poly(x) -> Optional[LaurentPoly]:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, _SCALARS):
        return LaurentPoly.constant(x)
    return None


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return f"{v.real:.10g}"
    return f"({v.real:.10g}{v.imag:+.10g}i)"


def poly_close(a: "LaurentPoly | LaurentMatrix", b: "LaurentPoly | LaurentMatrix", tol: float = CLOSE_TOL) -> bool:
    """Compare coefficientwise, to tol * (1 + largest input coefficient);
    matrices_close compares matrices by this rule."""
    scale = 1.0 + max(a.max_coeff(), b.max_coeff())
    return (a - b).max_coeff() <= tol * scale


# ---------------------------------------------------------------------------
# Laurent polynomial matrices
# ---------------------------------------------------------------------------


def _unchecked_poly(terms: dict[int, complex]) -> LaurentPoly:
    """The polynomial of ``terms``, nonzero and finite, as it is: no
    check and no pruning."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._c = terms
    return p


def _poly_from_values(lo: int, values: Sequence[complex]) -> LaurentPoly:
    """The polynomial sum_k values[k] u^(lo + k), zeros dropped, no pruning."""
    return _unchecked_poly({lo + k: v for k, v in enumerate(values) if v})


class LaurentMatrix:
    """A square matrix with LaurentPoly entries.

    Stored as the lowest exponent ``lo`` and one complex array of shape
    (K, n, n) whose slice k holds the coefficients of u^(lo + k); the
    first and last slices are nonzero, and the zero matrix has K = 0.
    Treated as immutable; all operations return new matrices.  Sums
    prune relative to the largest coefficient of the whole result, not
    entry by entry; products (@, kron) and exact results are not pruned.
    """

    __slots__ = ("_lo", "_c", "_det")

    def __init__(self, rows: Sequence[Sequence], prune: bool = True):
        """The matrix of ``rows``, each read once: entries are coerced to
        LaurentPoly, and only those with terms are recorded and written."""
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        live = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in size {n}")
            for j, e in enumerate(row):
                terms = (e if type(e) is LaurentPoly else self._coerce(e))._c
                if terms:
                    live.append((i, j, terms))
        exps = [k for _, _, terms in live for k in terms]
        lo = min(exps, default=0)
        hi = max(exps, default=lo - 1)
        _check_budget("exponent", hi - lo + 1, n * n)
        c = np.zeros((hi - lo + 1, n, n), dtype=complex)
        for i, j, terms in live:
            for k, v in terms.items():
                c[k - lo, i, j] = v
        self._set(lo, c, prune)

    def _set(self, lo: int, c: np.ndarray, prune: bool) -> None:
        """Store sum_k c[k] u^(lo + k), pruned against the largest
        coefficient when ``prune``, with _trimmed's window."""
        if prune and c.size:
            mag = np.abs(c)
            top = float(mag.max())
            if not math.isfinite(top):
                raise ValueError(f"non-finite coefficient in a {c.shape[1]} x {c.shape[1]} matrix")
            c = np.where(mag > PRUNE_REL * top, c, 0)
        self._lo, self._c = _trimmed(lo, c)
        self._det: Optional[LaurentPoly] = None

    @classmethod
    def _from_coeffs(cls, lo: int, c: np.ndarray, prune: bool = True) -> "LaurentMatrix":
        """The matrix sum_k c[k] u^(lo + k) from a (K, n, n) array it owns."""
        m = cls.__new__(cls)
        m._set(lo, c, prune)
        return m

    @staticmethod
    def _coerce(e) -> LaurentPoly:
        p = _as_poly(e)
        if p is None:
            raise TypeError(f"cannot use {type(e).__name__} as a matrix entry")
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls._from_coeffs(0, np.eye(n, dtype=complex)[None], prune=False)

    @classmethod
    def zeros(cls, n: int) -> "LaurentMatrix":
        return cls._from_coeffs(0, np.zeros((0, n, n), dtype=complex), prune=False)

    @classmethod
    def from_constant(cls, arr) -> "LaurentMatrix":
        a = np.array(arr, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square array, got shape {a.shape}")
        return cls._from_coeffs(0, a[None])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "LaurentMatrix":
        return block_diagonal([cls([[e]], prune=False) for e in entries])

    # -- inspection ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._c.shape[1]

    def entry(self, i: int, j: int) -> LaurentPoly:
        return _poly_from_values(self._lo, self._c[:, i, j].tolist())

    def rows(self) -> list[list[LaurentPoly]]:
        return [[_poly_from_values(self._lo, v) for v in row] for row in self._c.transpose(1, 2, 0).tolist()]

    def max_coeff(self) -> float:
        return float(np.abs(self._c).max()) if self._c.size else 0.0

    def is_constant(self) -> bool:
        return len(self._c) == 0 or (len(self._c) == 1 and self._lo == 0)

    def constant_matrix(self) -> np.ndarray:
        if not self.is_constant():
            raise ValueError("matrix has non-constant entries")
        return self._c[0].copy() if len(self._c) else np.zeros((self.n, self.n), dtype=complex)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other: "LaurentMatrix", sign: int) -> "LaurentMatrix":
        """self + sign * other on the window of the nonzero operands, so a
        zero operand does not widen it; a window past SAMPLE_BUDGET raises
        ValueError before it is allocated."""
        self._check_size(other)
        live = [(m, s) for m, s in ((self, 1), (other, sign)) if len(m._c)]
        lo = min((m._lo for m, _ in live), default=0)
        hi = max((m._lo + len(m._c) for m, _ in live), default=lo)
        _check_budget("exponent", hi - lo, self.n * self.n)
        out = np.zeros((hi - lo, self.n, self.n), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for m, s in live:
                out[m._lo - lo:m._lo - lo + len(m._c)] += s * m._c
            return LaurentMatrix._from_coeffs(lo, out)

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return LaurentMatrix._from_coeffs(self._lo, -self._c, prune=False)

    def __matmul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._check_size(other)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _product(self._c, other._c)
        return LaurentMatrix._from_coeffs(self._lo + other._lo, out, prune=False)

    def scaled(self, factor) -> "LaurentMatrix":
        """Multiply every entry by a scalar or a LaurentPoly."""
        mono = self._coerce(factor).is_monomial()
        if mono is None:
            return LaurentMatrix([[factor]]).kron(self)
        # c u^k is exact, so no prune; adding 0 turns the signed zeros the
        # product can leave into +0, as the sum in kron does
        with np.errstate(over="ignore", invalid="ignore"):
            out = mono[1] * self._c + 0
            _check_moduli(out)
        return LaurentMatrix._from_coeffs(self._lo + mono[0], out, prune=False)

    def substitute_scaled(self, c: complex) -> "LaurentMatrix":
        """Substitute u -> c*u for nonzero c, mapping u^k to c^k u^k.

        Exact, so not pruned.  The weights c^k are Python powers, which
        raise OverflowError past the double range, or ZeroDivisionError
        when c^-k underflows to 0; a coefficient that overflows in the
        product raises ValueError.  The result keeps a carried det as
        _translate_matrices describes.
        """
        translates, failure = self._translate_matrices([c])
        if failure is not None:
            raise failure
        return translates[0]

    def _translate_matrices(self, scales: Sequence[complex]) -> tuple[list["LaurentMatrix"], Optional[Exception]]:
        """The matrices self(c u) of _translate_stack for the scales c,
        with its first error or None.  When self carries det d u^k, a
        translate that lost no coefficient to underflow keeps self's
        window, so it is not trimmed, and carries det d c^k u^k when
        _scaled_det gives it.  Any other translate is trimmed and carries
        nothing, so its det() and its check eliminate as for any matrix.
        A translate has at most self's nonzero count, so one count of the
        stack tells when no translate lost any; else one count per
        translate, over the stack, tells which did."""
        stack, failure = self._translate_stack(scales)
        mono = self._det is not None and self._det.is_monomial()
        if not mono:
            return [LaurentMatrix._from_coeffs(self._lo, a, prune=False) for a in stack], failure
        live = np.count_nonzero(self._c)
        if np.count_nonzero(stack) == len(stack) * live:
            whole = [True] * len(stack)
        else:
            whole = (np.count_nonzero(stack.reshape(len(stack), self._c.size), axis=1) == live).tolist()
        out = []
        for c, a, same in zip(scales, stack, whole):
            det = same and _scaled_det(mono, c)
            if det:
                m = LaurentMatrix.__new__(LaurentMatrix)
                m._lo, m._c, m._det = self._lo, a, det
            else:
                m = LaurentMatrix._from_coeffs(self._lo, a, prune=False)
            out.append(m)
        return out, failure

    def _translate_stack(self, scales: Iterable[complex]) -> tuple[np.ndarray, Optional[Exception]]:
        """The coefficient arrays of self(c u) for the scales c in order,
        as one (count, K, n, n) stack from one broadcast multiply by the
        weights c^k, with the lowest exponent of self.  ``scales`` is read
        one scale at a time inside the guard, so a lazy iterable of powers
        q^i has each power taken there.  Stops at the first scale that
        fails, whether its power, a weight or the product, as
        substitute_scaled describes, and returns the translates before it
        with that error, or None.  The moduli are tested in
        _check_moduli's two steps, the second one translate by one."""
        lo, width = self._lo, len(self._c)
        taken, weights, failure = [], [], None
        try:
            for c in scales:
                c = complex(c)
                if c == 0:
                    failure = ValueError("substitution scale must be nonzero")
                    break
                weights += [c ** k for k in range(lo, lo + width)]
                taken.append(c)
        except ArithmeticError as exc:
            failure = exc
        with np.errstate(over="ignore", invalid="ignore"):
            # self._c[None], not self._c: numpy picks its multiply loop by the
            # operands' strides, and this way each element takes the loop,
            # and gets the bytes, of the one-scale product _c * w[:, None, None]
            out = self._c[None] * np.array(weights, dtype=complex).reshape(len(taken), width, 1, 1)
            if not math.isfinite(np.vdot(out, out).real):
                finite = np.isfinite(np.abs(out)).all(axis=(1, 2, 3))
                if not finite.all():
                    j = int(finite.argmin())
                    failure = ValueError(f"non-finite coefficient after substituting u -> {taken[j]} u")
                    out = out[:j]
        return out, failure

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix._from_coeffs(self._lo, self._c.transpose(0, 2, 1), prune=False)

    def eval_at(self, u0: complex) -> np.ndarray:
        u0 = complex(u0)
        powers = np.array([u0 ** k for k in range(self._lo, self._lo + len(self._c))], dtype=complex)
        return np.tensordot(powers, self._c, axes=1)

    def kron(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Kronecker product, row major block layout."""
        n, m = self.n, other.n
        a, b = self._c, other._c
        if not len(a) or not len(b):
            return LaurentMatrix.zeros(n * m)
        out = np.zeros((len(a) + len(b) - 1, n * m, n * m), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(a)):
                block = a[i][None, :, None, :, None] * b[:, None, :, None, :]
                out[i:i + len(b)] += block.reshape(len(b), n * m, n * m)
            _check_moduli(out)
        return LaurentMatrix._from_coeffs(self._lo + other._lo, out, prune=False)

    def _check_size(self, other: "LaurentMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    # -- determinant and inverse -------------------------------------------

    def _row_extremes(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Lowest and highest exponent of each row, None for a zero row."""
        live = self._c.any(axis=2)
        if not live.any(axis=0).all():
            return None
        first = live.argmax(axis=0)
        last = len(live) - 1 - live[::-1].argmax(axis=0)
        return self._lo + first, self._lo + last

    def _at_roots(self, width: int) -> np.ndarray:
        """Values at the roots of unity exp(2 pi i t / width), shape
        (width, n, n); the one root of a one-point window is u = 1, where
        the value is the sum of the coefficient slices.  More than width
        slices are first folded into width residue classes of their
        exponents, by sums over views of the array, so the root table is
        at most width x width and no copy of the array is taken."""
        c, n = self._c, self.n
        if width == 1:
            return c.sum(axis=0)[None]
        k = len(c)
        if k > width:
            whole = k - k % width
            folded = c[:whole].reshape(whole // width, width, n, n).sum(axis=0)
            folded[:k - whole] += c[whole:]
            c, k = folded, width
        exps = (np.arange(width)[:, None] * np.arange(self._lo, self._lo + k)) % width
        w = np.exp((2j * np.pi / width) * exps)
        return (w @ c.reshape(k, n * n)).reshape(width, n, n)

    def _sampled(self, lo: int, hi: int, apply: Callable[[np.ndarray], np.ndarray], size: int = 0) -> np.ndarray:
        """Coefficients of u^lo .. u^hi, along axis 0, of a function of
        this matrix whose support lies in that window: ``apply`` maps the
        samples at the W = hi - lo + 1 roots of unity, shape (W, n, n),
        to the function's values in one batch, and an inverse FFT
        recovers the coefficients.  A one-point window takes no FFT, so
        an exact ``apply`` gives exact coefficients.  Overflow gives inf
        or nan, without a numpy warning, for the result's constructor to
        reject.  A root table (W x min(K, W)), samples (W x n^2) or ``size``
        elements per sample of ``apply`` past SAMPLE_BUDGET raise
        ValueError before anything is allocated.
        """
        width = hi - lo + 1
        _check_budget("sampling", width, max(min(len(self._c), width), self.n ** 2, size))
        with np.errstate(over="ignore", invalid="ignore"):
            vals = apply(self._at_roots(width))
            if width == 1:
                return vals
            return (np.fft.fft(vals, axis=0) / width)[(lo + np.arange(width)) % width]

    def det(self) -> LaurentPoly:
        """Determinant as a LaurentPoly: the det the matrix carries from
        how it was built, or, when each row holds one exponent,
        _one_point_det's elimination, which the matrix keeps.  Else det
        is sampled on the window between the sums of the rows' lowest and
        highest exponents, one batched determinant for all samples, and
        not kept; it is identically zero only when every sample is 0.
        """
        point = self._det is None and self._one_point_det()
        if self._det is not None:
            return self._det
        if point:  # an elimination whose modulus is past the double range is not kept
            raise ValueError(f"non-finite coefficient {point[1]!r} at exponent {point[0]}")
        ext = self._row_extremes()
        if ext is None:
            return LaurentPoly.zero()
        lo, hi = int(ext[0].sum()), int(ext[1].sum())
        # non-finite samples are left to LaurentPoly to reject
        return LaurentPoly(dict(zip(range(lo, hi + 1), self._sampled(lo, hi, _sample_dets).tolist())))

    def _one_point_det(self) -> Optional[tuple[int, complex]]:
        """(sum e_i, det A(1)) when each row i holds one exponent e_i, so
        A(u) = diag(u^e_i) A(1), or is zero (at most n live (exponent,
        row) pairs); else None.  Reads a carried det, or takes one
        _pivot_det and keeps det if its modulus is finite."""
        c, n = self._c, self.n
        k = n * self._lo
        if len(c) > 1:
            live = c.any(axis=2)
            if np.count_nonzero(live) > n:
                return None
            k += int(live.argmax(axis=0).sum())
        if self._det is not None:
            return k, self._det._c.get(k, 0j)
        det = _pivot_det((c[0] if len(c) == 1 else c.sum(axis=0)).tolist())
        if math.isfinite(math.hypot(det.real, det.imag)):
            # + 0j stores a zero part as +0, as the LaurentPoly constructor does
            self._det = _poly_from_values(k, [det + 0j])
        return k, det

    def _carry_triangular_det(self) -> "LaurentMatrix":
        """Carry det on this matrix, built with one exponent lo and upper
        triangular, and return it.  Elimination takes the diagonal as its
        pivots, in order and with no swap, so det is u^(n lo) times their
        product from 1 + 0j, the number det() takes.  A product whose
        modulus is not finite is not carried, so det() and the
        invertibility check fail on it as they would without it.
        """
        pivots = self._c[0].diagonal().tolist() if len(self._c) else [0j]
        det = 0j if 0 in pivots else math.prod(pivots, start=1.0 + 0j)
        if math.isfinite(math.hypot(det.real, det.imag)):
            self._det = _poly_from_values(self.n * self._lo, [det + 0j])
        return self

    def _carry_companion_det(self, a: "LaurentMatrix", r: int) -> "LaurentMatrix":
        """Carry det on this matrix, companion_block(a, r), when a carries
        det a, and return it: det = (-1)^((r-1) n) det a, n = a.n.  For
        a triangular a as above, elimination takes a's diagonal and then
        ones as pivots, with a sign change at each row swap; that differs
        from the sign times det a at most in the sign of a zero part,
        which + 0j stores as +0, so the det is det()'s bit for bit.  For
        other a it is det() up to rounding.  The terms of det a are
        nonzero and finite already, so they are stored unchecked.
        """
        if a._det is not None:
            sign = (-1) ** ((r - 1) * a.n)
            self._det = _unchecked_poly({k: sign * c + 0j for k, c in a._det._c.items()})
        return self

    def inverse_monomial_det(self) -> "LaurentMatrix":
        """Inverse over the Laurent ring; requires det to be a monomial.

        Entry (i, j) is a cofactor that omits row j, divided by det =
        c u^k, so its support lies in [sum(lows) - max(lows) - k,
        sum(highs) - min(highs) - k]; the samples are inverted in one
        batch.
        """
        det = self.det()
        mono = det.is_monomial()
        if mono is None:
            raise NotInvertibleInRing(
                f"det = {det} is not a monomial, so the matrix has no inverse with Laurent entries"
            )
        lows, highs = self._row_extremes()
        lo = int(lows.sum() - lows.max()) - mono[0]
        hi = int(highs.sum() - highs.min()) - mono[0]
        return LaurentMatrix._from_coeffs(lo, self._sampled(lo, hi, np.linalg.inv))

    # -- io and display -----------------------------------------------------

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows())
        return f"LaurentMatrix[{body}]"


def _check_budget(what: str, width: int, per_point: int) -> None:
    """Raise ValueError, before anything is allocated, when a window of
    ``width`` points holding ``per_point`` elements each would hold more
    than SAMPLE_BUDGET elements."""
    need = width * per_point
    if need > SAMPLE_BUDGET:
        raise ValueError(
            f"{what} window of width {width} needs {need} elements, "
            f"more than SAMPLE_BUDGET = {SAMPLE_BUDGET}"
        )


def _scaled_det(mono: tuple[int, complex], c: complex) -> Optional[LaurentPoly]:
    """det A(c u) = d c^k u^k for A with det ``mono`` = (k, d), or None
    when the Python power c^k raises or d c^k is 0 or not finite, as a
    det past the double range is not carried.  + 0j stores a zero part
    as +0, as _one_point_det does."""
    k, d = mono
    try:
        det = d * complex(c) ** k
    except ArithmeticError:
        return None
    if 0.0 < math.hypot(det.real, det.imag) < math.inf:
        return _unchecked_poly({k: det + 0j})
    return None


def _trimmed(lo: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    """The lowest exponent and the coefficient array of sum_k c[k]
    u^(lo + k) with its zero end slices cut off; the zero matrix has
    lowest exponent 0 and no slice.  Nonzero end slices take one
    np.count_nonzero each, and c is returned as it is."""
    k = len(c)
    if k == 1 and np.count_nonzero(c) or k > 1 and np.count_nonzero(c[0]) and np.count_nonzero(c[-1]):
        return lo, c
    live = c.reshape(k, c.shape[1] ** 2).any(axis=1).nonzero()[0]
    if live.size == 0:
        return 0, c[:0]
    first, last = int(live[0]), int(live[-1])
    return lo + first, c[first:last + 1]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of the matrices with coefficient
    arrays a, (Ka, n, n), and b, (Kb, n, n), whose lowest exponents add:
    shape (Ka + Kb - 1, n, n), or (0, n, n) when either is zero.  Every
    slice product a[i] @ b[j] comes from one GEMM, and they are added
    along i + j, one slice add per slice of the shorter factor; nothing
    is pruned, and the result is checked with _check_moduli.  Run under
    np.errstate(over="ignore", invalid="ignore")."""
    ka, n, _ = a.shape
    kb = len(b)
    if not ka or not kb:
        return np.zeros((0, n, n), dtype=complex)
    prod = (a.reshape(ka * n, n) @ b.transpose(1, 0, 2).reshape(n, kb * n)).reshape(ka, n, kb, n)
    out = np.zeros((ka + kb - 1, n, n), dtype=complex)
    if ka <= kb:
        for i in range(ka):
            out[i:i + kb] += prod[i].transpose(1, 0, 2)
    else:
        for j in range(kb):
            out[j:j + ka] += prod[:, :, j]
    _check_moduli(out)
    return out


def _check_moduli(c: np.ndarray) -> None:
    """Raise ValueError unless every coefficient of the (K, n, n) array
    c has a finite modulus.  np.vdot(c, c) sums the squared moduli, which
    is finite unless a coefficient is inf or nan or has a modulus past
    about 1e154; only then are the moduli taken one by one.  Run under
    np.errstate(over="ignore", invalid="ignore")."""
    if not math.isfinite(np.vdot(c, c).real) and not np.isfinite(np.abs(c)).all():
        raise ValueError(f"non-finite coefficient in a {c.shape[1]} x {c.shape[1]} matrix")


def _pivot_det(m: list[list[complex]]) -> complex:
    """Determinant of one sample, the signed product of the pivots of
    Gaussian elimination with partial pivoting; overwrites ``m``.  A
    pivot of exactly 0 makes the determinant exactly 0.  A product that
    ends at 0 or non-finite from finite pivots, as of badly scaled rows,
    is taken again with each pivot's power of two split off, so for n
    below 1000 only the result can leave the double range."""
    n = len(m)
    det = sign = 1.0 + 0j
    for k in range(n):
        try:
            col = [abs(row[k]) for row in m[k:]]
        except OverflowError:  # finite parts whose modulus is past the double range
            col = [math.hypot(row[k].real, row[k].imag) for row in m[k:]]
        p = k + col.index(max(col))
        piv = m[p][k]
        if piv == 0:
            return 0j
        if p != k:
            m[k], m[p] = m[p], m[k]
            det, sign = -det, -sign
        det *= piv
        top = m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            if f:
                f /= piv
                m[i] = [x - f * y for x, y in zip(m[i], top)]
    if (det and cmath.isfinite(det)) or not all(cmath.isfinite(m[k][k]) for k in range(n)):
        return det
    pivots = np.array([m[k][k] for k in range(n)])
    exp = np.frexp(np.maximum(abs(pivots.real), abs(pivots.imag)))[1]
    det = sign * np.prod(np.ldexp(pivots.real, -exp) + 1j * np.ldexp(pivots.imag, -exp))
    with np.errstate(over="ignore"):
        return complex(*np.ldexp([det.real, det.imag], int(exp.sum())).tolist())


def _sample_dets(samples: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes of samples stacked along
    axis 0.  Several samples take one batched np.linalg.det.  The one
    sample of a one-point window is eliminated matrix by matrix with
    _pivot_det, which keeps integer determinants such as that of
    [[0, 1], [3, 0]] exact; np.linalg.det gives -3.0000000000000004."""
    if len(samples) > 1:
        return np.linalg.det(samples)
    lead = samples.shape[:-2]
    mats = samples.reshape(math.prod(lead), *samples.shape[-2:]).tolist()
    return np.array([_pivot_det(m) for m in mats], dtype=complex).reshape(lead)


# ---------------------------------------------------------------------------
# comparisons, assembly, invertibility sampling
# ---------------------------------------------------------------------------


def matrices_close(a: LaurentMatrix, b: LaurentMatrix, tol: float = CLOSE_TOL) -> bool:
    """Entrywise coefficient comparison, to tol * (1 + largest input
    coefficient); matrices of different sizes are not close."""
    return a.n == b.n and poly_close(a, b, tol)


def block_diagonal(blocks: Sequence[LaurentMatrix]) -> LaurentMatrix:
    """The block diagonal matrix of ``blocks``, no pruning; a coefficient
    array past SAMPLE_BUDGET raises ValueError before it is allocated."""
    if not blocks:
        raise ValueError("need at least one block")
    offsets = np.cumsum([0] + [b.n for b in blocks]).tolist()
    live = [(off, b) for off, b in zip(offsets, blocks) if len(b._c)]
    lo = min((b._lo for _, b in live), default=0)
    hi = max((b._lo + len(b._c) for _, b in live), default=lo)
    total = offsets[-1]
    _check_budget("exponent", hi - lo, total * total)
    out = np.zeros((hi - lo, total, total), dtype=complex)
    for off, b in live:
        out[b._lo - lo:b._lo - lo + len(b._c), off:off + b.n, off:off + b.n] = b._c
    return LaurentMatrix._from_coeffs(lo, out, prune=False)


def _invertibility_failure(mat: LaurentMatrix, name: str) -> Optional[str]:
    """The sampled invertibility check of u -> mat(u) on C*: None when
    it passes, else the determinants it took, as text naming mat
    ``name``.

    Takes the determinants of mat at INVERTIBILITY_SAMPLES equally spaced
    points of the unit circle and flags matrices whose determinant is
    zero, infinite or nan there, or degenerates by more than nine orders
    of magnitude between sample points: "|det A| from 0 to 2 at 16
    points of |u| = 1".  Scale free, so tiny but honest determinants (for
    instance high powers of q) pass.  An overflowed or invalid det reads
    inf or nan, without a numpy warning.

    |det| is constant on the circle, and the check is one number,
    0 < |det A(1)| < inf ("|det A(1)| = 0"), when mat carries det as a
    monomial c u^k, as normal forms and their companions do, or when
    each row holds one exponent, where it takes det()'s elimination.
    """
    point = (mat._det is not None and mat._det.is_monomial()) or mat._one_point_det()
    if point is not None:
        det = math.hypot(point[1].real, point[1].imag)
        return None if 0.0 < det < math.inf else f"|det {name}(1)| = {det:.3g}"
    _check_budget("sampling", INVERTIBILITY_SAMPLES, max(min(len(mat._c), INVERTIBILITY_SAMPLES), mat.n ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.abs(np.linalg.det(mat._at_roots(INVERTIBILITY_SAMPLES)))
    low, top = float(dets.min()), float(dets.max())
    if top > 0.0 and low > 1e-9 * top:
        return None
    return f"|det {name}| from {low:.3g} to {top:.3g} at {INVERTIBILITY_SAMPLES} points of |u| = 1"


def passes_sampled_invertibility(mat: LaurentMatrix) -> bool:
    """Whether mat passes the sampled invertibility check, a necessary
    condition for invertibility on C*; see _invertibility_failure."""
    return _invertibility_failure(mat, "A") is None


# ---------------------------------------------------------------------------
# json
# ---------------------------------------------------------------------------


def torus_to_json(t: Torus) -> dict:
    return {"tau": [t.tau.real, t.tau.imag]}


def torus_from_json(data: dict) -> Torus:
    re, im = data["tau"]
    return Torus(complex(float(re), float(im)))


def terms_to_json(terms: Iterable[tuple[int, complex]]) -> list[dict]:
    """The JSON term list of (exponent, coefficient) pairs, as
    LaurentPoly.terms() gives them."""
    return [{"k": k, "re": c.real, "im": c.imag} for k, c in terms]


def terms_from_json(terms: list) -> LaurentPoly:
    """The LaurentPoly of a JSON term list; exponents must be integers."""
    return LaurentPoly({_integer_from_json(t["k"], "exponent"): complex(float(t["re"]), float(t["im"])) for t in terms})


def matrix_to_json(mat: LaurentMatrix) -> dict:
    entries = [
        terms_to_json((mat._lo + k, v) for k, v in enumerate(values) if v)
        for row in mat._c.transpose(1, 2, 0).tolist()
        for values in row
    ]
    return {"n": mat.n, "entries": entries}


def _integer_from_json(k, what: str) -> int:
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"{what} must be an integer, got {k!r}")
    return k


def matrix_from_json(data: dict) -> LaurentMatrix:
    n = _integer_from_json(data["n"], "size n")
    entries = data["entries"]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries for size {n}, got {len(entries)}")
    polys = [terms_from_json(terms) for terms in entries]
    return LaurentMatrix([polys[i * n:(i + 1) * n] for i in range(n)], prune=False)
