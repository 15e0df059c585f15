"""Complex tori as multiplicative quotients, and Laurent polynomial matrices.

A torus is the quotient C*/<q> of the punctured plane by the cyclic group
generated by the nome q = exp(2*pi*i*tau), with tau in the upper half
plane.  Vector bundles on the quotient are described elsewhere in this
package by matrix valued generators A(u); here we provide the coefficient
ring those generators live in.

Entries are Laurent polynomials in one variable u: exact integer
exponents, double precision complex coefficients.  Input (rows,
mappings, constant arrays, JSON) is exact and stored as given.  Only
computed results that round, sums and sampled results (det, the inverse
of a monomial det matrix, the Jordan witness of equivalent_constant),
drop coefficients at most ``PRUNE_REL`` times the largest of the matrix,
in LaurentMatrix._pruned, so supports stay finite.  Products (@, kron,
so a scalar multiple [[c]] (x) A) are never pruned: their small
coefficients at high or low exponents dominate off the unit circle.  Nor
are exact results: substitutions u -> c u and assemblies.

A scalar is a LaurentPoly, a dict from exponent to coefficient, built
in one pass over its terms by _finite_terms, which checks each term and
sums repeated exponents.  Its arithmetic is the 1 x 1 case of the matrix
arithmetic below, so a polynomial and a matrix follow one rule for each
operation.  A LaurentMatrix is its lowest exponent plus one dense
complex array of shape (K, n, n), coefficient slices of consecutive
exponents.  A product is one kernel, _window_product: the slices of
one factor, reversed and side by side, times every Toeplitz window of
the other, stored between zero slices, in one stacked matmul over a
strided view with no copy, and one test that every modulus is finite.
@ and iterate both run it (_product is @'s).  Substitution u -> c u
multiplies by the weights c^k, for several scales c in one broadcast,
_translate_stack.  iterate and the isogeny round trip take all their
translates A(q^i u) as such a stack, with each power q^i taken inside
the stack's guard.

A matrix may carry its det c u^k as the pair (k, c), set by how it was
built: a matrix with one exponent per row keeps _one_point_det's
elimination, a triangular normal form core carries its own
(_carry_triangular_det), a block companion the one its layout implies
(_companion), and outside iterate, whose translates are intermediates,
a translate that loses no coefficient keeps its base's window and
carries d c^k when the base carries (k, d).  The inverse of a monomial
det matrix carries (-k, 1/c) from the det (k, c) it read, unless its
prune dropped coefficients that move that det, and a transpose keeps
its matrix's pair.  The invertibility check and classify.degree read
the pair, and det() builds its LaurentPoly from it only when asked.

det, the inverse of a monomial det matrix and the symmetric and exterior
powers take one path, LaurentMatrix._sampled: evaluate at the roots of
unity of a support window known in advance, apply a batched numeric map
to all samples, and interpolate by an inverse FFT.  A one-point window
takes no FFT and stays exact.  SAMPLE_BUDGET caps a window (_at_roots)
and the coefficient array of a matrix built from rows or blocks or taken
as a sum, whose window spans only its nonzero operands.

The root tables exp(2 pi i t e / W) of the sampled path, and the gather
tables of the symmetric powers, are constants of shape: a table of at
most TABLE_CAP elements is built once, made read-only and kept, at most
TABLES_KEPT of each kind (_kept_tables); a larger one is built on each
call.  No result, det or verdict is kept.
"""

from __future__ import annotations

import cmath
import functools
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

#: most elements of a kept table of constants of shape, and most tables
#: kept of each kind: about 1 MiB of root tables, half that of indices
TABLE_CAP = 1024
TABLES_KEPT = 64

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
    """The multiplicative torus C*/<q> with modulus tau, Im tau > 0 and
    |q| below 1 in doubles.

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
        q = s * s
        if abs(q) >= 1.0:
            raise ValueError(f"tau = {tau!r} gives |q| = {abs(q)!r} in doubles; "
                             f"|q| must be below 1 (Im tau above about 1.8e-17)")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", q)


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
        return op(LaurentMatrix([[self]]), LaurentMatrix([[other]])).entry(0, 0)

    return method


class LaurentPoly:
    """A Laurent polynomial sum_k c_k u^k with finite support.

    Stored as a dict from integer exponent to complex coefficient.
    Construction keeps every nonzero term as given, sums repeated
    exponents and rejects non-finite values.  +, -, *, ** by m >= 0 and
    substitute_scaled are those of the 1 x 1 matrix [[p]], read back
    with entry(0, 0), with a scalar taken as a constant; so are their
    pruning and their errors.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[Mapping[int, complex]] = None):
        self._c = _finite_terms(coeffs.items()) if coeffs else {}

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
        base, out = LaurentMatrix([[self]]), LaurentMatrix.identity(1)
        for _ in range(int(m)):
            out = out @ base
        return out.entry(0, 0)

    def substitute_scaled(self, c: complex) -> "LaurentPoly":
        """Substitute u -> c*u for nonzero c, mapping u^k to c^k u^k, as
        LaurentMatrix.substitute_scaled does."""
        return LaurentMatrix([[self]]).substitute_scaled(c).entry(0, 0)

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


def _finite_terms(pairs: Iterable[tuple[int, complex]]) -> dict[int, complex]:
    """The nonzero terms of the (exponent, coefficient) ``pairs`` as
    given, zero parts stored as +0, repeated exponents summed: the sums
    are read again as terms, so each is checked and one that cancels is
    dropped.  A non-integer exponent raises TypeError, a non-finite
    modulus ValueError."""
    c: dict[int, complex] = {}
    repeated = False
    for k, v in pairs:
        if type(k) is int:
            e = k
        elif isinstance(k, (int, np.integer)):
            e = int(k)
        else:
            raise TypeError(f"exponent must be an integer, got {k!r}")
        if type(v) is not complex:
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
                repeated = True
            else:
                # 0j + v stores a zero part as +0
                c[e] = 0j + v
    if repeated:
        return _finite_terms(c.items())
    return c


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
    Treated as immutable; all operations return new matrices.  Input is
    stored as given; sums and sampled results prune against the largest
    coefficient of the whole result (_pruned), products and exact results
    do not.
    ``_det`` is None or the det c u^k the matrix carries, as the pair
    (k, c): see _monomial_det for what sets it.  det() builds the
    LaurentPoly of a carried pair on each request.
    """

    __slots__ = ("_lo", "_c", "_det")

    def __init__(self, rows: Sequence[Sequence]):
        """The matrix of ``rows``, each read once: entries are coerced to
        LaurentPoly, and those with terms are written as they are, each
        term at its one index (k - lo) n^2 + i n + j of a flat view of the
        zeroed coefficient array."""
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        live = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in size {n}")
            for j, e in enumerate(row):
                p = e if type(e) is LaurentPoly else _as_poly(e)
                if p is None:
                    raise TypeError(f"cannot use {type(e).__name__} as a matrix entry")
                if p._c:
                    live.append((i, j, p._c))
        exps = [k for _, _, terms in live for k in terms]
        lo = min(exps, default=0)
        hi = max(exps, default=lo - 1)
        nn = n * n
        _check_budget("exponent", hi - lo + 1, nn)
        c = np.zeros((hi - lo + 1, n, n), dtype=complex)
        flat = c.ravel()  # a view: c is contiguous
        for i, j, terms in live:
            at = i * n + j - lo * nn
            for k, v in terms.items():
                flat[at + k * nn] = v
        self._set(lo, c)

    def _set(self, lo: int, c: np.ndarray) -> None:
        """Store sum_k c[k] u^(lo + k) as given, with _trimmed's window."""
        self._lo, self._c = _trimmed(lo, c)
        self._det: Optional[tuple[int, complex]] = None

    @classmethod
    def _from_coeffs(cls, lo: int, c: np.ndarray) -> "LaurentMatrix":
        """The matrix sum_k c[k] u^(lo + k) from a (K, n, n) array it owns."""
        m = cls.__new__(cls)
        m._set(lo, c)
        return m

    @classmethod
    def _pruned(cls, lo: int, c: np.ndarray) -> "LaurentMatrix":
        """The computed result sum_k c[k] u^(lo + k), c an array it owns, each
        coefficient at most PRUNE_REL times the largest set to 0; non-finite raises ValueError."""
        if c.size:
            mag = np.abs(c)
            top = float(mag.max())
            if not math.isfinite(top):
                raise ValueError(f"non-finite coefficient in a {c.shape[1]} x {c.shape[1]} matrix")
            c = np.where(mag > PRUNE_REL * top, c, 0)
        return cls._from_coeffs(lo, c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls._from_coeffs(0, np.eye(n, dtype=complex)[None])

    @classmethod
    def zeros(cls, n: int) -> "LaurentMatrix":
        return cls._from_coeffs(0, np.zeros((0, n, n), dtype=complex))

    @classmethod
    def from_constant(cls, arr) -> "LaurentMatrix":
        """The square array ``arr`` as a constant matrix, stored as given."""
        a = np.array(arr, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square array, got shape {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            _check_moduli(a[None])
        return cls._from_coeffs(0, a[None])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "LaurentMatrix":
        return block_diagonal([cls([[e]]) for e in entries])

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
            return LaurentMatrix._pruned(lo, out)

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return LaurentMatrix._from_coeffs(self._lo, -self._c)

    def __matmul__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._check_size(other)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _product(self._c, other._c)
        return LaurentMatrix._from_coeffs(self._lo + other._lo, out)

    def scaled(self, factor) -> "LaurentMatrix":
        """Multiply every entry by a scalar or a LaurentPoly: the
        Kronecker product [[factor]] (x) self, not pruned."""
        return LaurentMatrix([[factor]]).kron(self)

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
        with its first error or None.  When self carries det (k, d), a
        translate that lost no coefficient to underflow keeps self's
        window, so it is not trimmed, and carries (k, d c^k) when the
        Python power c^k raises nothing and d c^k has a finite, nonzero
        modulus, as a det past the double range is not carried.  Any
        other translate is trimmed and carries nothing, so its det() and
        its check eliminate as for any matrix.  A translate has at most
        self's nonzero count, so one count of the stack tells when no
        translate lost any; else one count per translate, over the
        stack, tells which did."""
        with np.errstate(over="ignore", invalid="ignore"):
            stack, failure = self._translate_stack(scales)
        if self._det is None:
            return [LaurentMatrix._from_coeffs(self._lo, a) for a in stack], failure
        k, d = self._det
        live = np.count_nonzero(self._c)
        if np.count_nonzero(stack) == len(stack) * live:
            whole = [True] * len(stack)
        else:
            whole = (np.count_nonzero(stack.reshape(len(stack), self._c.size), axis=1) == live).tolist()
        out = []
        for c, a, same in zip(scales, stack, whole):
            try:
                det = d * complex(c) ** k if same else 0j
            except ArithmeticError:
                det = 0j
            pair = _unit_det(k, det)
            if pair:
                m = LaurentMatrix.__new__(LaurentMatrix)
                m._lo, m._c, m._det = self._lo, a, pair
            else:
                m = LaurentMatrix._from_coeffs(self._lo, a)
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
        _check_moduli's two steps, the second one translate by one.  Run
        under np.errstate(over="ignore", invalid="ignore"), which iterate
        and _translate_matrices enter."""
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
        # self._c[None], not self._c: numpy picks its multiply loop by the
        # operands' strides, and this way each element takes the loop, and
        # gets the bytes, of the one-scale product _c * w[:, None, None]
        out = self._c[None] * np.array(weights, dtype=complex).reshape(len(taken), width, 1, 1)
        if not math.isfinite(np.vdot(out, out).real):
            finite = np.isfinite(np.abs(out)).all(axis=(1, 2, 3))
            if not finite.all():
                j = int(finite.argmin())
                failure = ValueError(f"non-finite coefficient after substituting u -> {taken[j]} u")
                out = out[:j]
        return out, failure

    def transpose(self) -> "LaurentMatrix":
        """The transpose, which keeps a carried det: det A^T = det A."""
        m = LaurentMatrix._from_coeffs(self._lo, self._c.transpose(0, 2, 1))
        m._det = self._det
        return m

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
        return LaurentMatrix._from_coeffs(self._lo + other._lo, out)

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

    def _at_roots(self, width: int, size: int = 0) -> np.ndarray:
        """Values at the roots of unity exp(2 pi i t / width), shape
        (width, n, n); the one root of a one-point window is u = 1, where
        the value is the sum of the coefficient slices.  More than width
        slices are first folded into width residue classes of their
        exponents, by sums over views of the array, so the root table is
        at most width x width and no copy of the array is taken.  The
        table is _root_table's for lo mod width: t e mod width, and so
        every sample, does not change when lo does by a multiple of width.
        A root table (width x min(K, width)), samples (width x n^2) or
        ``size`` elements per sample of the caller's map past SAMPLE_BUDGET
        raise ValueError before anything is allocated."""
        c, n = self._c, self.n
        _check_budget("sampling", width, max(min(len(c), width), n * n, size))
        if width == 1:
            return c.sum(axis=0)[None]
        k = len(c)
        if k > width:
            whole = k - k % width
            folded = c[:whole].reshape(whole // width, width, n, n).sum(axis=0)
            folded[:k - whole] += c[whole:]
            c, k = folded, width
        return (_root_table(width, self._lo % width, k) @ c.reshape(k, n * n)).reshape(width, n, n)

    def _sampled(self, lo: int, hi: int, apply: Callable[[np.ndarray], np.ndarray], size: int = 0) -> np.ndarray:
        """Coefficients of u^lo .. u^hi, along axis 0, of a function of
        this matrix whose support lies in that window: ``apply`` maps the
        samples at the W = hi - lo + 1 roots of unity, shape (W, n, n),
        to the function's values in one batch, and an inverse FFT
        recovers the coefficients.  A one-point window takes no FFT, so
        an exact ``apply`` gives exact coefficients.  Overflow gives inf
        or nan, without a numpy warning, for the result's constructor to
        reject.  _at_roots budgets ``size`` elements per sample of apply.
        """
        width = hi - lo + 1
        with np.errstate(over="ignore", invalid="ignore"):
            vals = apply(self._at_roots(width, size))
            if width == 1:
                return vals
            return (np.fft.fft(vals, axis=0) / width)[(lo + np.arange(width)) % width]

    def det(self) -> LaurentPoly:
        """Determinant as a LaurentPoly: built from the pair (k, c) of
        _monomial_det when the matrix carries one or each row holds one
        exponent.  Else det is sampled on the window between the sums of
        the rows' lowest and highest exponents, one batched determinant
        for all samples, pruned as the 1 x 1 matrix of that window and
        not kept; it is identically zero only when every sample is 0.
        """
        point = self._monomial_det()
        if point is not None:
            if self._det is None:  # an elimination whose modulus is past the double range is not kept
                raise ValueError(f"non-finite coefficient {point[1]!r} at exponent {point[0]}")
            return _poly_from_values(point[0], [point[1]])
        return self._sampled_det(self._row_extremes())

    def _sampled_det(self, ext: Optional[tuple[np.ndarray, np.ndarray]]) -> LaurentPoly:
        """det()'s sampled det, on the window of the row extremes ``ext``
        that _row_extremes took (zero when ext is None)."""
        if ext is None:
            return LaurentPoly.zero()
        lo, hi = int(ext[0].sum()), int(ext[1].sum())
        # + 0 stores a zero part as +0, as _finite_terms does
        return LaurentMatrix._pruned(lo, self._sampled(lo, hi, _sample_dets)[:, None, None] + 0).entry(0, 0)

    def _monomial_det(self) -> Optional[tuple[int, complex]]:
        """The det c u^k as the pair (k, c), when it is known without
        sampling: the pair the matrix carries, or else _one_point_det's.
        A pair is carried, with a finite modulus and any zero part stored
        as +0, by _one_point_det, _carry_triangular_det, _companion,
        _translate_matrices, inverse_monomial_det and transpose; a zero
        det is the pair (k, 0j).  An elimination whose modulus is not
        finite is returned but not carried.  None when no pair is carried
        and some row holds more than one exponent."""
        return self._det or self._one_point_det()

    def _one_point_det(self) -> Optional[tuple[int, complex]]:
        """(sum e_i, det A(1)) when each row i holds one exponent e_i, so
        A(u) = diag(u^e_i) A(1), or is zero (at most n live (exponent,
        row) pairs); else None.  Takes one _pivot_det and carries the
        pair if its modulus is finite."""
        c, n = self._c, self.n
        k = n * self._lo
        if len(c) > 1:
            live = c.any(axis=2)
            if np.count_nonzero(live) > n:
                return None
            k += int(live.argmax(axis=0).sum())
        det = _pivot_det((c[0] if len(c) == 1 else c.sum(axis=0)).tolist())
        if math.isfinite(math.hypot(det.real, det.imag)):
            # + 0j stores a zero part as +0, as the LaurentPoly constructor does
            self._det = k, det + 0j
            return self._det
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
            self._det = self.n * self._lo, det + 0j
        return self

    def inverse_monomial_det(self) -> "LaurentMatrix":
        """Inverse over the Laurent ring; requires det to be a monomial.

        Entry (i, j) is a cofactor that omits row j, divided by det =
        c u^k, so its support lies in [sum(lows) - max(lows) - k,
        sum(highs) - min(highs) - k]; the samples are inverted in one
        batch.  det is read from _monomial_det's pair when it is nonzero
        and carried, else taken by det(), whose sampled window reuses
        the row extremes that the inverse's window is read from.

        The inverse carries (-k, 1/c) when 1/c has a finite, nonzero
        modulus and the prune moved its det by about 1e-9 of itself at
        most.  With D the coefficients the prune dropped and |X| the
        n x n matrix sum_k |X_k| of entrywise moduli, |A(u) D(u)| <=
        |A| |D| entrywise on the circle, so det(A S) for the stored
        inverse S moves from 1 by about n times the sum of the entries
        of |A| |D| at most.  Past 1e-9, as when the prune drops a unit
        entry of an inverse whose coefficients span 1e12 or more,
        nothing is carried, and the check and det() judge S as stored.
        """
        mono, ext = self._monomial_det(), self._row_extremes()
        if self._det is None or not mono[1]:
            det = self._sampled_det(ext) if mono is None else self.det()
            mono = det.is_monomial()
            if mono is None:
                raise NotInvertibleInRing(
                    f"det = {det} is not a monomial, so the matrix has no inverse with Laurent entries"
                )
        k, c = mono
        lows, highs = ext
        lo = int(lows.sum() - lows.max()) - k
        hi = int(highs.sum() - highs.min()) - k
        samples = self._sampled(lo, hi, np.linalg.inv)
        inv = LaurentMatrix._pruned(lo, samples)
        # the dropped coefficients D: samples less inv's window, whose
        # entries are the samples' or 0
        dropped = samples.copy()
        at = inv._lo - lo
        dropped[at:at + len(inv._c)] -= inv._c
        # n times the sum of the entries of |A| |D|: n sum_(w, j, l) a_j |D_wjl|, a_j = sum_(k, i) |A_kij|
        n = self.n
        moved = n * float((np.abs(dropped) * np.abs(self._c).reshape(-1, n).sum(axis=0)[:, None]).sum())
        if moved <= 1e-9:
            inv._det = _unit_det(-k, 1 / c)
        return inv

    # -- io and display -----------------------------------------------------

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows())
        return f"LaurentMatrix[{body}]"


def _unit_det(k: int, det: complex) -> Optional[tuple[int, complex]]:
    """The det pair (k, det) to carry when det has a finite, nonzero
    modulus, its zero parts stored as +0 as _one_point_det stores them;
    else None."""
    return (k, det + 0j) if 0.0 < math.hypot(det.real, det.imag) < math.inf else None


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


def _kept_tables(size: Callable[..., int]) -> Callable:
    """Decorator for a function that builds an array, or a tuple of
    arrays, of constants from the integers of a shape.  When ``size`` of
    the shape is at most TABLE_CAP elements, the arrays are built once,
    made read-only and kept in a functools.lru_cache of TABLES_KEPT
    shapes; a larger shape is built on each call and not kept, so it
    never pins memory.  The wrapper has the cache's cache_info."""

    def wrap(build: Callable) -> Callable:
        @functools.lru_cache(maxsize=TABLES_KEPT)
        def kept(*shape):
            tables = build(*shape)
            for t in tables if isinstance(tables, tuple) else (tables,):
                t.flags.writeable = False
            return tables

        @functools.wraps(build)
        def table(*shape):
            return kept(*shape) if size(*shape) <= TABLE_CAP else build(*shape)

        table.cache_info = kept.cache_info
        return table

    return wrap


@_kept_tables(lambda width, lo, k: width * k)
def _root_table(width: int, lo: int, k: int) -> np.ndarray:
    """exp(2 pi i (t e mod width) / width) for the roots t < width and
    the exponents e = lo .. lo + k - 1, shape (width, k)."""
    exps = (np.arange(width)[:, None] * np.arange(lo, lo + k)) % width
    return np.exp((2j * np.pi / width) * exps)


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
    shape (Ka + Kb - 1, n, n), or (0, n, n) when either is zero.  b is
    copied between Ka - 1 zero slices on each side, and _window_product
    multiplies a's reversed flat slices into its windows; nothing is
    pruned.  Run under np.errstate(over="ignore", invalid="ignore")."""
    ka, n, _ = a.shape
    kb = len(b)
    if not ka or not kb:
        return np.zeros((0, n, n), dtype=complex)
    padded = np.zeros((kb + 2 * (ka - 1), n, n), dtype=complex)
    padded[ka - 1:ka - 1 + kb] = b
    out = np.empty((ka + kb - 1, n, n), dtype=complex)
    _window_product(_reversed_flat(a), padded, out)
    return out


def _reversed_flat(a: np.ndarray) -> np.ndarray:
    """The slices a[K-1], ..., a[0] of a (K, n, n) array side by side,
    shape (n, K n); one (count, K, n, n) stack gives (count, n, K n)."""
    *lead, k, n, _ = a.shape
    return a[..., ::-1, :, :].swapaxes(-3, -2).reshape(*lead, n, k * n)


def _window_product(flat: np.ndarray, padded: np.ndarray, out: np.ndarray) -> None:
    """The product kernel: out[w] = sum_i a[i] b[w - i] for the (K, n, n)
    array a whose _reversed_flat is ``flat`` and the array b stored
    between K - 1 zero slices on each side in ``padded``, a contiguous
    array of len(out) + K - 1 slices.  The Toeplitz windows padded[w:w +
    K] of all w are one strided view of shape (len(out), K n, n), no
    copy, as a slice's stride is n times a row's, and one stacked matmul
    multiplies flat into each of them.  The result is checked with
    _check_moduli.  Run under np.errstate(over="ignore", invalid="ignore")."""
    windows = np.ndarray((len(out), flat.shape[1], out.shape[2]), complex, padded, 0, padded.strides)
    np.matmul(flat, windows, out)
    _check_moduli(out)


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
    Gaussian elimination with partial pivoting; overwrites the rows of
    ``m``, each its own list.  A step updates only the columns past its
    pivot's: later steps read no column up to it, and the fallback below
    reads only the pivots m[k][k].  A
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
        # the pivot row's tail, sliced once a row below needs it: none
        # does in a triangular matrix
        tail = None
        for row in m[k + 1:]:
            f = row[k]
            if f:
                if tail is None:
                    tail = m[k][k + 1:]
                f /= piv
                row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], tail)]
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
    return LaurentMatrix._from_coeffs(lo, out)


def _companion(a: LaurentMatrix, r: int) -> LaurentMatrix:
    """isogeny.companion_block(a, r) for r >= 2, carrying the det
    (k, (-1)^((r-1) n) c) when the n x n matrix a carries (k, c).  For a
    triangular a, elimination takes a's diagonal and then ones as
    pivots, with a sign change at each row swap; that differs from the
    sign times c at most in the sign of a zero part, which + 0j stores
    as +0, so the det is det()'s bit for bit.  For other a it is det()
    up to rounding."""
    n, k, size = a.n, len(a._c), r * a.n
    # a zero a has _lo = 0 and K = 0, so it adds nothing to the window
    lo, hi = min(0, a._lo), max(1, a._lo + k)
    _check_budget("exponent", hi - lo, size * size)
    out = np.zeros((hi - lo, size, size), dtype=complex)
    # the ones (i, i + n), i < (r-1) n, at the flat indices n + i (rn + 1)
    out[-lo].reshape(-1)[n:(r - 1) * n * (size + 1):size + 1] = 1
    out[a._lo - lo:a._lo - lo + k, -n:, :n] = a._c
    m = LaurentMatrix._from_coeffs(lo, out)
    if a._det is not None:
        m._det = a._det[0], (-1) ** ((r - 1) * n) * a._det[1] + 0j
    return m


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
    0 < |c| < inf ("|det A(1)| = 0"), when _monomial_det gives det as
    the pair (k, c): when mat carries it, as normal forms, their
    companions and the inverses of monomial det matrices do, or when each
    row holds one exponent, where it takes det()'s elimination.
    """
    point = mat._monomial_det()
    if point is not None:
        det = math.hypot(point[1].real, point[1].imag)
        return None if 0.0 < det < math.inf else f"|det {name}(1)| = {det:.3g}"
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
    """The LaurentPoly of a JSON term list, read as LaurentPoly reads a
    mapping: exponents must be integers, repeated ones summed and checked."""
    return _unchecked_poly(_finite_terms([(_integer_from_json(t["k"], "exponent"),
                                           complex(float(t["re"]), float(t["im"]))) for t in terms]))


def matrix_to_json(mat: LaurentMatrix) -> dict:
    """Size n and the entries' term lists, row by row, from rows() and terms()."""
    return {"n": mat.n, "entries": [terms_to_json(e.terms()) for row in mat.rows() for e in row]}


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
    return LaurentMatrix([polys[i * n:(i + 1) * n] for i in range(n)])
