"""Complex tori as multiplicative quotients, and Laurent polynomial matrices.

A torus is the quotient C*/<q> of the punctured plane by the cyclic group
generated by the nome q = exp(2*pi*i*tau), with tau in the upper half
plane.  Vector bundles on the quotient are described elsewhere in this
package by matrix valued generators A(u); here we provide the coefficient
ring those generators live in.

Entries are Laurent polynomials in one variable u: exact integer
exponents, double precision complex coefficients.  After every arithmetic
operation coefficients smaller than ``PRUNE_REL`` times the largest one
(taken over the whole matrix, for matrix operations) are dropped, so
supports stay finite and exactly representable.

A scalar is a LaurentPoly, a dict from exponent to coefficient.  A
LaurentMatrix is its lowest exponent plus one dense complex array of
shape (K, n, n), coefficient slices of consecutive exponents: products
loop over the K shifts of a batched matrix product, and substitution
u -> c u multiplies by the weights c^k.

det, the inverse of a monomial det matrix and the symmetric and exterior
powers take one path, LaurentMatrix._sampled: evaluate at the roots of
unity of a support window known in advance, apply a batched numeric map
to all samples, and interpolate by an inverse FFT.  A one-point window
takes no FFT and stays exact.  SAMPLE_BUDGET caps a window's size.
"""

from __future__ import annotations

import cmath
import math
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

#: most elements a root table (window width x exponents) or a stack of
#: samples (window width x n^2) may hold; wider windows raise ValueError
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


def same_torus(t1: Torus, t2: Torus, tol: float = 1e-12) -> bool:
    return abs(t1.tau - t2.tau) <= tol * (1.0 + abs(t1.tau))


def _require_same_torus(t1: Torus, t2: Torus) -> None:
    if not same_torus(t1, t2):
        raise ValueError(f"torus mismatch: tau={t1.tau!r} vs tau={t2.tau!r}")


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """A Laurent polynomial sum_k c_k u^k with finite support.

    Stored as a dict from integer exponent to complex coefficient.
    Construction prunes coefficients below ``PRUNE_REL`` times the largest
    one (or below an explicit absolute ``threshold``) and rejects
    non-finite values.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[Mapping[int, complex]] = None, threshold: Optional[float] = None):
        c: dict[int, complex] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not isinstance(k, (int, np.integer)):
                    raise TypeError(f"exponent must be an integer, got {k!r}")
                v = complex(v)
                if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                    raise ValueError(f"non-finite coefficient {v!r} at exponent {k}")
                if v != 0:
                    c[int(k)] = c.get(int(k), 0j) + v
        if c:
            if threshold is None:
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

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0j) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: -v for k, v in self._c.items()}
        return out

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return LaurentPoly({k: v * other for k, v in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._c or not other._c:
            return LaurentPoly.zero()
        la, va = self._dense()
        lb, vb = other._dense()
        conv = np.convolve(va, vb)
        return LaurentPoly({la + lb + i: c for i, c in enumerate(conv) if c != 0})

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if not isinstance(m, (int, np.integer)):
            return NotImplemented
        if m < 0:
            mono = self.is_monomial()
            if mono is None:
                raise NotInvertibleInRing(f"negative power of a non-monomial: {self}")
            k, c = mono
            return LaurentPoly.monomial(k * int(m), c ** int(m))
        out = LaurentPoly.one()
        for _ in range(int(m)):
            out = out * self
        return out

    def substitute_scaled(self, c: complex) -> "LaurentPoly":
        """Substitute u -> c*u for nonzero c, mapping u^k to c^k u^k.

        No pruning happens here: rescaling cannot introduce roundoff
        junk, and with |c| far from 1 the spread of the c^k weights
        would otherwise push genuinely meaningful coefficients below a
        relative cutoff tied to the largest one.
        """
        c = complex(c)
        if c == 0:
            raise ValueError("substitution scale must be nonzero")
        return LaurentPoly({k: v * c ** k for k, v in self._c.items()}, threshold=0.0)

    def __call__(self, u0: complex) -> complex:
        return sum((v * complex(u0) ** k for k, v in self._c.items()), 0j)

    # -- misc ---------------------------------------------------------------

    def _dense(self) -> tuple[int, np.ndarray]:
        lo = min(self._c)
        hi = max(self._c)
        arr = np.zeros(hi - lo + 1, dtype=complex)
        for k, v in self._c.items():
            arr[k - lo] = v
        return lo, arr

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


def poly_close(a: LaurentPoly, b: LaurentPoly, tol: float = CLOSE_TOL) -> bool:
    """Compare coefficientwise, to tol * (1 + largest input coefficient)."""
    scale = 1.0 + max(a.max_coeff(), b.max_coeff())
    return (a - b).max_coeff() <= tol * scale


# ---------------------------------------------------------------------------
# Laurent polynomial matrices
# ---------------------------------------------------------------------------


def _poly_from_values(lo: int, values: Sequence[complex]) -> LaurentPoly:
    """The polynomial sum_k values[k] u^(lo + k), zeros dropped, no pruning."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._c = {lo + k: v for k, v in enumerate(values) if v}
    return p


class LaurentMatrix:
    """A square matrix with LaurentPoly entries.

    Stored as the lowest exponent ``lo`` and one complex array of shape
    (K, n, n) whose slice k holds the coefficients of u^(lo + k); the
    first and last slices are nonzero, and the zero matrix has K = 0.
    Treated as immutable; all operations return new matrices.  Matrix
    level operations prune coefficients relative to the largest
    coefficient of the whole result, not entry by entry.
    """

    __slots__ = ("_lo", "_c", "_det")

    def __init__(self, rows: Sequence[Sequence], prune: bool = True):
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        entries = []
        for row in rows:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in size {n}")
            entries.append([self._coerce(e) for e in row])
        exps = [k for row in entries for p in row for k in p._c]
        lo = min(exps, default=0)
        c = np.zeros((max(exps, default=lo - 1) - lo + 1, n, n), dtype=complex)
        for i, row in enumerate(entries):
            for j, p in enumerate(row):
                for k, v in p._c.items():
                    c[k - lo, i, j] = v
        self._set(lo, c, prune)

    def _set(self, lo: int, c: np.ndarray, prune: bool) -> None:
        n = c.shape[1]
        if prune and c.size:
            mag = np.abs(c)
            top = float(mag.max())
            if not math.isfinite(top):
                raise ValueError(f"non-finite coefficient in a {n} x {n} matrix")
            c = np.where(mag > PRUNE_REL * top, c, 0)
        live = np.flatnonzero(c.reshape(len(c), n * n).any(axis=1))
        if live.size == 0:
            lo, c = 0, c[:0]
        else:
            lo, c = lo + int(live[0]), c[live[0]:live[-1] + 1]
        self._lo = lo
        self._c = c
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
        n = len(entries)
        rows = [[cls._coerce(entries[i]) if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
        return cls(rows, prune=False)

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
        self._check_size(other)
        lo = min(self._lo, other._lo)
        hi = max(self._lo + len(self._c), other._lo + len(other._c))
        out = np.zeros((hi - lo, self.n, self.n), dtype=complex)
        out[self._lo - lo:self._lo - lo + len(self._c)] += self._c
        out[other._lo - lo:other._lo - lo + len(other._c)] += sign * other._c
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
        a, b = self._c, other._c
        if not len(a) or not len(b):
            return LaurentMatrix.zeros(self.n)
        out = np.zeros((len(a) + len(b) - 1, self.n, self.n), dtype=complex)
        # one batched product per shift of the shorter factor
        if len(a) <= len(b):
            for i in range(len(a)):
                out[i:i + len(b)] += a[i] @ b
        else:
            for j in range(len(b)):
                out[j:j + len(a)] += a @ b[j]
        return LaurentMatrix._from_coeffs(self._lo + other._lo, out)

    def scaled(self, factor) -> "LaurentMatrix":
        """Multiply every entry by a scalar or a LaurentPoly."""
        mono = self._coerce(factor).is_monomial()
        if mono is None:
            return LaurentMatrix([[factor]]).kron(self)
        # c u^k only shifts the exponents; adding 0 turns the signed zeros
        # the product can leave into +0, as the sum in kron does
        k, c = mono
        return LaurentMatrix._from_coeffs(self._lo + k, c * self._c + 0)

    def substitute_scaled(self, c: complex) -> "LaurentMatrix":
        """Substitute u -> c*u for nonzero c, mapping u^k to c^k u^k.

        No pruning, as for LaurentPoly.substitute_scaled.  The weights
        c^k are Python powers, which raise OverflowError past the double
        range; a coefficient that overflows in the product raises
        ValueError.
        """
        c = complex(c)
        if c == 0:
            raise ValueError("substitution scale must be nonzero")
        weights = np.array([c ** k for k in range(self._lo, self._lo + len(self._c))], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._c * weights[:, None, None]
        if not np.isfinite(out).all():
            raise ValueError(f"non-finite coefficient after substituting u -> {c} u")
        return LaurentMatrix._from_coeffs(self._lo, out, prune=False)

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
        for i in range(len(a)):
            block = a[i][None, :, None, :, None] * b[:, None, :, None, :]
            out[i:i + len(b)] += block.reshape(len(b), n * m, n * m)
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

    def _at_roots(self, width: int) -> np.ndarray:
        """Values at the roots of unity exp(2 pi i t / width), shape
        (width, n, n); the one root of a one-point window is u = 1, where
        the value is the sum of the coefficient slices."""
        if width == 1:
            return self._c.sum(axis=0)[None]
        k, n = len(self._c), self.n
        exps = (np.arange(width)[:, None] * np.arange(self._lo, self._lo + k)) % width
        w = np.exp((2j * np.pi / width) * exps)
        return (w @ self._c.reshape(k, n * n)).reshape(width, n, n)

    def _sampled(self, lo: int, hi: int, apply: Callable[[np.ndarray], np.ndarray], size: int = 0) -> np.ndarray:
        """Coefficients of u^lo .. u^hi, along axis 0, of a function of
        this matrix whose support lies in that window: ``apply`` maps the
        samples at the W = hi - lo + 1 roots of unity, shape (W, n, n),
        to the function's values in one batch, and an inverse FFT
        recovers the coefficients.  A one-point window takes no FFT, so
        an exact ``apply`` gives exact coefficients.  Overflow gives inf
        or nan, without a numpy warning, for the result's constructor to
        reject.  A root table (W x K), samples (W x n^2) or ``size``
        elements per sample of ``apply`` past SAMPLE_BUDGET raise
        ValueError before anything is allocated.
        """
        width = hi - lo + 1
        need = width * max(len(self._c), self.n ** 2, size)
        if need > SAMPLE_BUDGET:
            raise ValueError(
                f"sampling window of width {width} needs {need} elements, "
                f"more than SAMPLE_BUDGET = {SAMPLE_BUDGET}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            vals = apply(self._at_roots(width))
            if width == 1:
                return vals
            return (np.fft.fft(vals, axis=0) / width)[(lo + np.arange(width)) % width]

    def det(self) -> LaurentPoly:
        """Determinant as a LaurentPoly.

        The support of det lies in the window between the sums of the
        rows' lowest and highest exponents, and det is sampled on it,
        one batched determinant for all samples.  It is identically zero
        only when every sample is exactly 0.  A one point window means
        one exponent e_i per row, A(u) = diag(u^e_i) A(1), and det is
        det A(1) u^(sum e_i), taken by elimination.
        """
        if self._det is None:
            ext = self._row_extremes()
            if ext is None:
                self._det = LaurentPoly.zero()
            else:
                lo, hi = int(ext[0].sum()), int(ext[1].sum())
                if lo == hi:
                    self._det = LaurentPoly({lo: _pivot_det(self._c.sum(axis=0).tolist())})
                else:
                    # non-finite samples are left to LaurentPoly to reject
                    coeffs = self._sampled(lo, hi, _sample_dets).tolist()
                    self._det = LaurentPoly(dict(zip(range(lo, hi + 1), coeffs)))
        return self._det

    def inverse_monomial_det(self) -> "LaurentMatrix":
        """Inverse over the Laurent ring; requires det to be a monomial.

        Entry (i, j) is a cofactor that omits row j, divided by det =
        c u^k, so its support lies in [sum(lows) - max(lows) - k,
        sum(highs) - min(highs) - k]; the samples are inverted in one
        batch.
        """
        mono = self.det().is_monomial()
        if mono is None:
            raise NotInvertibleInRing(
                f"det = {self.det()} is not a monomial, so the matrix has no inverse with Laurent entries"
            )
        lows, highs = self._row_extremes()
        lo = int(lows.sum() - lows.max()) - mono[0]
        hi = int(highs.sum() - highs.min()) - mono[0]
        return LaurentMatrix._from_coeffs(lo, self._sampled(lo, hi, np.linalg.inv))

    # -- io and display -----------------------------------------------------

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows())
        return f"LaurentMatrix[{body}]"


def _pivot_det(m: list[list[complex]]) -> complex:
    """Determinant of one sample, the signed product of the pivots of
    Gaussian elimination with partial pivoting; overwrites ``m``.  A
    pivot of exactly 0 makes the determinant exactly 0."""
    n = len(m)
    det = 1.0 + 0j
    for k in range(n):
        col = [abs(row[k]) for row in m[k:]]
        p = k + col.index(max(col))
        piv = m[p][k]
        if piv == 0:
            return 0j
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= piv
        top = m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            if f:
                f /= piv
                m[i] = [x - f * y for x, y in zip(m[i], top)]
    return det


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
    """Entrywise coefficient comparison, to tol * (1 + largest input coefficient)."""
    if a.n != b.n:
        return False
    scale = 1.0 + max(a.max_coeff(), b.max_coeff())
    return (a - b).max_coeff() <= tol * scale


def _assemble(total: int, parts: Sequence[tuple[int, int, LaurentMatrix]]) -> LaurentMatrix:
    """A total x total matrix holding each (row, col, block) of ``parts``
    with its top left corner at (row, col), zero elsewhere; no pruning."""
    live = [(r, c, b) for r, c, b in parts if len(b._c)]
    lo = min((b._lo for _, _, b in live), default=0)
    hi = max((b._lo + len(b._c) for _, _, b in live), default=lo)
    out = np.zeros((hi - lo, total, total), dtype=complex)
    for r, c, b in live:
        out[b._lo - lo:b._lo - lo + len(b._c), r:r + b.n, c:c + b.n] = b._c
    return LaurentMatrix._from_coeffs(lo, out, prune=False)


def block_diagonal(blocks: Sequence[LaurentMatrix]) -> LaurentMatrix:
    if not blocks:
        raise ValueError("need at least one block")
    offsets = np.cumsum([0] + [b.n for b in blocks]).tolist()
    return _assemble(offsets[-1], [(off, off, b) for off, b in zip(offsets, blocks)])


def _sampled_abs_dets(mat: LaurentMatrix):
    """|det mat| where passes_sampled_invertibility judges it: one scalar,
    |det mat(1)|, when every row holds one exponent, else an array over
    the INVERTIBILITY_SAMPLES roots of unity.  An overflowed or invalid
    det reads inf or nan, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        # at most n live (exponent, row) pairs: one exponent per row, or a
        # zero row, where det mat(1) is exactly 0 as every sample would be
        if np.count_nonzero(mat._c.any(axis=2)) <= mat.n:
            return abs(np.linalg.det(mat._c.sum(axis=0)))
        return np.abs(np.linalg.det(mat._at_roots(INVERTIBILITY_SAMPLES)))


def passes_sampled_invertibility(mat: LaurentMatrix) -> bool:
    """Necessary condition for invertibility of u -> mat(u) on C*.

    Takes the determinants of mat at INVERTIBILITY_SAMPLES equally spaced
    points of the unit circle and flags matrices whose determinant is
    zero, infinite or nan there, or degenerates by more than nine orders
    of magnitude between sample points.  Scale free, so tiny but honest
    determinants (for instance high powers of q) pass.

    When every row of mat holds a single exponent e_i (block companions,
    their isogeny translates), mat(u) = diag(u^e_i) mat(1) and |det| is
    constant on the circle, so the criterion is one determinant:
    0 < |det mat(1)| < inf.
    """
    dets = _sampled_abs_dets(mat)
    if dets.ndim == 0:
        return bool(0.0 < dets < math.inf)
    top = dets.max()
    return bool(top > 0.0 and dets.min() > 1e-9 * top)


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
