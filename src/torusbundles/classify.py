"""Normal forms and discrete invariants of bundles on C*/<q>.

Every indecomposable bundle of rank r and degree d is, up to a point of
the torus, a twist of a unipotent bundle: writing h = gcd(r, d), the
normal form is the block cyclic matrix built from the h x h Jordan block
A_h(a) scaled by the d/h-th power of the degree one line factor

    phi0(u) = s^(-1) u^(-1),        s = exp(pi i tau).

The degree of a factor is minus the winding number of its determinant
around the unit circle; for a monomial determinant c u^k that is -k, so
phi0 itself has degree one.  Parameters a live on the torus itself and
are stored as the canonical representative in the annulus |q| < |a| <= 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .laurent import (
    DetVanishesOnCstar,
    LaurentMatrix,
    LaurentPoly,
    Torus,
    _check_integer,
    _integer_from_json,
)
from .cocycle import FactorOfAutomorphy, _is_triangular, _walk_powers
from .isogeny import IsogenyContext, companion_block, pushforward

__all__ = [
    "BundleDescriptor",
    "reduce_param",
    "jordan_factor_matrix",
    "phi0",
    "normal_form_deg0",
    "normal_form",
    "atiyah_construct",
    "degree",
    "rank",
    "recognize_deg0",
    "descriptor_to_json",
    "descriptor_from_json",
]


@dataclass(frozen=True)
class BundleDescriptor:
    """Discrete classification data: rank, degree, and the torus point
    parametrizing the determinant, stored as its canonical annulus
    representative."""

    rank: int
    degree: int
    param: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", _check_integer(self.rank, "rank must be a positive integer", 1))
        object.__setattr__(self, "degree", _check_integer(self.degree, "degree must be an integer"))
        if complex(self.param) == 0:
            raise ValueError("param must be a nonzero complex number")
        object.__setattr__(self, "param", complex(self.param))


def descriptor_to_json(d: BundleDescriptor) -> dict:
    return {"rank": d.rank, "degree": d.degree, "param": [d.param.real, d.param.imag]}


def descriptor_from_json(data: dict) -> BundleDescriptor:
    re, im = data["param"]
    return BundleDescriptor(*(_integer_from_json(data[k], k) for k in ("rank", "degree")), complex(float(re), float(im)))


def reduce_param(t: Torus, a: complex, max_power: Optional[int] = None) -> complex:
    """Canonical representative of a mod <q> in the annulus |q| < |a| <= 1.

    Points with |a| exactly on the boundary |q|^m are resolved upward, so
    |a| = |q| maps to modulus one.  The reduction is a group homomorphism
    C* -> annulus up to the identification by <q>.
    """
    a = complex(a)
    if a == 0:
        raise ValueError("param must be nonzero")
    q = t.q
    ratio = math.log(abs(a)) / math.log(abs(q))
    m = math.ceil(-ratio - 1e-9)
    out = a * q ** m
    while abs(out) > 1.0 + 1e-9:
        m += 1
        out = a * q ** m
    while abs(out) <= abs(q) * (1.0 + 1e-9):
        m -= 1
        out = a * q ** m
    if max_power is not None and abs(m) > max_power:
        raise ValueError(f"reduction exponent {m} exceeds the allowed range {max_power}")
    return out


def _jordan_block(r: int, a: complex) -> np.ndarray:
    """The r x r array of A_r(a): a + 0j on the diagonal, which stores a
    zero part as +0, and 1 above it, written into one zeroed array.  An
    a whose modulus is not finite raises ValueError."""
    a = complex(a) + 0j
    if not math.hypot(a.real, a.imag) < math.inf:
        raise ValueError(f"non-finite coefficient in a {r} x {r} matrix")
    out = np.zeros(r * r, dtype=complex)
    out[::r + 1], out[1::r + 1] = a, 1
    return out.reshape(r, r)


def jordan_factor_matrix(r: int, a: complex) -> LaurentMatrix:
    """The constant Jordan block A_r(a): a on the diagonal, 1 above it.
    An a whose modulus is not finite raises ValueError."""
    r = _check_integer(r, "need r >= 1", 1)
    return LaurentMatrix._from_coeffs(0, _jordan_block(r, a)[None])


def phi0(t: Torus) -> LaurentPoly:
    """The degree one line bundle factor s^(-1) u^(-1)."""
    return LaurentPoly.monomial(-1, t.s ** -1)


def normal_form_deg0(t: Torus, r: int, a: complex) -> FactorOfAutomorphy:
    """Degree zero indecomposable of rank r and parameter a: the constant
    factor A_r(a), which is normal_form(t, r, 0, a)."""
    return normal_form(t, r, 0, a)


def _twisted_core(t: Torus, r: int, d: int, a: complex) -> tuple[int, LaurentMatrix]:
    """Validate (r, d, a) and split off h = gcd(r, d) (h = r when d = 0):
    returns r' = r/h and the twisted Jordan core phi0^d' A_h(a), d' = d/h,
    which carries its det, the monomial (s^-d' a)^h u^(-d' h).  It is one
    exact, so unpruned, array c A_h(a) + 0 at exponent -d', c = 0j + s^-d',
    bit for bit A_h(a) scaled by the polynomial phi0^d'.  A power s^-d',
    a coefficient or a det past the double range raises ValueError, a det
    with h (log10 |a| - d' log10 |s|), log10 |s| = -pi Im(tau) / ln 10."""
    r = _check_integer(r, "rank must be a positive integer", 1)
    d = _check_integer(d, "degree must be an integer")
    a = complex(a)
    if a == 0:
        raise ValueError("param must be nonzero")
    h = math.gcd(r, abs(d)) if d != 0 else r
    try:
        c = 0j + t.s ** -(d // h)
    except ArithmeticError:  # s^d' underflows to 0, or s^-d' overflows
        raise ValueError(f"twist s^-d' is past the double range: d' = {d // h}, |s| = {abs(t.s):.6g}") from None
    # the exact product's entries c a, c and 0 are finite when c a and c are
    ca = c * a
    if not max(math.hypot(c.real, c.imag), math.hypot(ca.real, ca.imag)) < math.inf:
        raise ValueError(f"non-finite coefficient in a {h} x {h} matrix")
    core = LaurentMatrix._from_coeffs(-(d // h), c * _jordan_block(h, a)[None] + 0)._carry_triangular_det()
    if core._det is None or not core._det[1]:  # the det overflows, or underflows to 0
        log_det = h * (math.log10(math.hypot(a.real, a.imag)) + (d // h) * math.pi * t.tau.imag / math.log(10))
        raise ValueError(f"det of the twisted core phi0^{d // h} A_{h}(a) is past the double range: "
                         f"log10 |det| = {log_det:.1f}")
    return r // h, core


def normal_form(t: Torus, r: int, d: int, a: complex) -> FactorOfAutomorphy:
    """Indecomposable of rank r, degree d, parameter a != 0.

    With h = gcd(r, d) (h = r when d = 0), r' = r/h, d' = d/h the
    generator is the block cyclic matrix [[0, I], [G, 0]] on blocks of
    size h, with G = phi0^d' A_h(a); for r' = 1 it is G itself.
    """
    rp, core = _twisted_core(t, r, d, a)
    return FactorOfAutomorphy(t, companion_block(core, rp))


def atiyah_construct(t: Torus, r: int, d: int, a: complex) -> FactorOfAutomorphy:
    """The same bundle as normal_form, built through the isogeny: the
    twisted Jordan factor lives on the degree r' cover and is pushed
    forward to the base."""
    rp, core = _twisted_core(t, r, d, a)
    ctx = IsogenyContext.for_degree(t, rp)
    return pushforward(ctx, FactorOfAutomorphy(ctx.cover, core))


def rank(f: FactorOfAutomorphy) -> int:
    return f.rank


def degree(f: FactorOfAutomorphy) -> int:
    """Minus the winding number of det A around the unit circle.

    A monomial determinant c u^k gives -k directly: read from the pair
    (k, c) of LaurentMatrix._monomial_det when 0 < |c| < inf, without
    building a polynomial, else from det().  Otherwise the winding
    number is the count of roots inside the unit circle plus the order
    at zero; roots with modulus in [1e-6, 1e6] are treated as lying on
    C* and raise DetVanishesOnCstar, since then the degree is not
    defined.
    """
    point = f.A._monomial_det()
    if point is not None and 0.0 < math.hypot(point[1].real, point[1].imag) < math.inf:
        return -point[0]
    det = f.A.det()
    if det.is_zero:
        raise DetVanishesOnCstar("determinant is identically zero")
    mono = det.is_monomial()
    if mono is not None:
        return -mono[0]
    coeffs = dict(det.terms())
    lo = min(coeffs)
    roots = np.roots([coeffs.get(k, 0j) for k in range(max(coeffs), lo - 1, -1)])
    bad = [z for z in roots if 1e-6 <= abs(z) <= 1e6]
    if bad:
        raise DetVanishesOnCstar(
            f"determinant has roots at modulus {[abs(z) for z in bad]} in the working annulus"
        )
    inside = sum(1 for z in roots if abs(z) < 1.0)
    return -(lo + inside)


def recognize_deg0(f: FactorOfAutomorphy, nu_range: int = 64) -> Optional[BundleDescriptor]:
    """Invert normal_form_deg0 up to the torus identification.

    Accepts constant triangular generators; returns the descriptor
    (rank, 0, canonical parameter) when the matrix is a single Jordan
    block at one eigenvalue, None when the Jordan type does not match.
    nu_range, a non-negative integer, bounds the power of q allowed in
    the parameter reduction.
    """
    nu_range = _check_integer(nu_range, "nu_range must be a non-negative integer", 0)
    if not f.A.is_constant():
        raise ValueError("recognition needs a constant generator")
    m = f.A.constant_matrix()
    if not _is_triangular(m):
        raise ValueError("recognition needs a triangular generator")
    n = f.A.n
    diag = np.diag(m)
    lam = complex(diag[0])
    if any(abs(v - lam) > 1e-8 * (1.0 + abs(lam)) for v in diag):
        return None
    if _walk_powers(m, lam, n).partition != (n,):
        return None
    return BundleDescriptor(n, 0, reduce_param(f.torus, lam, max_power=nu_range))
