"""Theta functions with characteristics and their automorphy factors.

For a characteristic xi = a*tau + b the series

    theta_xi(z) = sum_n exp(pi i (n+a)^2 tau) exp(2 pi i (n+a)(z+b))

converges for Im tau > 0 and transforms under lattice translations
z -> z + p*tau + n by the scalar factor

    e_xi(p*tau + n, z) = exp(2 pi i a (p*tau + n) - pi i p^2 tau
                             - 2 pi i p (z + xi)).

For xi = 0 and p = 1, n = 0 this factor is exp(-pi i tau - 2 pi i z),
the value of the degree one line factor phi0 at u = exp(2 pi i z); that
bridge ties the additive theta picture to the multiplicative factors
used elsewhere in the package.  theta_xi vanishes exactly on the lattice
translates of 1/2 + tau/2 - xi (for xi = 0 and half characteristics the
sign of xi does not matter modulo the lattice).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .laurent import Torus, _check_budget, _check_integer

__all__ = [
    "ThetaCharacteristic",
    "ThetaReport",
    "theta_eval",
    "e_factor",
    "theta_zero",
    "verify_theta_function",
]

#: verify_theta_function checks the lattice shifts p*tau + n with |p|, |n| <= SHIFT_RANGE
SHIFT_RANGE = 2


@dataclass(frozen=True)
class ThetaCharacteristic:
    """The pair (a, b) encoding the characteristic xi = a*tau + b."""

    a: float = 0.0
    b: float = 0.0

    def value(self, t: Torus) -> complex:
        return self.a * t.tau + self.b


@dataclass(frozen=True)
class ThetaReport:
    """Outcome of a sampled functional equation check."""

    max_residual: float
    samples: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {"max_residual": self.max_residual, "samples": self.samples, "pass": self.passed}


def theta_eval(t: Torus, xi: ThetaCharacteristic, z: complex, terms: int = 40) -> complex:
    """Truncated theta series, summing n from -terms to terms.

    The tail drops off like exp(-pi Im(tau) n^2), so the default 40 terms
    is far below double precision for any modulus of interest.  The
    terms are summed in one numpy expression; a term or a sum past the
    double range raises OverflowError, and more than SAMPLE_BUDGET terms
    ValueError, before anything is allocated.  ``terms`` must be a
    positive integer, not a bool; else ValueError.
    """
    terms = _check_integer(terms, "terms must be positive", 1)
    _check_budget("theta series", 2 * terms + 1, 1)
    na = np.arange(-terms, terms + 1) + xi.a
    zb = complex(z) + xi.b
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(np.exp(1j * np.pi * na * na * t.tau + 2j * np.pi * na * zb).sum())
    if not cmath.isfinite(total):
        raise OverflowError(f"theta series is not finite at z = {complex(z)}")
    return total


def e_factor(t: Torus, xi: ThetaCharacteristic, p: int, n: int, z: complex) -> complex:
    """Automorphy factor of theta_xi for the lattice shift p*tau + n."""
    gamma = p * t.tau + n
    xival = xi.value(t)
    return cmath.exp(
        2j * cmath.pi * xi.a * gamma
        - 1j * cmath.pi * p * p * t.tau
        - 2j * cmath.pi * p * (complex(z) + xival)
    )


def theta_zero(t: Torus, xi: ThetaCharacteristic, m: int = 0, n: int = 0) -> complex:
    """The zero 1/2 + tau/2 - xi shifted by the lattice point m + n*tau.

    theta_xi(z) equals exp(pi i a^2 tau + 2 pi i a (z+b)) times
    theta_0(z + xi), so its zeros are the zeros of theta_0 moved by -xi.
    """
    return 0.5 + 0.5 * t.tau - xi.value(t) + m + n * t.tau


def verify_theta_function(
    t: Torus,
    f: Callable[[int, int, complex], complex],
    s: Callable[[complex], complex],
    samples: int,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 1e-9,
) -> ThetaReport:
    """Sample the functional equation s(z + gamma) = f(p, n, z) s(z).

    Draws ``samples`` points z = alpha + beta*tau with alpha, beta
    uniform in [0.05, 0.95] and checks every lattice shift gamma =
    p*tau + n with |p|, |n| <= SHIFT_RANGE.  Residuals are scaled by
    1 + the magnitude of the compared values, since the raw values vary
    over dozens of orders of magnitude with p.  ``samples`` must be a
    positive integer, not a bool; else ValueError.
    """
    samples = _check_integer(samples, "samples must be positive", 1)
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(samples):
        alpha, beta = rng.uniform(0.05, 0.95, size=2)
        z = alpha + beta * t.tau
        sz = s(z)
        for p in range(-SHIFT_RANGE, SHIFT_RANGE + 1):
            for n in range(-SHIFT_RANGE, SHIFT_RANGE + 1):
                lhs = s(z + p * t.tau + n)
                rhs = f(p, n, z) * sz
                scale = 1.0 + max(abs(lhs), abs(rhs))
                worst = max(worst, abs(lhs - rhs) / scale)
    return ThetaReport(max_residual=worst, samples=samples, passed=worst <= tolerance)
