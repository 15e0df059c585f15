"""Output checks computed apart from the program.

Every check evaluates the program's output with the benchmark's own
numpy code (``dense.Dense.at``) and compares it with a reference built
from the inputs alone: products of evaluated factors, Kronecker products,
permanents, minors, rank sequences, phase accumulation and mpmath theta
values.  Comparisons of Laurent matrices are scaled by the largest
coefficient or value in play, since iterates on tau = i reach
coefficients near |q|^(-56).  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np

from dense import Dense

#: relative tolerance for Laurent matrix values; pruning at 1e-12 of the
#: largest coefficient over at most a few dozen exponents stays far below it
VALUE_TOL = 1e-8


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def values_close(what: str, got: np.ndarray, want: np.ndarray, scale: float, tol: float = VALUE_TOL) -> None:
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    bound = tol * max(1.0, scale)
    _require(
        got.shape == want.shape and err <= bound,
        f"{what}: max deviation {err:.3e} exceeds {bound:.3e} (shape {got.shape} vs {want.shape})",
    )


def matrix_matches(what: str, out: Dense, want: np.ndarray, u: np.ndarray) -> None:
    """The program's matrix ``out`` takes the values ``want`` at ``u``."""
    _require(out.n == want.shape[1], f"{what}: size {out.n}, expected {want.shape[1]}")
    got = out.at(u)
    scale = max(out.max_coeff(), float(np.max(np.abs(want))))
    values_close(what, got, want, scale)


def iterate_values(a: Dense, q: complex, m: int, u: np.ndarray) -> np.ndarray:
    """A(m, u) = A(q^(m-1) u) ... A(q u) A(u), and for m < 0 the inverse
    of A(|m|, q^m u), from values of the factor alone."""
    if m < 0:
        return np.linalg.inv(iterate_values(a, q, -m, q ** m * u))
    acc = np.broadcast_to(np.eye(a.n, dtype=complex), (len(u), a.n, a.n))
    for i in range(m):
        acc = a.at(q ** i * u) @ acc
    return acc


def cocycle_law(a_mn: Dense, a_m: Dense, a_n: Dense, q: complex, n: int, u: np.ndarray) -> None:
    """A(m + n, u) = A(m, q^n u) A(n, u) between three program outputs."""
    want = a_m.at(q ** n * u) @ a_n.at(u)
    scale = max(a_mn.max_coeff(), float(np.max(np.abs(want))))
    values_close("cocycle law", a_mn.at(u), want, scale)


def sym2_values(m: np.ndarray) -> np.ndarray:
    """Second symmetric power in the descending lexicographic monomial
    basis, entry (mu, nu) = per(M[mu, nu]) / mu!, by permanents."""
    r = m.shape[-1]
    basis = [mu for mu in itertools.product(range(3), repeat=r) if sum(mu) == 2]
    basis.sort(reverse=True)

    def expand(mu):
        return [i for i, e in enumerate(mu) for _ in range(e)]

    out = np.empty(m.shape[:-2] + (len(basis), len(basis)), dtype=complex)
    for a, mu in enumerate(basis):
        ri = expand(mu)
        fact = math.prod(math.factorial(e) for e in mu)
        for b, nu in enumerate(basis):
            cj = expand(nu)
            per = m[..., ri[0], cj[0]] * m[..., ri[1], cj[1]] + m[..., ri[0], cj[1]] * m[..., ri[1], cj[0]]
            out[..., a, b] = per / fact
    return out


def wedge_values(m: np.ndarray, k: int) -> np.ndarray:
    """Compound matrix of k x k minors, index sets in lexicographic order."""
    n = m.shape[-1]
    subsets = list(itertools.combinations(range(n), k))
    out = np.empty(m.shape[:-2] + (len(subsets), len(subsets)), dtype=complex)
    for a, rs in enumerate(subsets):
        for b, cs in enumerate(subsets):
            out[..., a, b] = np.linalg.det(m[..., list(rs), :][..., :, list(cs)])
    return out


def hadamard(m: np.ndarray) -> np.ndarray:
    """Hadamard's bound prod_i |row_i| on |det m|, per leading index."""
    return np.prod(np.linalg.norm(m, axis=-1), axis=-1)


def sylvester_franke(w: Dense, a_vals: np.ndarray, k: int, u: np.ndarray) -> None:
    """det(wedge^k A) = det(A)^C(n-1, k-1) at every sample point."""
    n = a_vals.shape[-1]
    wv = w.at(u)
    got = np.linalg.det(wv)
    want = np.linalg.det(a_vals) ** comb(n - 1, k - 1)
    err = np.abs(got - want)
    bound = 1e-9 * np.maximum(hadamard(wv), 1.0)
    _require(bool(np.all(err <= bound)), f"Sylvester-Franke: deviation {float(np.max(err / bound)):.3e} of bound")


def winding(values: np.ndarray) -> int:
    """Winding number of a closed sampled curve by phase accumulation."""
    steps = np.angle(np.roll(values, -1) / values)
    return int(round(float(np.sum(steps)) / (2 * math.pi)))


def normal_form_values(s: complex, r: int, d: int, a: complex, u: np.ndarray) -> np.ndarray:
    """Values of the normal form: the block cyclic [[0, I], [G, 0]] on
    blocks of size h = gcd(r, d) with G(u) = (s^-1 u^-1)^(d/h) A_h(a)."""
    h = math.gcd(r, abs(d)) if d else r
    rp, dp = r // h, d // h
    jordan = a * np.eye(h, dtype=complex) + np.eye(h, k=1, dtype=complex)
    g = ((1.0 / (s * u)) ** dp)[:, None, None] * jordan
    if rp == 1:
        return g
    out = np.zeros((len(u), r, r), dtype=complex)
    out[:, : (rp - 1) * h, h:] = np.eye((rp - 1) * h)
    out[:, (rp - 1) * h :, :h] = g
    return out


def normal_form_invariants(f: Dense, r: int, d: int, a: complex, s: complex, u: np.ndarray) -> None:
    """Rank r, degree d by phase accumulation of det on |u| = 1, and
    |det(u)| = |a|^h |s|^(-d) there."""
    _require(f.n == r, f"rank {f.n}, expected {r}")
    dets = np.linalg.det(f.at(u))
    w = winding(dets)
    _require(w == -d, f"det winds {w} times, expected {-d}")
    h = math.gcd(r, abs(d)) if d else r
    want = abs(a) ** h * abs(s) ** (-d)
    err = float(np.max(np.abs(np.abs(dets) - want)))
    _require(err <= 1e-9 * want, f"|det| deviates from |a|^h |s|^-d = {want:.6e} by {err:.3e}")


def canonical_param(p: complex, a: complex, q: complex) -> None:
    """|q| < |p| <= 1 and p / a an integer power of q."""
    _require(abs(q) * (1 + 1e-12) < abs(p) <= 1 + 1e-9, f"param {p} outside |q| < |p| <= 1")
    k = round(math.log(abs(p / a)) / math.log(abs(q)))
    _require(abs(p - a * q ** k) <= 1e-9 * abs(p), f"param {p} is not {a} times a power of q")


def similarity_witness(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> None:
    """A W = W B with W invertible, so the constant factors are equivalent."""
    cond = float(np.linalg.cond(w))
    _require(cond < 1e10, f"witness condition number {cond:.3e}")
    scale = (1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))) * float(np.max(np.abs(w)))
    values_close("similarity witness", a @ w, w @ b, scale)


def jordan_sizes_unipotent_product(p: int, q: int) -> list[int]:
    """Jordan block sizes of J_p(1) (x) J_q(1), from numpy rank sequences
    of its nilpotent part; the entries are small integers, so the ranks
    are exact."""
    jp = np.eye(p) + np.eye(p, k=1)
    jq = np.eye(q) + np.eye(q, k=1)
    nil = np.kron(jp, jq) - np.eye(p * q)
    ranks = [p * q]
    power = np.eye(p * q)
    while ranks[-1] > 0:
        power = power @ nil
        ranks.append(int(np.linalg.matrix_rank(power)))
    ranks.append(0)
    sizes = []
    for j in range(len(ranks) - 2, 0, -1):
        sizes += [j] * (ranks[j - 1] - 2 * ranks[j] + ranks[j + 1])
    return sizes


def theta_reference(tau: complex, a: float, b: float, z: complex) -> complex:
    """theta_xi(z) for xi = a tau + b through mpmath.jtheta at 30 digits:
    exp(pi i a^2 tau + 2 pi i a (z + b)) theta_3(pi (z + b + a tau), e^(pi i tau))."""
    import mpmath

    with mpmath.workdps(30):
        pre = mpmath.exp(mpmath.pi * 1j * a * a * tau + 2j * mpmath.pi * a * (z + b))
        nome = mpmath.exp(mpmath.pi * 1j * tau)
        return complex(pre * mpmath.jtheta(3, mpmath.pi * (z + b + a * tau), nome))
