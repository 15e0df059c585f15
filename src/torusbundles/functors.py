"""Tensor operations on factors of automorphy.

Applying a polynomial functor to a bundle acts on its describing matrix
A(u) entry by entry: tensor products become Kronecker products, symmetric
and exterior powers become the induced matrices on monomials and minors.
All constructions preserve the torus and commute with iteration of the
cocycle.

Symmetric and exterior powers sample A on the roots of unity of d times
its exponent window, build the induced matrices of all samples in one
batch and interpolate (LaurentMatrix._sampled).  The gather tables of
the symmetric powers are constants of the rank and degree, kept as the
root tables are (laurent._kept_tables); the index sets of the exterior
powers are listed on each call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .laurent import LaurentMatrix, _check_integer, _kept_tables, _require_same_torus, _sample_dets
from .cocycle import FactorOfAutomorphy

__all__ = [
    "tensor",
    "sym_power",
    "wedge_power",
    "dual",
    "clebsch_gordan_F",
]


def tensor(f: FactorOfAutomorphy, g: FactorOfAutomorphy) -> FactorOfAutomorphy:
    """Kronecker product of the generators, row major block layout."""
    _require_same_torus(f.torus, g.torus)
    return FactorOfAutomorphy(f.torus, f.A.kron(g.A))


def sym_power(f: FactorOfAutomorphy, n: int) -> FactorOfAutomorphy:
    """Induced matrix on the n-th symmetric power, in the monomial basis.

    Column nu is the image of the basis monomial e^nu when the variable
    e_j maps to sum_i A[i][j] e_i.  Degree by degree, with nu = nu' + e_j
    for the last variable j of nu, S_d[mu, nu] = sum_i A[i, j]
    S_(d-1)[mu - e_i, nu'], one gather on all samples.  For the 2x2
    unipotent factor with a single off diagonal 1 this produces the
    upper triangular binomial coefficient matrix, exactly.  n must be
    an integer, not a bool, of at least 0; else ValueError.
    """
    n = _check_integer(n, "symmetric power needs n >= 0", 0)
    r = f.A.n

    def apply(samples):
        s = np.ones((len(samples), 1, 1), dtype=complex)
        for d in range(1, n + 1):
            rows, cols, last = _sym_step(r, d)
            padded = np.concatenate([s, np.zeros_like(s[:, :1])], axis=1)
            s = (padded[:, rows, cols] * samples[:, :, None, last]).sum(axis=1)
        return s

    return _sampled_functor(f, n, apply, r * math.comb(r + n - 1, n) ** 2)


def _monomials(r: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of degree d in r variables, in
    descending lexicographic order."""
    return [tuple(map(c.count, range(r))) for c in itertools.combinations_with_replacement(range(r), d)]


@_kept_tables(lambda r, d: (r + 2) * math.comb(r + d - 1, d))
def _sym_step(r: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gather of sym_power's step from degree d - 1 to d in rank r:
    for the monomials nu of degree d, with last variable j = last[nu],
    S_d[mu, nu] = sum_i A[i, j] S_(d-1)[rows[i, mu], cols[nu]], where
    rows[i, mu] is the index of mu - e_i in degree d - 1 (one past the
    last index when mu has no e_i, a zero row) and cols[nu] that of
    nu - e_j.  rows has shape (r, B, 1), cols and last shape (B,)."""
    prev = {mu: t for t, mu in enumerate(_monomials(r, d - 1))}
    basis = _monomials(r, d)
    down = np.array([[prev.get(mu[:i] + (mu[i] - 1,) + mu[i + 1:], len(prev)) for mu in basis]
                     for i in range(r)])
    last = np.array([max(np.flatnonzero(nu)) for nu in basis])
    return down[:, :, None], down[last, np.arange(len(basis))], last


def wedge_power(f: FactorOfAutomorphy, k: int) -> FactorOfAutomorphy:
    """Compound matrix of k x k minors, index sets in lexicographic order;
    the minors of all samples of A are taken in one batch.  The index
    sets are listed only once the sampling budget has passed them.  k
    must be an integer, not a bool, from 0 to n; else ValueError."""
    n = f.A.n
    bounds = f"wedge power needs 0 <= k <= {n}"
    k = _check_integer(k, bounds, 0)
    if k > n:
        raise ValueError(f"{bounds}, got {k!r}")

    def apply(samples):
        subsets = _index_sets(n, k)
        return _sample_dets(samples[:, subsets[:, None, :, None], subsets[None, :, None, :]])

    return _sampled_functor(f, k, apply, (math.comb(n, k) * k) ** 2)


def _index_sets(n: int, k: int) -> np.ndarray:
    """The k-element subsets of range(n) in lexicographic order, one per
    row, shape (comb(n, k), k)."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=int)


def _sampled_functor(f: FactorOfAutomorphy, degree: int, apply, size: int) -> FactorOfAutomorphy:
    """The factor with values apply(A(u)), sampled on degree times the window of A."""
    lo, hi = degree * f.A._lo, degree * (f.A._lo + len(f.A._c) - 1)
    return FactorOfAutomorphy(f.torus, LaurentMatrix._pruned(lo, f.A._sampled(lo, hi, apply, size)))


def dual(f: FactorOfAutomorphy) -> FactorOfAutomorphy:
    """Inverse transpose of the generator.

    Requires det A to be a monomial so the inverse stays in the Laurent
    ring; raises NotInvertibleInRing otherwise.  The inverse carries the
    det (-k, 1/c) of det A = c u^k, unless its prune moved that det, and
    the transpose keeps it, so the check of the dual factor reads that
    pair.
    """
    return FactorOfAutomorphy(f.torus, f.A.inverse_monomial_det().transpose())


def clebsch_gordan_F(p: int, q: int) -> list[int]:
    """Indices in the decomposition F_p otimes F_q = sum_i F_{m_i} of the
    unipotent Atiyah bundles: p+q-1, p+q-3, ..., p-q+1 for p >= q >= 1.

    The indices match the Jordan block sizes of the product of the two
    unipotent generators, and their sum is p*q.
    """
    if q < 1 or p < q:
        raise ValueError(f"need p >= q >= 1, got p={p}, q={q}")
    return list(range(p + q - 1, p - q, -2))
