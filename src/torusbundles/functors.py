"""Tensor operations on factors of automorphy.

Applying a polynomial functor to a bundle acts on its describing matrix
A(u) entry by entry: tensor products become Kronecker products, symmetric
and exterior powers become the induced matrices on monomials and minors.
All constructions preserve the torus and commute with iteration of the
cocycle.

Symmetric and exterior powers sample A on the roots of unity of d times
its exponent window, build the induced matrices of all samples in one
batch and interpolate (LaurentMatrix._sampled).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .laurent import LaurentMatrix, _require_same_torus, _sample_dets
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


def _exponent_tuples(nvars: int, total: int) -> Iterator[tuple[int, ...]]:
    """Monomial exponents of degree ``total`` in ``nvars`` variables,
    descending lexicographic.  For two variables this is the familiar
    e_1^n, e_1^(n-1) e_2, ..., e_2^n ordering."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponent_tuples(nvars - 1, total - first):
            yield (first,) + rest


def sym_power(f: FactorOfAutomorphy, n: int) -> FactorOfAutomorphy:
    """Induced matrix on the n-th symmetric power, in the monomial basis.

    Column nu is the image of the basis monomial e^nu when the variable
    e_j maps to sum_i A[i][j] e_i.  Degree by degree, with nu = nu' + e_j
    for the last variable j of nu, S_d[mu, nu] = sum_i A[i, j]
    S_(d-1)[mu - e_i, nu'], one gather on all samples.  For the 2x2
    unipotent factor with a single off diagonal 1 this produces the
    upper triangular binomial coefficient matrix, exactly.
    """
    if n < 0:
        raise ValueError(f"symmetric power needs n >= 0, got {n}")
    r = f.A.n

    def apply(samples):
        s, prev = np.ones((len(samples), 1, 1), dtype=complex), {(0,) * r: 0}
        for d in range(1, n + 1):
            basis = list(_exponent_tuples(r, d))
            # index of mu - e_i in degree d - 1; row len(prev) is zero
            down = np.array([[prev.get(mu[:i] + (mu[i] - 1,) + mu[i + 1:], len(prev)) for mu in basis]
                             for i in range(r)])
            last = [max(np.flatnonzero(nu)) for nu in basis]
            padded = np.concatenate([s, np.zeros_like(s[:, :1])], axis=1)
            s = (padded[:, down[:, :, None], down[last, range(len(basis))]] * samples[:, :, None, last]).sum(axis=1)
            prev = {mu: t for t, mu in enumerate(basis)}
        return s

    return _sampled_functor(f, n, apply, r * math.comb(r + n - 1, n) ** 2)


def wedge_power(f: FactorOfAutomorphy, k: int) -> FactorOfAutomorphy:
    """Compound matrix of k x k minors, index sets in lexicographic order;
    the minors of all samples of A are taken in one batch."""
    n = f.A.n
    if not 0 <= k <= n:
        raise ValueError(f"wedge power needs 0 <= k <= {n}, got {k}")
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=int)
    rows, cols = subsets[:, None, :, None], subsets[None, :, None, :]
    return _sampled_functor(f, k, lambda samples: _sample_dets(samples[:, rows, cols]), (len(subsets) * k) ** 2)


def _sampled_functor(f: FactorOfAutomorphy, degree: int, apply, size: int) -> FactorOfAutomorphy:
    """The factor with values apply(A(u)), sampled on degree times the window of A."""
    lo, hi = degree * f.A._lo, degree * (f.A._lo + len(f.A._c) - 1)
    return FactorOfAutomorphy(f.torus, LaurentMatrix._from_coeffs(lo, f.A._sampled(lo, hi, apply, size)))


def dual(f: FactorOfAutomorphy) -> FactorOfAutomorphy:
    """Inverse transpose of the generator.

    Requires det A to be a monomial so the inverse stays in the Laurent
    ring; raises NotInvertibleInRing otherwise.
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
