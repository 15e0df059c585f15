"""Tensor operations on factors of automorphy.

Applying a polynomial functor to a bundle acts on its describing matrix
A(u) entry by entry: tensor products become Kronecker products, symmetric
and exterior powers become the induced matrices on monomials and minors.
All constructions preserve the torus and commute with iteration of the
cocycle.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .laurent import LaurentMatrix, LaurentPoly, _require_same_torus
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

    Columns are images of basis monomials: the variable e_j maps to
    sum_i A[i][j] e_i and the product of images is expanded back into
    monomials.  For the 2x2 unipotent factor with a single off diagonal 1
    this produces the upper triangular binomial coefficient matrix.
    """
    if n < 0:
        raise ValueError(f"symmetric power needs n >= 0, got {n}")
    r = f.A.n
    a = f.A.rows()
    basis = list(_exponent_tuples(r, n))
    position = {mu: i for i, mu in enumerate(basis)}
    zero = LaurentPoly.zero()
    columns = []
    for nu in basis:
        # expand prod_j (sum_i A[i][j] e_i)^(nu_j) into monomials
        expansion: dict[tuple[int, ...], LaurentPoly] = {(0,) * r: LaurentPoly.one()}
        for j, power in enumerate(nu):
            for _ in range(power):
                nxt: dict[tuple[int, ...], LaurentPoly] = {}
                for mono, coeff in expansion.items():
                    for i in range(r):
                        e = a[i][j]
                        if e.is_zero:
                            continue
                        key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                        term = coeff * e
                        nxt[key] = term if key not in nxt else nxt[key] + term
                expansion = nxt
        col = [zero] * len(basis)
        for mono, coeff in expansion.items():
            col[position[mono]] = coeff
        columns.append(col)
    rows = [[columns[j][i] for j in range(len(basis))] for i in range(len(basis))]
    return FactorOfAutomorphy(f.torus, LaurentMatrix(rows))


def wedge_power(f: FactorOfAutomorphy, k: int) -> FactorOfAutomorphy:
    """Compound matrix of k x k minors, index sets in lexicographic order."""
    n = f.A.n
    if not 0 <= k <= n:
        raise ValueError(f"wedge power needs 0 <= k <= {n}, got {k}")
    a = f.A.rows()
    subsets = list(itertools.combinations(range(n), k))
    rows = []
    for rows_idx in subsets:
        out_row = []
        for cols_idx in subsets:
            sub = [[a[i][j] for j in cols_idx] for i in rows_idx]
            out_row.append(LaurentMatrix(sub).det() if k else LaurentPoly.one())
        rows.append(out_row)
    return FactorOfAutomorphy(f.torus, LaurentMatrix(rows))


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
