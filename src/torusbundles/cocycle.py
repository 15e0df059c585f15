"""Factors of automorphy on C*/<q> and equivalence of the bundles they define.

A vector bundle on the quotient torus is described by a single matrix
A(u), the value of the factor of automorphy at the generator: a section
s(u) of the associated bundle satisfies s(q*u) = A(u) s(u).  The value on
q^m is then the iterated product

    A(m, u) = A(q^(m-1) u) ... A(q u) A(u),      A(0, u) = I,

extended to negative m by A(-m, u) = A(m, q^(-m) u)^(-1)
= A(q^(-m) u)^(-1) ... A(q^(-1) u)^(-1).  Two factors
A, A' give isomorphic bundles exactly when A(u) B(u) = B(q u) A'(u) for
some matrix B invertible over the Laurent ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .laurent import (
    CLOSE_TOL,
    LaurentMatrix,
    LaurentPoly,
    NotNilpotent,
    Torus,
    _require_same_torus,
    _sampled_abs_dets,
    matrices_close,
    matrix_from_json,
    matrix_to_json,
    passes_sampled_invertibility,
    torus_from_json,
    torus_to_json,
)

__all__ = [
    "FactorOfAutomorphy",
    "EquivalenceWitness",
    "iterate",
    "check_witness",
    "is_trivial_rank1_constant",
    "is_trivial_unipotent2",
    "jordan_type_unipotent",
    "equivalent_constant",
    "factor_to_json",
    "factor_from_json",
]


@dataclass(frozen=True)
class FactorOfAutomorphy:
    """A torus together with the generator value A(u) of a factor.

    Construction runs the sampled invertibility check on A: det must be
    nonzero and not degenerate along the unit circle.  When each row of
    A holds one exponent, as in block companions and their isogeny
    translates, |det A| is constant on the circle and the check is the
    one determinant det A(1).  This is a necessary condition for A to
    define a bundle, not a proof; the exact certificate is a monomial
    determinant.
    """

    torus: Torus
    A: LaurentMatrix

    def __post_init__(self) -> None:
        if not passes_sampled_invertibility(self.A):
            dets = _sampled_abs_dets(self.A)
            taken = (
                f"|det A(1)| = {dets:.3g}" if dets.ndim == 0
                else f"|det A| from {dets.min():.3g} to {dets.max():.3g} at {dets.size} points of |u| = 1"
            )
            raise ValueError(f"generator fails the sampled invertibility check ({taken})")

    @property
    def rank(self) -> int:
        return self.A.n


@dataclass(frozen=True)
class EquivalenceWitness:
    """A matrix B(u) intertwining two factors: A(u) B(u) = B(q u) A'(u)."""

    B: LaurentMatrix

    def __post_init__(self) -> None:
        if not passes_sampled_invertibility(self.B):
            raise ValueError("witness fails the sampled invertibility check")


def factor_to_json(f: FactorOfAutomorphy) -> dict:
    return {"torus": torus_to_json(f.torus), "A": matrix_to_json(f.A)}


def factor_from_json(data: dict) -> FactorOfAutomorphy:
    return FactorOfAutomorphy(torus_from_json(data["torus"]), matrix_from_json(data["A"]))


# ---------------------------------------------------------------------------
# the cocycle
# ---------------------------------------------------------------------------


def iterate(f: FactorOfAutomorphy, m: int) -> LaurentMatrix:
    """The iterated cocycle value A(m, u).

    For m >= 0 this is the left product A(q^(m-1) u) ... A(u); for
    negative m the product A(q^m u)^(-1) ... A(q^(-1) u)^(-1) of one
    inverse A^(-1), which needs det A to be a monomial and raises
    NotInvertibleInRing otherwise.
    """
    if not isinstance(m, (int, np.integer)):
        raise TypeError(f"m must be an integer, got {m!r}")
    q = f.torus.q
    if m == 0:
        return LaurentMatrix.identity(f.A.n)
    if m > 0:
        acc = f.A
        for i in range(1, m):
            acc = f.A.substitute_scaled(q ** i) @ acc
        return acc
    inv = f.A.inverse_monomial_det()
    acc = inv.substitute_scaled(q ** -1)
    for i in range(2, 1 - m):
        acc = inv.substitute_scaled(q ** -i) @ acc
    return acc


def check_witness(
    f: FactorOfAutomorphy,
    g: FactorOfAutomorphy,
    w: EquivalenceWitness,
    tol: float = CLOSE_TOL,
) -> bool:
    """Whether A(u) B(u) = B(q u) A'(u) holds coefficientwise, to
    tol * (1 + largest coefficient of either side)."""
    _require_same_torus(f.torus, g.torus)
    if f.A.n != g.A.n or w.B.n != f.A.n:
        raise ValueError(
            f"size mismatch: factors are {f.A.n} and {g.A.n}, witness is {w.B.n}"
        )
    lhs = f.A @ w.B
    rhs = w.B.substitute_scaled(f.torus.q) @ g.A
    return matrices_close(lhs, rhs, tol)


# ---------------------------------------------------------------------------
# triviality in the two solvable families
# ---------------------------------------------------------------------------


def is_trivial_rank1_constant(f: FactorOfAutomorphy, nu_range: int = 10) -> Optional[int]:
    """Recognize a rank one constant factor [[a]] as trivial.

    The line bundle with constant factor a is trivial exactly when a is a
    power of q; returns the exponent nu with |nu| <= nu_range when
    |a - q^nu| <= 1e-8 |q^nu|, else None.
    """
    if f.A.n != 1:
        raise ValueError(f"expected a 1x1 factor, got size {f.A.n}")
    e = f.A.entry(0, 0)
    if not e.is_constant():
        raise ValueError(f"expected a constant factor, got {e}")
    a = e.constant_value()
    q = f.torus.q
    for nu in range(-nu_range, nu_range + 1):
        target = q ** nu
        if abs(a - target) <= 1e-8 * abs(target):
            return nu
    return None


def is_trivial_unipotent2(f: FactorOfAutomorphy) -> Optional[LaurentPoly]:
    """Solve the additive cocycle equation for a unipotent 2x2 factor.

    For A = [[1, a(u)], [0, 1]] the bundle is trivial exactly when
    a(u) = b(q u) - b(u) has a Laurent solution b, which exists iff the
    constant term of a vanishes; then b_k = a_k / (q^k - 1) for k != 0
    and b_0 = 0.  Returns b, or None when the constant term obstructs.
    """
    if f.A.n != 2:
        raise ValueError(f"expected a 2x2 factor, got size {f.A.n}")
    a = f.A.entry(0, 1)
    scale = 1.0 + max(1.0, a.max_coeff())
    one = LaurentPoly.one()
    for entry, expect in (((0, 0), one), ((1, 1), one), ((1, 0), LaurentPoly.zero())):
        diff = (f.A.entry(*entry) - expect).max_coeff()
        if diff > CLOSE_TOL * scale:
            raise ValueError("factor is not upper unipotent with unit diagonal")
    q = f.torus.q
    terms = dict(a.terms())
    a0 = terms.pop(0, 0j)
    if abs(a0) > CLOSE_TOL * scale:
        return None
    return LaurentPoly({k: c / (q ** k - 1.0) for k, c in terms.items()})


# ---------------------------------------------------------------------------
# Jordan structure of constant factors
# ---------------------------------------------------------------------------


def jordan_type_unipotent(mat, eigenvalue: complex = 1.0) -> tuple[int, ...]:
    """Jordan partition of a constant matrix at a single eigenvalue.

    mat - eigenvalue*I must be nilpotent (NotNilpotent otherwise).  The
    partition is read off the rank sequence r_k = rank((mat - e I)^k):
    the number of blocks of size j is r_{j-1} - 2 r_j + r_{j+1}.
    Returned sizes are sorted descending and sum to the matrix size.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    m = a - complex(eigenvalue) * np.eye(n)
    norm = max(1.0, float(np.linalg.norm(m, 2)))
    top = np.linalg.matrix_power(m, n)
    if float(np.linalg.norm(top, 2)) > 1e-8 * norm ** n:
        raise NotNilpotent(
            f"matrix minus {eigenvalue} is not nilpotent (|M^{n}| = {np.linalg.norm(top, 2):.3e})"
        )
    walk = _walk_powers(a, complex(eigenvalue))
    if sum(walk.partition) != n:
        raise ArithmeticError(f"inconsistent rank sequence {walk.ranks}")
    return walk.partition


class _PowerWalk(NamedTuple):
    """What _walk_powers finds for one eigenvalue."""

    ranks: list[int]
    partition: tuple[int, ...]
    powers: list[np.ndarray]
    kernels: list[np.ndarray]


def _walk_powers(a: np.ndarray, lam: complex) -> _PowerWalk:
    """Powers M^k of M = a - lam I with their numerical ranks, orthonormal
    kernel bases (columns) and the Jordan partition of lam inside a.

    Each power takes one SVD.  Rank thresholds scale with each power's own
    largest singular value; a fixed floor of the form c * |M|^k is useless
    here because a long Jordan chain makes the genuine singular values of
    M^k fall many orders below |M|^k.  A power whose largest singular
    value sits at roundoff level relative to the previous one (growth by
    |M| times 1e-8 slack) is snapped to the exact zero matrix, so its
    kernel is the whole space.  The walk stops at the zero power or once
    three ranks agree; past its end the ranks stay at the last one, and
    r_{j-1} - 2 r_j + r_{j+1} blocks have size j (other eigenvalues keep
    full rank and drop out of the differences).
    """
    n = a.shape[0]
    m = a - lam * np.eye(n)
    nrm = float(np.linalg.norm(m, 2))
    powers = [np.eye(n, dtype=complex)]
    kernels = [np.zeros((n, 0), dtype=complex)]
    ranks = [n]
    prev_top = max(1.0, nrm)
    growth = 1.0
    while len(ranks) <= n:
        nxt = powers[-1] @ m
        _, s, vh = np.linalg.svd(nxt)
        top = float(s[0])
        if top <= 1e-8 * prev_top * growth:
            nxt, vh, rank = np.zeros_like(nxt), np.eye(n, dtype=complex), 0
        else:
            rank = int(np.sum(s > top * max(1e-10, n * np.finfo(float).eps)))
        powers.append(nxt)
        kernels.append(vh[rank:].conj().T)
        ranks.append(rank)
        if rank == 0 or (len(ranks) > 2 and ranks[-1] == ranks[-2] == ranks[-3]):
            break
        prev_top, growth = top, nrm

    def r(k: int) -> int:
        return ranks[min(k, len(ranks) - 1)]

    parts: list[int] = []
    for j in range(n, 0, -1):
        parts.extend([j] * max(r(j - 1) - 2 * r(j) + r(j + 1), 0))
    return _PowerWalk(ranks, tuple(parts), powers, kernels)


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, robust to dependent columns."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if len(s) == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    keep = int(np.sum(s > s[0] * 1e-10))
    return u[:, :keep]


_CLUSTER_TOL = 1e-8


def _cluster(values: Sequence[complex]) -> list[tuple[complex, int]]:
    """Group nearly equal values; returns (representative, multiplicity)
    sorted by real then imaginary part."""
    out: list[tuple[complex, int]] = []
    for v in sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag)):
        if out and abs(v - out[-1][0]) <= _CLUSTER_TOL * (1.0 + abs(v)):
            rep, mult = out[-1]
            out[-1] = ((rep * mult + v) / (mult + 1), mult + 1)
        else:
            out.append((v, 1))
    return out


def _is_triangular(a: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(a)))
    lower = float(np.max(np.abs(np.tril(a, -1)))) if a.shape[0] > 1 else 0.0
    upper = float(np.max(np.abs(np.triu(a, 1)))) if a.shape[0] > 1 else 0.0
    return min(lower, upper) <= 1e-12 * scale


def _jordan_basis(walks: list[_PowerWalk]) -> np.ndarray:
    """Columns S with a S = S J, J the canonical Jordan form built from
    the power walks of a's eigenvalues in order, blocks descending within
    each eigenvalue."""
    n = walks[0].powers[0].shape[0]
    cols: list[np.ndarray] = []
    for _, partition, powers, null in walks:
        index = partition[0] if partition else 0
        tops: list[tuple[np.ndarray, int]] = []
        for j in range(index, 0, -1):
            need = partition.count(j)
            if need == 0:
                continue
            avoid = [null[j - 1]] + [powers[length - j] @ v[:, None] for v, length in tops if length > j]
            w = np.hstack(avoid)
            basis = null[j]
            if w.shape[1]:
                qw = _orth(w)
                proj = basis - qw @ (qw.conj().T @ basis)
            else:
                proj = basis
            _, _, vh = np.linalg.svd(proj)
            for t in range(need):
                x = vh[t].conj()
                tops.append((basis @ x, j))
        for v, length in tops:
            cols.extend(powers[length - 1 - t] @ v for t in range(length))
    s = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)
    if s.shape != (n, n):
        raise ArithmeticError(f"Jordan basis has {s.shape[1]} columns for size {n}")
    return s


def equivalent_constant(
    a,
    b,
    eigenvalues: Optional[Sequence[complex]] = None,
    tol: float = 1e-8,
) -> Optional[EquivalenceWitness]:
    """Decide equivalence of two constant factors and produce a witness.

    Constant factors are equivalent exactly when the matrices are similar,
    so this compares eigenvalue clusters and Jordan partitions and, on
    success, returns the constant change of basis B with A = B A' B^(-1).

    Eigenvalues are read off the diagonal for triangular input; otherwise
    they must be supplied (general eigenvalue computation is deliberately
    out of scope).  Near identical inputs short circuit to the identity
    witness.
    """
    am = a.constant_matrix() if isinstance(a, LaurentMatrix) else np.asarray(a, dtype=complex)
    bm = b.constant_matrix() if isinstance(b, LaurentMatrix) else np.asarray(b, dtype=complex)
    if am.shape != bm.shape or am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    n = am.shape[0]
    scale = 1.0 + max(float(np.max(np.abs(am))), float(np.max(np.abs(bm))))
    if float(np.max(np.abs(am - bm))) <= tol * scale:
        return EquivalenceWitness(LaurentMatrix.identity(n))

    def diag_values(m: np.ndarray) -> Sequence[complex]:
        if eigenvalues is not None:
            if len(eigenvalues) != n:
                raise ValueError(f"need {n} eigenvalues, got {len(eigenvalues)}")
            return eigenvalues
        if not _is_triangular(m):
            raise ValueError(
                "matrix is not triangular; supply eigenvalues explicitly"
            )
        return np.diag(m)

    ca = _cluster(diag_values(am))
    cb = _cluster(diag_values(bm))
    if len(ca) != len(cb):
        return None
    for (va, ma), (vb, mb) in zip(ca, cb):
        if ma != mb or abs(va - vb) > tol * (1.0 + abs(va)):
            return None
    walks_a = [_walk_powers(am, v) for v, _ in ca]
    walks_b = [_walk_powers(bm, v) for v, _ in cb]
    if [wa.partition for wa in walks_a] != [wb.partition for wb in walks_b]:
        return None
    w = _jordan_basis(walks_a) @ np.linalg.inv(_jordan_basis(walks_b))
    if float(np.max(np.abs(am @ w - w @ bm))) > 1e-6 * scale * float(np.linalg.cond(w)):
        raise ArithmeticError("Jordan bases failed to produce a valid witness")
    return EquivalenceWitness(LaurentMatrix.from_constant(w))
