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

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .laurent import (
    CLOSE_TOL,
    LaurentMatrix,
    LaurentPoly,
    NotNilpotent,
    SAMPLE_BUDGET,
    Torus,
    _check_integer,
    _invertibility_failure,
    _kept_tables,
    _reversed_flat,
    _require_same_torus,
    _trimmed,
    _window_product,
    matrices_close,
    matrix_from_json,
    matrix_to_json,
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
    nonzero and not degenerate along the unit circle.  It reads |c| of a
    det c u^k that A carries as the pair (k, c) from how it was built, as
    normal forms and their companions do, or takes det A(1) when each row
    of A holds one exponent.  This is a necessary condition for A to define a bundle,
    not a proof; the exact certificate is a monomial determinant.
    """

    torus: Torus
    A: LaurentMatrix

    def __post_init__(self) -> None:
        taken = _invertibility_failure(self.A, "A")
        if taken:
            raise ValueError(f"generator fails the sampled invertibility check ({taken})")

    @property
    def rank(self) -> int:
        return self.A.n


@dataclass(frozen=True)
class EquivalenceWitness:
    """A matrix B(u) intertwining two factors: A(u) B(u) = B(q u) A'(u)."""

    B: LaurentMatrix

    def __post_init__(self) -> None:
        taken = _invertibility_failure(self.B, "B")
        if taken:
            raise ValueError(f"witness fails the sampled invertibility check ({taken})")


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

    The translates are taken as one stack, in chunks of at most
    SAMPLE_BUDGET elements, and their _reversed_flat slices as one copy
    of each chunk.  The running product lives in a buffer with K - 1
    zero slices on each side of its live window, K the slices of A.
    Each translate is one _window_product, the kernel of @, into the
    next such buffer, whose live window is then trimmed of its zero end
    slices in place, as @ trims.  So the result is that of the product
    one @ at a time, byte for byte, and nothing is pruned; a translate
    that lost an end slice to underflow enters whole, its zero slices
    adding exact zeros.  All products run under one np.errstate, and
    one matrix is built at the end.  Each power q^i is taken inside the
    stack's guard, and a translate that fails is raised after the
    product of those before it, so the first error is the one a product
    of one substitution at a time meets first.  A product whose
    coefficients all underflow to 0 raises ValueError.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise TypeError(f"m must be an integer, got {m!r}")
    q = f.torus.q
    if m == 0:
        return LaurentMatrix.identity(f.A.n)
    if m == 1:
        return f.A
    if m > 0:
        base, powers = f.A, range(1, m)
    else:
        base, powers = f.A.inverse_monomial_det(), range(-1, m - 1, -1)
    k, n = base._c.shape[:2]
    pad = k - 1

    def padded(c: np.ndarray) -> np.ndarray:
        buf = np.zeros((len(c) + 2 * pad, n, n), dtype=complex)
        buf[pad:pad + len(c)] = c
        return buf

    # the running product: sum_j buf[start + j] u^(lo + j) for j < live,
    # with at least pad zero slices on each side; A itself for m > 0
    lo, start, live, buf = base._lo, pad, k, padded(base._c) if m > 0 else None
    chunk = max(1, SAMPLE_BUDGET // base._c.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(powers), chunk):
            stack, failure = base._translate_stack(q ** i for i in powers[first:first + chunk])
            for t, flat in zip(stack, _reversed_flat(stack)):
                if buf is None:  # A(-1, u) = A^(-1)(q^-1 u), trimmed as @ trims it
                    lo, t = _trimmed(base._lo, t)
                    live, buf = len(t), padded(t)
                elif live:
                    width = live + pad
                    nxt = np.zeros((width + 2 * pad, n, n), dtype=complex)
                    out = nxt[pad:pad + width]
                    _window_product(flat, buf[start - pad:start + live + pad], out)
                    at = lo + base._lo
                    lo, window = _trimmed(at, out)
                    buf, start, live = nxt, pad + lo - at, len(window)
            if failure is not None:
                raise failure
    if not live:
        raise ValueError(f"A(m, u) underflows to the zero matrix at m = {m}")
    return LaurentMatrix._from_coeffs(lo, buf[start:start + live])


def check_witness(f: FactorOfAutomorphy, g: FactorOfAutomorphy, w: EquivalenceWitness) -> bool:
    """Whether A(u) B(u) = B(q u) A'(u) holds coefficientwise, to
    CLOSE_TOL * (1 + largest coefficient of either side)."""
    _require_same_torus(f.torus, g.torus)
    if f.A.n != g.A.n or w.B.n != f.A.n:
        raise ValueError(
            f"size mismatch: factors are {f.A.n} and {g.A.n}, witness is {w.B.n}"
        )
    lhs = f.A @ w.B
    rhs = w.B.substitute_scaled(f.torus.q) @ g.A
    return matrices_close(lhs, rhs)


# ---------------------------------------------------------------------------
# triviality in the two solvable families
# ---------------------------------------------------------------------------


def is_trivial_rank1_constant(f: FactorOfAutomorphy, nu_range: int = 10) -> Optional[int]:
    """Recognize a rank one constant factor [[a]] as trivial.

    The line bundle with constant factor a is trivial exactly when a is a
    power of q; returns the exponent nu with |nu| <= nu_range when
    |a - q^nu| <= 1e-8 |q^nu|, skipping the q^nu past the double range,
    else None.  nu_range must be a non-negative integer; for 0 < |q| < 1
    it is cut to the nu where q^nu can match a finite nonzero a.
    """
    nu_range = _check_integer(nu_range, "nu_range must be a non-negative integer", 0)
    if f.A.n != 1:
        raise ValueError(f"expected a 1x1 factor, got size {f.A.n}")
    e = f.A.entry(0, 0)
    if not e.is_constant():
        raise ValueError(f"expected a constant factor, got {e}")
    a = e.constant_value()
    q = f.torus.q
    if 0 < abs(q) < 1:
        # a match needs |log|q^nu|| <= log(2 / 5e-324) = 745.1, past log(max double) = 709.8
        nu_range = min(nu_range, 2 + int((math.log(2) - math.log(math.ulp(0.0))) / -math.log(abs(q))))
    for nu in range(-nu_range, nu_range + 1):
        try:
            target = q ** nu
            if abs(a - target) <= 1e-8 * abs(target):
                return nu
        except ArithmeticError:  # q^nu, or its modulus, is past the double range
            continue
    return None


def is_trivial_unipotent2(f: FactorOfAutomorphy) -> Optional[LaurentPoly]:
    """Solve the additive cocycle equation for a unipotent 2x2 factor.

    For A = [[1, a(u)], [0, 1]] the bundle is trivial exactly when
    a(u) = b(q u) - b(u) has a Laurent solution b, which exists iff the
    constant term of a vanishes; then b_0 = 0 and b_k = a_k / (q^k - 1),
    kept however small.  Returns b, or None when the constant term obstructs.
    """
    if f.A.n != 2:
        raise ValueError(f"expected a 2x2 factor, got size {f.A.n}")
    a = f.A.entry(0, 1)
    scale = 1.0 + max(1.0, a.max_coeff())
    if (f.A - LaurentMatrix([[1, a], [0, 1]])).max_coeff() > CLOSE_TOL * scale:
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

    The nilpotency test compares |M^n| with 1e-8 |M|^n in logs; the
    walk then takes the powers of M in one pass, SVD'd in one stacked
    LAPACK call (_walk_powers).  Entries and the eigenvalue must be
    finite, and a power M^k past the double range is a ValueError that
    names k (_finite_power); none of these warns.
    """
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_finite(a, [eigenvalue])
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        m = _finite_power(a - complex(eigenvalue) * np.eye(n), a, eigenvalue, 1)
        norm = max(1.0, float(_singular_values(m)[0]))
        size = float(_singular_values(_finite_power(np.linalg.matrix_power(m, n), a, eigenvalue, n))[0])
    if size > 0.0 and math.log(size) > math.log(1e-8) + n * math.log(norm):
        raise NotNilpotent(f"matrix minus {eigenvalue} is not nilpotent (|M^{n}| = {size:.3e})")
    walk = _walk_powers(a, eigenvalue)
    if sum(walk.partition) != n:
        raise ArithmeticError(f"inconsistent rank sequence {walk.ranks}")
    return walk.partition


class _PowerWalk(NamedTuple):
    """What _walk_powers finds for one eigenvalue."""

    ranks: list[int]
    partition: tuple[int, ...]
    powers: list[np.ndarray]
    kernels: list[np.ndarray]


@_kept_tables(lambda n: 2 * n * n)
def _identities(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.eye(n) and np.eye(n, dtype=complex): the identity that a - lam I
    subtracts and the zeroth power of the walk."""
    return np.eye(n), np.eye(n, dtype=complex)


def _finite_power(power: np.ndarray, a: np.ndarray, lam: complex, k: int) -> np.ndarray:
    """The power M^k of M = a - lam I, or a ValueError naming k when it
    has left the double range."""
    if not np.isfinite(power).all():
        raise ValueError(f"powers of the matrix minus {lam} leave the double range: "
                         f"M^{k} is not finite (max |entry| = {np.abs(a).max():.3e})")
    return power


def _singular_values(m: np.ndarray) -> np.ndarray:
    """The singular values of m, largest first, from one LAPACK call
    without vectors: the first has the bits of np.linalg.norm(m, 2).  A
    matrix with no entries has the one value 0."""
    return np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(1)


def _check_finite(a: np.ndarray, eigenvalues: Sequence[complex] = ()) -> None:
    """ValueError naming the first non-finite entry of a or eigenvalue."""
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"matrix entries must be finite, got {a[i, j]} at ({i}, {j})")
    for v in eigenvalues:
        if not cmath.isfinite(v):
            raise ValueError(f"eigenvalues must be finite, got {v}")


def _walk_powers(a: np.ndarray, lam: complex) -> _PowerWalk:
    """Powers M^k of M = a - lam I with their numerical ranks, orthonormal
    kernel bases (columns) and the Jordan partition of lam inside a.

    Rank thresholds scale with each power's own largest singular value; a
    fixed floor of the form c * |M|^k is useless here because a long
    Jordan chain makes the genuine singular values of M^k fall many orders
    below |M|^k.  A power whose largest singular value sits at roundoff
    level relative to the previous one (growth by |M| times 1e-8 slack) is
    snapped to the exact zero matrix, so its kernel is the whole space.
    The walk stops at the zero power or once three ranks agree; past its
    end the ranks stay at the last one, and r_{j-1} - 2 r_j + r_{j+1}
    blocks have size j (other eigenvalues keep full rank and drop out of
    the differences).

    The walk takes one pass: M^k = M^(k-1) @ M for k = 1 .. n into one
    array, stopping at the first power that is exactly zero, and the
    powers before the first non-finite one in one stacked SVD, whose first
    singular value is |M|.  So a Jordan block takes one LAPACK call, and
    powers past the walk's end are SVD'd when no exactly zero power ends
    it first.  Powers are taken without numpy warnings; a non-finite power
    raises only when the walk reaches it (_finite_power).  The identities
    come from a kept table (_identities).
    """
    n = a.shape[0]
    eye, eye_c = _identities(n)
    stack = np.empty((n, n, n), dtype=complex)
    size = 0
    with np.errstate(over="ignore", invalid="ignore"):
        m = a - complex(lam) * eye
        prev = eye_c
        while size < n and prev.any():
            prev = np.matmul(prev, m, out=stack[size])
            size += 1
    powers = [eye_c]
    kernels = [np.zeros((n, 0), dtype=complex)]
    ranks = [n]
    if size:
        _finite_power(stack[0], a, lam, 1)
        finite = np.isfinite(stack[:size]).all(axis=(1, 2))
        end = size if finite.all() else int(np.argmin(finite))
        _, s, vh = np.linalg.svd(stack[:end])
        tops = s[:, 0]
        kept = np.sum(s > tops[:, None] * max(1e-10, n * np.finfo(float).eps), axis=1)
        nrm = float(tops[0])
        prev_top = max(1.0, nrm)
        growth = 1.0
        for top, rank, nxt, v in zip(tops.tolist(), kept.tolist(), stack, vh):
            if top <= 1e-8 * prev_top * growth:
                nxt, v, rank = np.zeros((n, n), dtype=complex), eye_c, 0
            powers.append(nxt)
            kernels.append(v[rank:].conj().T)
            ranks.append(rank)
            if rank == 0 or (len(ranks) > 2 and ranks[-1] == ranks[-2] == ranks[-3]):
                break
            prev_top, growth = top, nrm
        else:
            if end < size:
                _finite_power(stack[end], a, lam, end + 1)

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


@_kept_tables(lambda n: 2 * n * n)
def _strict_triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The boolean masks of the entries below and above the diagonal, the
    masks np.tril(a, -1) and np.triu(a, 1) apply."""
    return np.tri(n, k=-1, dtype=bool), ~np.tri(n, dtype=bool)


def _is_triangular(a: np.ndarray) -> bool:
    """Whether the entries below, or those above, the diagonal are all
    within 1e-12 (1 + max |a|) of zero: one np.abs, read through the
    kept masks of _strict_triangles."""
    mag = np.abs(a)
    lower, upper = _strict_triangles(a.shape[0])
    scale = 1.0 + float(mag.max())
    return min(float(mag.max(where=lower, initial=0.0)), float(mag.max(where=upper, initial=0.0))) <= 1e-12 * scale


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
            qw, basis = _orth(np.hstack(avoid)), null[j]
            _, _, vh = np.linalg.svd(basis - qw @ (qw.conj().T @ basis))
            for t in range(need):
                x = vh[t].conj()
                tops.append((basis @ x, j))
        for v, length in tops:
            cols.extend(powers[length - 1 - t] @ v for t in range(length))
    s = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)
    if s.shape != (n, n):
        raise ArithmeticError(f"Jordan basis has {s.shape[1]} columns for size {n}")
    return s


def equivalent_constant(a, b, eigenvalues: Optional[Sequence[complex]] = None) -> Optional[EquivalenceWitness]:
    """Decide equivalence of two constant factors and produce a witness.

    Constant factors are equivalent exactly when the matrices are similar,
    so this compares eigenvalue clusters and Jordan partitions and, on
    success, returns the constant change of basis B with A = B A' B^(-1).

    Eigenvalues are read off the diagonal for triangular input; otherwise
    they must be supplied (general eigenvalue computation is deliberately
    out of scope).  Near identical inputs short circuit to the identity
    witness.  B is a computed result, pruned as sums are.
    """
    am = a.constant_matrix() if isinstance(a, LaurentMatrix) else np.asarray(a, dtype=complex)
    bm = b.constant_matrix() if isinstance(b, LaurentMatrix) else np.asarray(b, dtype=complex)
    if am.shape != bm.shape or am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    _check_finite(am, () if eigenvalues is None else eigenvalues)
    _check_finite(bm)
    n = am.shape[0]
    scale = 1.0 + max(float(np.max(np.abs(am))), float(np.max(np.abs(bm))))
    if float(np.max(np.abs(am - bm))) <= _CLUSTER_TOL * scale:
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
        if ma != mb or abs(va - vb) > _CLUSTER_TOL * (1.0 + abs(va)):
            return None
    walks_a = [_walk_powers(am, v) for v, _ in ca]
    walks_b = [_walk_powers(bm, v) for v, _ in cb]
    if [wa.partition for wa in walks_a] != [wb.partition for wb in walks_b]:
        return None
    w = _jordan_basis(walks_a) @ np.linalg.inv(_jordan_basis(walks_b))
    if float(np.max(np.abs(am @ w - w @ bm))) > 1e-6 * scale * float(np.linalg.cond(w)):
        raise ArithmeticError("Jordan bases failed to produce a valid witness")
    return EquivalenceWitness(LaurentMatrix._pruned(0, w[None]))
