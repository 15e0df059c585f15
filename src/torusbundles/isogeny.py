"""Transport of factors along the degree r isogeny C*/<q> -> C*/<q^r>.

The covering torus has modulus r*tau.  Pulling a bundle back along the
quotient map multiplies r consecutive translates of the generator;
pushing forward stacks r copies into a block cyclic companion matrix.
The round trip pullback(pushforward(f)) splits into the block diagonal
of the translates f.A(q^i u), which is the computational content of the
classification of bundles of coprime rank and degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laurent import LaurentMatrix, Torus, _check_budget, _check_integer, _require_same_torus
from .cocycle import FactorOfAutomorphy, iterate

__all__ = [
    "IsogenyContext",
    "pullback",
    "pushforward",
    "roundtrip_diag",
    "block_product_identity",
    "companion_block",
]


def _check_degree(r) -> int:
    return _check_integer(r, "isogeny degree must be a positive integer", 1)


@dataclass(frozen=True)
class IsogenyContext:
    """Base and cover tori for the isogeny of multiplicative degree r."""

    base: Torus
    cover: Torus
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_degree(self.r))
        want = self.r * self.base.tau
        if abs(self.cover.tau - want) > 1e-9 * (1.0 + abs(want)):
            raise ValueError(
                f"cover modulus {self.cover.tau!r} is not r * base modulus {want!r}"
            )

    @classmethod
    def for_degree(cls, base: Torus, r: int) -> "IsogenyContext":
        r = _check_degree(r)
        return cls(base, Torus(r * base.tau), r)


def pullback(ctx: IsogenyContext, f: FactorOfAutomorphy) -> FactorOfAutomorphy:
    """Pull a factor on the base up to the cover: the generator becomes
    A(q^(r-1) u) ... A(q u) A(u), the r step iterate in the base nome."""
    _require_same_torus(f.torus, ctx.base)
    return FactorOfAutomorphy(ctx.cover, iterate(f, ctx.r))


def companion_block(a: LaurentMatrix, r: int) -> LaurentMatrix:
    """The block cyclic matrix [[0, I], [a, 0]] with I of size (r-1) * n.

    For r = 1 this is just ``a``.  Else the identity diagonal and a are
    written into one zeroed (K, rn, rn) array, no pruning, which a window
    past SAMPLE_BUDGET refuses with ValueError before allocation.  When
    a carries det a, the companion carries det = (-1)^((r-1) n) det a, so
    its invertibility check and det() take no determinant.
    """
    r = _check_integer(r, "need r >= 1", 1)
    if r == 1:
        return a
    n, k = a.n, len(a._c)
    # a zero a has _lo = 0 and K = 0, so it adds nothing to the window
    lo, hi = min(0, a._lo), max(1, a._lo + k)
    _check_budget("exponent", hi - lo, (r * n) ** 2)
    out = np.zeros((hi - lo, r * n, r * n), dtype=complex)
    np.fill_diagonal(out[-lo, :-n, n:], 1)
    out[a._lo - lo:a._lo - lo + k, -n:, :n] = a._c
    return LaurentMatrix._from_coeffs(lo, out, prune=False)._carry_companion_det(a, r)


def pushforward(ctx: IsogenyContext, f: FactorOfAutomorphy) -> FactorOfAutomorphy:
    """Push a factor on the cover down to the base as a block companion.

    The rank multiplies by r; the determinant picks up the sign
    (-1)^((r-1) n) from the cyclic block structure.
    """
    _require_same_torus(f.torus, ctx.cover)
    return FactorOfAutomorphy(ctx.base, companion_block(f.A, ctx.r))


def roundtrip_diag(ctx: IsogenyContext, f: FactorOfAutomorphy) -> list[FactorOfAutomorphy]:
    """The diagonal blocks of pullback(pushforward(f)) on the cover:
    the translates with generator f.A(q^i u), i = 0 .. r-1, in the base
    nome q.

    The translates are built as one stack, and each is judged invertible
    by its own factor; a failure raises the error of the first failing
    translate, as building them one by one would.  When f.A carries det
    d u^k, as its own check keeps it for one exponent per row, a
    translate by c that loses no coefficient carries d c^k u^k, so its
    check takes no determinant (LaurentMatrix._translate_matrices).
    """
    _require_same_torus(f.torus, ctx.cover)
    q = ctx.base.q
    translates, failure = f.A._translate_matrices([q ** i for i in range(ctx.r)])
    blocks = [FactorOfAutomorphy(ctx.cover, a) for a in translates]
    if failure is not None:
        raise failure
    return blocks


def block_product_identity(blocks: Sequence[LaurentMatrix]) -> LaurentMatrix:
    """Product M_1 M_2 ... M_r of the companions M_i = [[0, I], [A_i, 0]].

    Multiplying the companions of A_1 .. A_r in this order gives the
    block diagonal matrix diag(A_r, ..., A_1); this helper computes the
    left hand side so the identity can be checked externally.
    """
    r = len(blocks)
    if r == 0:
        raise ValueError("need at least one block")
    n = blocks[0].n
    for b in blocks:
        if b.n != n:
            raise ValueError(f"blocks must share one size, got {b.n} and {n}")
    acc = companion_block(blocks[0], r)
    for b in blocks[1:]:
        acc = acc @ companion_block(b, r)
    return acc
