"""Pullback, pushforward and the companion block identities."""

import warnings

import numpy as np
import pytest

from torusbundles import (
    FactorOfAutomorphy,
    IsogenyContext,
    LaurentMatrix,
    LaurentPoly,
    Torus,
    block_diagonal,
    block_product_identity,
    companion_block,
    degree,
    iterate,
    jordan_factor_matrix,
    matrices_close,
    phi0,
    pullback,
    pushforward,
    rank,
    roundtrip_diag,
)
from torusbundles.classify import _twisted_core
from helpers import (
    matrix_bytes,
    random_monomial_det_matrix,
    random_single_exponent_factor,
    random_single_exponent_matrix,
)


@pytest.fixture
def ctx():
    base = Torus(0.3 + 1.1j)
    return IsogenyContext.for_degree(base, 3)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

def test_context_construction():
    base = Torus(1j)
    ctx = IsogenyContext.for_degree(base, 4)
    assert ctx.cover.tau == 4j
    assert ctx.r == 4
    # cover nome is the r-th power of the base nome
    assert abs(ctx.cover.q - base.q ** 4) <= 1e-12 * abs(ctx.cover.q)


def test_context_rejects_wrong_cover():
    with pytest.raises(ValueError):
        IsogenyContext(Torus(1j), Torus(2.5j), 2)
    with pytest.raises(ValueError):
        IsogenyContext.for_degree(Torus(1j), 0)
    with pytest.raises(ValueError):
        IsogenyContext.for_degree(Torus(1j), 2.0)


def test_context_takes_numpy_integers_and_refuses_bools():
    base = Torus(1j)
    for ctx in (IsogenyContext.for_degree(base, np.int64(2)), IsogenyContext(base, Torus(2j), np.int32(2))):
        assert ctx == IsogenyContext.for_degree(base, 2)
        assert type(ctx.r) is int
    for r in (True, 0, np.int64(-1)):
        with pytest.raises(ValueError) as exc:
            IsogenyContext.for_degree(base, r)
        assert str(exc.value) == f"isogeny degree must be a positive integer, got {r!r}"


def test_degree_one_is_identity_transport(rng):
    base = Torus(1j)
    ctx = IsogenyContext.for_degree(base, 1)
    f = random_single_exponent_factor(rng, base, 2)
    assert matrices_close(pullback(ctx, f).A, f.A)
    assert matrices_close(pushforward(ctx, f).A, f.A)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_is_iterate_in_base_nome(ctx, rng):
    f = random_single_exponent_factor(rng, ctx.base, 2)
    up = pullback(ctx, f)
    assert up.torus == ctx.cover
    assert matrices_close(up.A, iterate(f, 3), 1e-10)


def test_pullback_torus_mismatch(ctx, rng):
    f = random_single_exponent_factor(rng, ctx.cover, 2)
    with pytest.raises(ValueError):
        pullback(ctx, f)


def test_pullback_multiplies_degree(ctx):
    # det u^(-1) has degree 1 downstairs, r upstairs
    f = FactorOfAutomorphy(ctx.base, LaurentMatrix([[LaurentPoly.monomial(-1, 2.0)]]))
    assert degree(f) == 1
    assert degree(pullback(ctx, f)) == 3


# ---------------------------------------------------------------------------
# companion blocks and pushforward
# ---------------------------------------------------------------------------

def test_companion_block_layout(torus, rng):
    a = random_monomial_det_matrix(rng, 2)
    c = companion_block(a, 3)
    assert c.n == 6
    eye = np.eye(2)
    u0 = 0.7 + 0.2j
    m = c.eval_at(u0)
    assert np.allclose(m[0:2, 2:4], eye)
    assert np.allclose(m[2:4, 4:6], eye)
    assert np.allclose(m[4:6, 0:2], a.eval_at(u0))
    assert np.allclose(m[0:2, 0:2], 0)


def _assembled_companion(a, r):
    """[[0, I], [a, 0]] as it was assembled from the blocks I = identity
    of size (r-1) n and a: their block diagonal with its columns rotated
    by n, and the det (-1)^((r-1) n) det a through the validating
    LaurentPoly constructor."""
    n = a.n
    diag = block_diagonal([LaurentMatrix.identity((r - 1) * n), a])
    want = LaurentMatrix._from_coeffs(diag._lo, np.roll(diag._c, n, axis=2), prune=False)
    if a._det is not None:
        sign = (-1) ** ((r - 1) * n)
        want._det = LaurentPoly({k: sign * c for k, c in a._det._c.items()})
    return want


def _companion_blocks(rng):
    """Blocks of every kind companion_block meets, with and without a
    carried det: the twisted Jordan cores of the normal form grid r <= 16,
    |d| <= 8 on both tori (with their r'), blocks of several exponents on
    either side of 0, a det of several terms, and the zero block.  On
    tau = i, a = -1.3 gives real dets, whose sign change leaves a -0
    part that is stored as +0."""
    for tau in (1j, 0.3 + 1.1j):
        for a in (0.6 + 0.2j, -1.3):
            for r in range(1, 17):
                for d in range(-8, 9):
                    rp, core = _twisted_core(Torus(tau), r, d, a)
                    yield core, rp
    u = LaurentPoly.monomial(1)
    several = [
        random_monomial_det_matrix(rng, 3),
        LaurentMatrix([[u ** 2, 3 * u ** 4], [0, 1j * u ** 3]]),
        LaurentMatrix([[LaurentPoly({-3: 1.0, -1: 2j}), 0], [0.5, LaurentPoly.monomial(-2)]]),
        LaurentMatrix([[1 + u, u ** 2], [3, LaurentPoly.monomial(-1)]]),
        LaurentMatrix.zeros(2),
    ]
    for a in several:
        for r in (2, 3, 5):
            yield LaurentMatrix._from_coeffs(a._lo, a._c.copy(), prune=False), r
        a.det()
        for r in (2, 3, 5):
            yield a, r


def test_companion_block_is_the_assembled_companion_byte_for_byte(rng):
    count = 0
    for a, r in _companion_blocks(rng):
        got = companion_block(a, r)
        if r == 1:
            assert got is a
            continue
        assert matrix_bytes(got) == matrix_bytes(_assembled_companion(a, r))
        count += 1
    # 864 grid cores with r' > 1, 30 other blocks
    assert count == 894


def test_companion_block_takes_numpy_integers_and_refuses_bools():
    a = jordan_factor_matrix(2, 0.5)
    assert matrix_bytes(companion_block(a, np.int64(3))) == matrix_bytes(companion_block(a, 3))
    for r in (True, 0, 1.0):
        with pytest.raises(ValueError) as exc:
            companion_block(a, r)
        assert str(exc.value) == f"need r >= 1, got {r!r}"


def test_pushforward_shape_and_torus(ctx, rng):
    f = random_single_exponent_factor(rng, ctx.cover, 2)
    down = pushforward(ctx, f)
    assert down.torus == ctx.base
    assert rank(down) == 6


def test_pushforward_preserves_degree(ctx):
    f = FactorOfAutomorphy(ctx.cover, LaurentMatrix([[LaurentPoly.monomial(-2, 1.5)]]))
    assert degree(f) == 2
    assert degree(pushforward(ctx, f)) == 2


# ---------------------------------------------------------------------------
# the product identity for companions
# ---------------------------------------------------------------------------

def test_block_product_identity_by_hand(torus):
    # two 1x1 blocks a and b: [[0,1],[a,0]] @ [[0,1],[b,0]] = diag(b, a)
    a = LaurentMatrix([[LaurentPoly.monomial(1, 2.0)]])
    b = LaurentMatrix([[LaurentPoly.constant(3.0)]])
    got = block_product_identity([a, b])
    want = block_diagonal([b, a])
    assert matrices_close(got, want)


def test_block_product_identity_random(rng):
    for r in (2, 3, 5):
        blocks = [random_monomial_det_matrix(rng, 2) for _ in range(r)]
        got = block_product_identity(blocks)
        want = block_diagonal(list(reversed(blocks)))
        assert matrices_close(got, want, 1e-10)


def test_block_product_rejects_mixed_sizes(rng):
    with pytest.raises(ValueError):
        block_product_identity([
            random_monomial_det_matrix(rng, 2),
            random_monomial_det_matrix(rng, 3),
        ])


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_roundtrip_diagonalizes(ctx, rng):
    f = random_single_exponent_factor(rng, ctx.cover, 2)
    trip = pullback(ctx, pushforward(ctx, f))
    blocks = roundtrip_diag(ctx, f)
    assert len(blocks) == ctx.r
    assert all(b.torus == ctx.cover for b in blocks)
    want = block_diagonal([b.A for b in blocks])
    assert matrices_close(trip.A, want, 1e-9)


def test_roundtrip_first_block_is_f(ctx, rng):
    f = random_single_exponent_factor(rng, ctx.cover, 2)
    blocks = roundtrip_diag(ctx, f)
    assert matrices_close(blocks[0].A, f.A)
    # later blocks substitute the base nome, not the cover nome
    q = ctx.base.q
    assert matrices_close(blocks[1].A, f.A.substitute_scaled(q), 1e-12)


def test_pushforward_rank_times_degree_bookkeeping(ctx):
    # rank r * n and degree preserved combine to the slope dividing by r
    f = FactorOfAutomorphy(ctx.cover, LaurentMatrix([[LaurentPoly.monomial(-1, 1.0)]]))
    down = pushforward(ctx, f)
    assert (rank(f), degree(f)) == (1, 1)
    assert (rank(down), degree(down)) == (3, 1)


def test_roundtrip_beyond_double_range_is_a_clean_error():
    # the degree 15 cover of the rank 15, degree 8 normal form: the
    # translates of phi0^8 carry |q|^(-8 i), i < 15, past the double range
    base = Torus(1j)
    ctx = IsogenyContext.for_degree(base, 15)
    f = FactorOfAutomorphy(ctx.cover, jordan_factor_matrix(1, 0.6 + 0.2j).scaled(phi0(base) ** 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises((OverflowError, ValueError), match="complex exponentiation|non-finite coefficient"):
            roundtrip_diag(ctx, f)


# the cells of the normal form grid whose round trip fails, with the
# errors that building the translates one by one gives
ROUNDTRIP_ERRORS = {
    (1j, 15, 8): (ValueError, "non-finite coefficient after substituting u -> (6.27280941120809e-39+0j) u"),
    (0.3 + 1.1j, 15, 8): (OverflowError, "complex exponentiation"),
    (0.3 + 1.1j, 15, -8): (ValueError, "generator fails the sampled invertibility check (|det A(1)| = 0)"),
    (0.3 + 1.1j, 16, 7): (OverflowError, "complex exponentiation"),
    (0.3 + 1.1j, 16, -7): (ValueError, "generator fails the sampled invertibility check (|det A(1)| = 0)"),
}


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j], ids=["square", "generic"])
def test_roundtrip_is_the_translates_byte_for_byte(tau):
    # the twisted Jordan cores of the normal form grid r <= 16, |d| <= 8
    t = Torus(tau)
    for r in range(1, 17):
        for d in range(-8, 9):
            rp, core = _twisted_core(t, r, d, 0.6 + 0.2j)
            ctx = IsogenyContext.for_degree(t, rp)
            f = FactorOfAutomorphy(ctx.cover, core)
            if (tau, r, d) in ROUNDTRIP_ERRORS:
                kind, text = ROUNDTRIP_ERRORS[tau, r, d]
                with pytest.raises(Exception) as exc:
                    roundtrip_diag(ctx, f)
                assert (type(exc.value), str(exc.value)) == (kind, text)
                continue
            blocks = roundtrip_diag(ctx, f)
            assert len(blocks) == rp
            for i, b in enumerate(blocks):
                want = core.substitute_scaled(ctx.base.q ** i)
                assert (b.A._lo, b.A._c.shape, b.A._c.tobytes()) == (want._lo, want._c.shape, want._c.tobytes())


def test_roundtrip_raises_the_first_failing_translate():
    # on tau = i, translate 2 of diag(u^60, u^-50) loses its first row to
    # underflow, and translate 3 cannot be built: (q^3)^50 underflows to
    # 0, so (q^3)^-50 divides by zero
    ctx = IsogenyContext.for_degree(Torus(1j), 4)
    for diag, kind, text in (
        ([LaurentPoly.monomial(60), LaurentPoly.monomial(-50)],
         ValueError, "generator fails the sampled invertibility check (|det A(1)| = 0)"),
        ([1, LaurentPoly.monomial(-50)], ZeroDivisionError, "0.0 to a negative or complex power"),
    ):
        f = FactorOfAutomorphy(ctx.cover, LaurentMatrix.diagonal(diag))
        with pytest.raises(Exception) as exc:
            roundtrip_diag(ctx, f)
        assert (type(exc.value), str(exc.value)) == (kind, text)


def test_roundtrip_takes_one_determinant(rng, monkeypatch):
    from torusbundles import laurent

    ctx = IsogenyContext.for_degree(Torus(0.3 + 1.1j), 7)
    a = random_single_exponent_matrix(rng, 3)
    dets, eliminations = [], []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a.shape) or det(a))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: eliminations.append(len(m)) or pivot_det(m))
    f = FactorOfAutomorphy(ctx.cover, a)
    blocks = roundtrip_diag(ctx, f)
    assert len(blocks) == 7
    # one elimination, which f's check took: each translate carries the
    # det d c^k from it, which its check and its det() read
    for b in blocks:
        b.A.det()
    assert (dets, eliminations) == ([], [3])


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j], ids=["square", "generic"])
def test_translates_carry_the_det_their_elimination_gives(tau):
    # every translate of the twisted Jordan cores of the normal form grid
    # r <= 16, |d| <= 8, those the round trip does not reach included,
    # against a copy that carries no det and so eliminates
    from torusbundles.laurent import _invertibility_failure

    t = Torus(tau)
    for r in range(1, 17):
        for d in range(-8, 9):
            rp, core = _twisted_core(t, r, d, 0.6 + 0.2j)
            translates, _ = core._translate_matrices([t.q ** i for i in range(rp)])
            for a in translates:
                carried = a._det
                fresh = LaurentMatrix._from_coeffs(a._lo, a._c.copy(), prune=False)
                assert (a._lo, a._c.shape) == (fresh._lo, fresh._c.shape)
                verdict = _invertibility_failure(fresh, "A")
                assert _invertibility_failure(a, "A") == verdict
                # every translate that passes the check carries its det
                assert (carried is None) == (verdict is not None)
                if carried is not None:
                    [(k, got)] = carried.terms()
                    [(want_k, want)] = fresh.det().terms()
                    assert k == want_k and abs(got - want) <= 1e-12 * abs(want)


def test_translates_of_random_factors_carry_their_det(any_torus, rng):
    q = any_torus.q
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            f = random_single_exponent_factor(rng, any_torus, n)
            translates, failure = f.A._translate_matrices([q, q ** 2, q ** 3])
            assert failure is None
            for a in translates:
                [(k, got)] = a._det.terms()
                [(want_k, want)] = LaurentMatrix._from_coeffs(a._lo, a._c.copy(), prune=False).det().terms()
                assert k == want_k and abs(got - want) <= 1e-10 * abs(want)


def test_a_det_that_underflows_is_not_carried():
    # on tau = i, no coefficient of diag(u^30, ..., u^30) underflows in
    # its translates by q^i, i < 4, but |q|^300 is 1e-818: the translates
    # past the first carry no det, and the elimination of translate 1
    # finds |det A(1)| = 0, as it did before any det was carried
    ctx = IsogenyContext.for_degree(Torus(1j), 4)
    f = FactorOfAutomorphy(ctx.cover, LaurentMatrix.diagonal([LaurentPoly.monomial(30)] * 10))
    translates, failure = f.A._translate_matrices([ctx.base.q ** i for i in range(4)])
    assert failure is None
    assert [a._det is None for a in translates] == [False, True, True, True]
    with pytest.raises(ValueError) as exc:
        roundtrip_diag(ctx, f)
    assert str(exc.value) == "generator fails the sampled invertibility check (|det A(1)| = 0)"
