"""Normal forms, degree and recognition of the discrete invariants."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from torusbundles import (
    BundleDescriptor,
    DetVanishesOnCstar,
    FactorOfAutomorphy,
    LaurentMatrix,
    LaurentPoly,
    Torus,
    atiyah_construct,
    companion_block,
    degree,
    descriptor_from_json,
    descriptor_to_json,
    jordan_factor_matrix,
    matrices_close,
    normal_form,
    normal_form_deg0,
    phi0,
    poly_close,
    rank,
    recognize_deg0,
    reduce_param,
    tensor,
)
from torusbundles.classify import _jordan_block, _twisted_core
from helpers import (
    matrix_bytes,
    random_constant_invertible,
    random_factor,
    random_single_exponent_factor,
    winding_on_unit_circle,
)


# ---------------------------------------------------------------------------
# parameter reduction
# ---------------------------------------------------------------------------

def test_reduce_param_fixed_points(any_torus):
    q = any_torus.q
    for a in (0.5, 1.0, -0.25 + 0.3j, cmath.exp(1j)):
        got = reduce_param(any_torus, a)
        assert abs(got - a) <= 1e-12 * abs(a)
    assert abs(q) < abs(reduce_param(any_torus, 0.5)) <= 1.0


def test_reduce_param_strips_powers_of_q(any_torus):
    q = any_torus.q
    a = 0.37 - 0.82j
    for m in (-3, -1, 1, 2, 5):
        got = reduce_param(any_torus, a * q ** m)
        assert abs(got - a) <= 1e-9 * abs(a)


def test_reduce_param_boundary_goes_up(torus):
    # |a| = |q| is identified with modulus one, not kept at the bottom
    q = torus.q
    a = q * cmath.exp(0.4j) / abs(q) * abs(q)  # modulus exactly |q|
    got = reduce_param(torus, a)
    assert abs(abs(got) - 1.0) <= 1e-9


def test_reduce_param_is_multiplicative(any_torus, rng):
    q = any_torus.q
    for _ in range(25):
        x = cmath.exp(2j * math.pi * rng.uniform()) * abs(q) ** rng.uniform(-2, 2)
        y = cmath.exp(2j * math.pi * rng.uniform()) * abs(q) ** rng.uniform(-2, 2)
        lhs = reduce_param(any_torus, x * y)
        rhs = reduce_param(any_torus, reduce_param(any_torus, x) * reduce_param(any_torus, y))
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_reduce_param_range_cap(torus):
    with pytest.raises(ValueError):
        reduce_param(torus, torus.q ** 12, max_power=5)
    with pytest.raises(ValueError):
        reduce_param(torus, 0.0)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_jordan_factor_matrix_shape():
    m = jordan_factor_matrix(3, 0.5j).eval_at(1.0)
    want = np.array([[0.5j, 1, 0], [0, 0.5j, 1], [0, 0, 0.5j]])
    assert np.allclose(m, want)
    with pytest.raises(ValueError):
        jordan_factor_matrix(0, 1.0)


def test_phi0_is_degree_one(any_torus):
    f = FactorOfAutomorphy(any_torus, LaurentMatrix([[phi0(any_torus)]]))
    assert degree(f) == 1
    # value check: phi0(u) = 1 / (s u)
    u = 0.3 - 0.9j
    assert abs(phi0(any_torus)(u) - 1.0 / (any_torus.s * u)) <= 1e-12


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_normal_form_rank_one(torus):
    f = normal_form(torus, 1, 0, 0.7)
    assert matrices_close(f.A, LaurentMatrix([[LaurentPoly.constant(0.7)]]))
    g = normal_form(torus, 1, 2, 0.7)
    want = LaurentPoly.monomial(-2, 0.7 * torus.s ** -2)
    assert matrices_close(g.A, LaurentMatrix([[want]]))


def test_normal_form_deg0_is_jordan_block(torus):
    f = normal_form(torus, 3, 0, 0.7)
    assert matrices_close(f.A, jordan_factor_matrix(3, 0.7))
    assert matrices_close(normal_form_deg0(torus, 3, 0.7).A, f.A)


def test_normal_form_coprime_case(torus):
    # rank 2, degree 1: cyclic block over the degree one line factor
    f = normal_form(torus, 2, 1, 1.0)
    u = 0.8 + 0.1j
    m = f.A.eval_at(u)
    assert np.allclose(m[0], [0, 1])
    assert abs(m[1, 0] - 1.0 / (torus.s * u)) <= 1e-12
    assert abs(m[1, 1]) == 0


def test_normal_form_mixed_gcd(torus):
    # rank 4, degree 2: two cyclic blocks of the twisted 2x2 Jordan factor
    f = normal_form(torus, 4, 2, 0.6)
    assert rank(f) == 4
    assert degree(f) == 2
    m = f.A.eval_at(1.0)
    assert np.allclose(m[0:2, 2:4], np.eye(2))
    core = (jordan_factor_matrix(2, 0.6).scaled(phi0(torus))).eval_at(1.0)
    assert np.allclose(m[2:4, 0:2], core)


def test_normal_form_validation(torus):
    with pytest.raises(ValueError):
        normal_form(torus, 0, 1, 1.0)
    with pytest.raises(ValueError):
        normal_form(torus, 2, 1, 0.0)
    with pytest.raises(ValueError):
        normal_form(torus, 2, 1.5, 1.0)


def test_atiyah_construct_matches_normal_form(any_torus):
    for r, d in [(1, 0), (1, 3), (2, 1), (3, 2), (4, 2), (5, -3), (6, 4)]:
        lhs = normal_form(any_torus, r, d, 0.8j)
        rhs = atiyah_construct(any_torus, r, d, 0.8j)
        assert matrices_close(lhs.A, rhs.A, 1e-12)


def test_normal_forms_above_rank_8(any_torus):
    # rows carrying phi0^d' put the raw samples of det far apart in scale;
    # the sampled invertibility check and degree must still hold there
    a = 0.6 + 0.2j
    for r in range(9, 17):
        for d in range(-8, 9):
            f = normal_form(any_torus, r, d, a)
            g = atiyah_construct(any_torus, r, d, a)
            assert (rank(f), rank(g)) == (r, r)
            assert (degree(f), degree(g)) == (d, d)
            assert matrices_close(f.A, g.A, 1e-12)


def test_normal_forms_past_the_double_range_keep_their_errors():
    # on tau = 5i, |s^-3| ~ 3e20: the det of the rank 16 core overflows at
    # d = 48 and underflows to 0 at d = -48, so it is not carried and the
    # core says so with log10 |det| = 16 (log10 |a| - 3 log10 |s|).  With
    # the last parameter the det has finite parts, about 1.5e308 each,
    # but its modulus overflows; on tau = i, 1e13^24 overflows
    for tau, r, d, a, text in (
        (5j, 16, 48, 0.6 + 0.2j, "phi0^3 A_16(a) is past the double range: log10 |det| = 324.3"),
        (5j, 16, -48, 0.6 + 0.2j, "phi0^-3 A_16(a) is past the double range: log10 |det| = -330.6"),
        (5j, 16, 48, 0.06371288070284659 + 0.0031300131186687338j,
         "phi0^3 A_16(a) is past the double range: log10 |det| = 308.3"),
        (1j, 24, 0, 1e13, "phi0^0 A_24(a) is past the double range: log10 |det| = 312.0"),
    ):
        for build in (normal_form, atiyah_construct):
            with pytest.raises(ValueError) as exc:
                build(Torus(tau), r, d, a)
            assert str(exc.value) == f"det of the twisted core {text}"


def test_twist_past_the_double_range_is_a_domain_error():
    # on tau = 5i, |s| = 1.5e-7: s^48 underflows to 0 and s^-46 overflows,
    # which Python's power reports as ZeroDivisionError and OverflowError
    t = Torus(5j)
    for r, d, dp in ((11, 48, 48), (1, 46, 46), (2, 94, 47)):
        for build in (normal_form, atiyah_construct):
            with pytest.raises(ValueError) as exc:
                build(t, r, d, 0.6 + 0.2j)
            assert str(exc.value) == f"twist s^-d' is past the double range: d' = {dp}, |s| = 1.50702e-07"


@pytest.mark.parametrize("d", [8, 0])
def test_degree_of_normal_forms_takes_no_determinant(monkeypatch, d):
    from torusbundles import laurent

    dets = []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a.shape) or det(a))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: dets.append(len(m)) or pivot_det(m))
    t = Torus(0.3 + 1.1j)
    assert degree(normal_form(t, 12, d, 0.6 + 0.2j)) == d
    assert degree(atiyah_construct(t, 12, d, 0.6 + 0.2j)) == d
    assert dets == []


def _scaled_core(t, r, d, a):
    """The twisted Jordan core as it was composed: the Jordan factor
    scaled by the monomial phi0^d' = s^-d' u^-d', with its det carried
    as the pair (k, c), c through the validating LaurentPoly constructor."""
    h = math.gcd(r, abs(d)) if d else r
    core = jordan_factor_matrix(h, a).scaled(LaurentPoly.monomial(-(d // h), t.s ** -(d // h)))
    pivots = core._c[0].diagonal().tolist() if len(core._c) else [0j]
    det = 0j if 0 in pivots else math.prod(pivots, start=1.0 + 0j)
    if math.isfinite(math.hypot(det.real, det.imag)):
        core._det = h * core._lo, LaurentPoly({0: det}).constant_value()
    return r // h, core


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j], ids=["square", "generic"])
def test_twisted_core_is_the_scaled_jordan_factor_byte_for_byte(tau):
    # a product by a monomial is exact, so a = 1e13 keeps the ones above
    # the diagonal and 1e-5j keeps them too.  On tau = i, where s^-d' is real, -1.3 gives dets with a -0 part, and
    # -1.3 - 1e-320j products whose imaginary part underflows to -0;
    # both are stored as +0
    t = Torus(tau)
    for a in (0.6 + 0.2j, -1.3, complex(-1.3, -1e-320), 1e-5j, 1e13):
        for r in range(1, 17):
            for d in range(-8, 9):
                rp, core = _twisted_core(t, r, d, a)
                want_rp, want = _scaled_core(t, r, d, a)
                assert (rp, matrix_bytes(core)) == (want_rp, matrix_bytes(want))


def test_twisted_core_past_the_double_range_is_the_scaled_jordan_factor():
    # on tau = 5i, (1, -47) and (1, 45) reach the edges of the double
    # range and keep their det; s^48 underflows to 0, so the core of
    # (1, -48) is the zero matrix, and the det of the rank 16 core
    # underflows to 0 at d = -48 and overflows at d = 48: those three
    # raise, naming the core
    t = Torus(5j)
    for r, d in ((1, -47), (1, 45)):
        rp, core = _twisted_core(t, r, d, 0.6 + 0.2j)
        want_rp, want = _scaled_core(t, r, d, 0.6 + 0.2j)
        assert (rp, matrix_bytes(core)) == (want_rp, matrix_bytes(want))
    assert _scaled_core(t, 1, -48, 0.6 + 0.2j)[1]._c.shape == (0, 1, 1)
    assert _scaled_core(t, 16, 48, 0.6 + 0.2j)[1]._det is None
    for r, d, core in ((1, -48, "phi0^-48 A_1(a)"), (16, -48, "phi0^-3 A_16(a)"), (16, 48, "phi0^3 A_16(a)")):
        with pytest.raises(ValueError, match=rf"^det of the twisted core {re.escape(core)} is past the double range: "):
            _twisted_core(t, r, d, 0.6 + 0.2j)


@pytest.mark.parametrize("r, d", [(12, 8), (12, 0), (12, -9), (5, 3)])
def test_normal_forms_build_two_arrays_and_no_polynomial(monkeypatch, r, d):
    # the core and its companion are one coefficient array each, one
    # when r' = 1, and their dets are carried without a LaurentPoly
    # constructor or a determinant
    from torusbundles import laurent

    calls = []
    set_, init = laurent.LaurentMatrix._set, laurent.LaurentPoly.__init__
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(laurent.LaurentMatrix, "_set", lambda m, *args: calls.append("array") or set_(m, *args))
    monkeypatch.setattr(laurent.LaurentPoly, "__init__", lambda p, *args: calls.append("poly") or init(p, *args))
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append("det") or det(a))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: calls.append("det") or pivot_det(m))
    t = Torus(0.3 + 1.1j)
    rp = r // (math.gcd(r, abs(d)) if d else r)
    for build in (normal_form, atiyah_construct):
        calls.clear()
        build(t, r, d, 0.6 + 0.2j)
        assert calls == ["array"] * (1 if rp == 1 else 2)


def test_integer_arguments_take_numpy_integers_and_refuse_bools(torus):
    want = normal_form(torus, 6, 4, 0.5).A
    for build in (normal_form, atiyah_construct):
        got = build(torus, np.int64(6), np.int32(4), 0.5).A
        assert matrix_bytes(got) == matrix_bytes(want)
        for r, d, text in (
            (True, 0, "rank must be a positive integer, got True"),
            (0, 1, "rank must be a positive integer, got 0"),
            (np.int64(-2), 1, "rank must be a positive integer, got np.int64(-2)"),
            (2.0, 1, "rank must be a positive integer, got 2.0"),
            (3, False, "degree must be an integer, got False"),
            (2, 1.5, "degree must be an integer, got 1.5"),
        ):
            with pytest.raises(ValueError) as exc:
                build(torus, r, d, 0.5)
            assert str(exc.value) == text
    assert matrix_bytes(jordan_factor_matrix(np.int64(3), 0.5)) == matrix_bytes(jordan_factor_matrix(3, 0.5))
    for r in (0, True, 2.0):
        with pytest.raises(ValueError) as exc:
            jordan_factor_matrix(r, 0.5)
        assert str(exc.value) == f"need r >= 1, got {r!r}"


def test_companion_carries_the_det_of_its_block(rng):
    # a block with one exponent per row keeps the det its elimination
    # took: the companion's det is (-1)^((r-1) n) det a, to rounding what
    # the companion eliminates to
    for n, r in ((1, 2), (2, 3), (3, 2), (3, 3)):
        shifts = LaurentMatrix.diagonal([LaurentPoly.monomial(int(e)) for e in rng.integers(-2, 3, n)])
        a = shifts @ LaurentMatrix.from_constant(random_constant_invertible(rng, n))
        a.det()
        out = companion_block(a, r)
        assert out._det is not None
        assert out.det() == a.det() * (-1) ** ((r - 1) * n)
        fresh = LaurentMatrix._from_coeffs(out._lo, out._c.copy())
        assert fresh._det is None
        assert poly_close(out.det(), fresh.det(), 1e-12)
    # a block without a det gives a companion without one, and a sampled
    # det is not kept, so it gives none either
    assert companion_block(LaurentMatrix.identity(2), 3)._det is None
    b = LaurentMatrix([[1, LaurentPoly({0: 1, 1: 2})], [0, 1]])
    assert b.det() == 1 and b._det is None
    assert companion_block(b, 3)._det is None


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j], ids=["square", "generic"])
def test_normal_forms_carry_the_det_their_elimination_gives(tau):
    # the pair (k, c) carried by each twisted core and by the companions
    # of normal_form and atiyah_construct, against a copy that carries
    # none and so eliminates
    t = Torus(tau)
    for r in range(1, 17):
        for d in range(-8, 9):
            core = _twisted_core(t, r, d, 0.6 + 0.2j)[1]
            for m in (core, normal_form(t, r, d, 0.6 + 0.2j).A, atiyah_construct(t, r, d, 0.6 + 0.2j).A):
                k, c = m._det
                fresh = LaurentMatrix._from_coeffs(m._lo, m._c.copy())
                assert fresh._det is None
                [(want_k, want)] = fresh.det().terms()
                assert k == want_k and abs(c - want) <= 1e-12 * abs(want)


def _degree_through_det(f):
    """-k of the monomial det() = c u^k, as degree read it before it read
    the pair."""
    [(k, _)] = f.A.det().terms()
    return -k


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j], ids=["square", "generic"])
def test_degree_from_the_pair_is_the_degree_through_det(tau):
    # normal forms, their Atiyah constructions, and every translate of the
    # round trip that passes its check, those past a failing one included
    from torusbundles.laurent import _invertibility_failure

    t = Torus(tau)
    for r in range(1, 17):
        for d in range(-8, 9):
            rp, core = _twisted_core(t, r, d, 0.6 + 0.2j)
            factors = [normal_form(t, r, d, 0.6 + 0.2j), atiyah_construct(t, r, d, 0.6 + 0.2j)]
            cover = Torus(rp * tau)
            translates, _ = core._translate_matrices([t.q ** i for i in range(rp)])
            factors += [FactorOfAutomorphy(cover, a) for a in translates if _invertibility_failure(a, "A") is None]
            for f in factors:
                assert f.A._det is not None
                assert degree(f) == _degree_through_det(f) == -f.A._det[0]


def test_degree_of_single_exponent_factors_reads_the_pair(any_torus, rng, monkeypatch):
    # the check keeps the elimination's pair, which degree reads without det()
    calls = []
    det = LaurentMatrix.det
    monkeypatch.setattr(LaurentMatrix, "det", lambda m: calls.append(m.n) or det(m))
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            f = random_single_exponent_factor(rng, any_torus, n)
            calls.clear()
            got = degree(f)
            assert calls == []
            assert got == _degree_through_det(f)


def test_degree_of_a_sampled_det_goes_through_det(torus, rng, monkeypatch):
    # rows of several exponents carry no pair: degree takes det() once
    calls = []
    det = LaurentMatrix.det
    monkeypatch.setattr(LaurentMatrix, "det", lambda m: calls.append(m.n) or det(m))
    sampled = 0
    for n in (2, 3, 4) * 3:
        f = random_factor(rng, torus, n)
        if f.A._monomial_det() is not None:
            continue
        calls.clear()
        assert degree(f) == _degree_through_det(f)
        assert calls == [n, n] and f.A._det is None
        sampled += 1
    assert sampled


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j], ids=["square", "generic"])
def test_degree_zero_forms_are_one_construction(tau):
    # normal_form_deg0 is normal_form at d = 0, which atiyah_construct
    # pushes forward from a cover of degree one: one matrix, one det
    t = Torus(tau)
    for a in (0.6 + 0.2j, complex(-1.3, -0.0), 1e-13, 1e13):
        for r in range(1, 17):
            want = matrix_bytes(normal_form(t, r, 0, a).A)
            assert want[3] is not None
            assert matrix_bytes(atiyah_construct(t, r, 0, a).A) == want
            assert matrix_bytes(normal_form_deg0(t, r, a).A) == want


@pytest.mark.parametrize("a", [1e13, 1e-13])
def test_extreme_parameters_keep_the_jordan_form(any_torus, a):
    # c A_h(a) is an exact product, so neither the ones nor the diagonal
    # a c fall to a prune against the other, and det has modulus |c a|^h
    for r in range(1, 17):
        for d in range(-8, 9):
            h = math.gcd(r, abs(d)) if d else r
            c = any_torus.s ** -(d // h)
            core = _twisted_core(any_torus, r, d, a)[1]
            assert core._c.shape == (1, h, h) and np.count_nonzero(core._c) == 2 * h - 1
            k, det = core._det
            assert k == -(d // h) * h and math.isclose(abs(det), abs(c * a) ** h, rel_tol=1e-12)
            f = normal_form(any_torus, r, d, a)
            assert math.isclose(abs(f.A._det[1]), abs(det), rel_tol=1e-12)


def test_large_degree_zero_parameter_is_one_jordan_block(any_torus):
    # 1e13 I + N: a prune against 1e13 would drop N, a decomposable bundle
    for r in range(1, 9):
        desc = recognize_deg0(normal_form(any_torus, r, 0, 1e13))
        assert desc is not None and (desc.rank, desc.degree) == (r, 0)


def test_small_degree_zero_parameter_builds(torus):
    # |q^5| = 2.3e-14: a prune against the ones would drop the diagonal, and det
    f = normal_form(torus, 3, 0, torus.q ** 5)
    assert np.count_nonzero(f.A._c) == 5 and degree(f) == 0
    assert recognize_deg0(f).rank == 3


def test_exact_products_past_the_double_range_raise_without_a_warning():
    # on tau = 5i, s^-45 = 1e307, and times 100 it overflows
    t = Torus(5j)
    for build in (
        lambda: normal_form(t, 1, 45, 100),
        lambda: atiyah_construct(t, 1, 45, 100),
        lambda: LaurentMatrix([[1e200]]).scaled(1e200),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                build()
        assert str(exc.value) == "non-finite coefficient in a 1 x 1 matrix"


def test_bad_rank_of_a_degree_zero_form_reads_as_normal_forms():
    for r in (0, True, 2.0):
        with pytest.raises(ValueError) as exc:
            normal_form_deg0(Torus(1j), r, 0.5)
        assert str(exc.value) == f"rank must be a positive integer, got {r!r}"


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------

def test_degree_of_monomials(torus):
    for k in (-3, -1, 0, 2):
        f = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly.monomial(k, 1.7)]]))
        assert degree(f) == -k


def test_degree_matches_winding_oracle(any_torus, rng):
    for _ in range(10):
        f = random_factor(rng, any_torus, 2)
        det = f.A.det()
        assert degree(f) == -winding_on_unit_circle(det)


def test_degree_of_normal_forms(any_torus):
    for r in range(1, 5):
        for d in range(-4, 5):
            f = normal_form(any_torus, r, d, 0.5 + 0.1j)
            assert rank(f) == r
            assert degree(f) == d


def test_degree_rejects_root_on_annulus(torus):
    f = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly({0: 1.0, 1: 0.5})]]))
    with pytest.raises(DetVanishesOnCstar):
        degree(f)


def test_degree_ignores_far_roots(torus):
    # det = u (u + 1e7): the huge root is outside the working annulus,
    # the factor u contributes winding one
    a = LaurentPoly({0: 1e7, 1: 1.0})
    f = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly.zero(), LaurentPoly.monomial(1)],
                                                 [a.__neg__(), LaurentPoly.zero()]]))
    det = f.A.det()
    assert det.is_monomial() is None
    assert degree(f) == -1
    assert degree(f) == -winding_on_unit_circle(det)


def test_degree_additive_under_tensor(torus):
    f = normal_form(torus, 2, 1, 0.9)
    g = normal_form(torus, 3, 2, 0.4)
    # det(A x B) = det A^rank(B) * det B^rank(A)
    assert degree(tensor(f, g)) == 3 * 1 + 2 * 2


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def test_recognize_round_trip(any_torus, rng):
    q = any_torus.q
    for r in (1, 2, 3, 5):
        for _ in range(5):
            a = cmath.exp(2j * math.pi * rng.uniform()) * abs(q) ** rng.uniform(0.0, 0.98)
            desc = recognize_deg0(normal_form_deg0(any_torus, r, a))
            assert desc is not None
            assert desc.rank == r
            assert desc.degree == 0
            assert abs(desc.param - a) <= 1e-8 * abs(a)


def test_recognize_reduces_parameter(torus):
    a = 0.3 + 0.4j
    desc = recognize_deg0(normal_form_deg0(torus, 2, a * torus.q ** 3))
    assert desc is not None
    assert abs(desc.param - a) <= 1e-8 * abs(a)


def test_recognize_rejects_decomposable(torus):
    # diagonal with equal entries is two line bundles, not one block
    f = FactorOfAutomorphy(torus, LaurentMatrix.from_constant(0.5 * np.eye(2)))
    assert recognize_deg0(f) is None
    # distinct eigenvalues are not a single Jordan block either
    g = FactorOfAutomorphy(torus, LaurentMatrix.from_constant(np.diag([0.5, 0.7])))
    assert recognize_deg0(g) is None


def test_recognize_input_contract(torus, rng):
    nonconst = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly.monomial(1)]]))
    with pytest.raises(ValueError):
        recognize_deg0(nonconst)
    full = FactorOfAutomorphy(torus, LaurentMatrix.from_constant(
        np.array([[1.0, 0.3], [0.2, 1.0]])))
    with pytest.raises(ValueError):
        recognize_deg0(full)


def test_recognize_nu_range_cap(torus):
    with pytest.raises(ValueError):
        recognize_deg0(normal_form_deg0(torus, 2, torus.q ** 40), nu_range=8)


@pytest.mark.parametrize("nu_range", [True, 2.5, -1])
def test_recognize_nu_range_must_be_a_non_negative_integer(torus, nu_range):
    f = normal_form_deg0(torus, 2, 0.5)
    with pytest.raises(ValueError, match=f"^nu_range must be a non-negative integer, got {nu_range!r}$"):
        recognize_deg0(f, nu_range=nu_range)
    assert recognize_deg0(f, nu_range=np.int64(0)).rank == 2


def test_jordan_blocks_are_the_scaled_identity_plus_the_shift():
    for r in (1, 2, 7, 22, 23, 40):
        for a in (0.6 + 0.2j, -1.3 - 0j, 1e-13, complex(-0.0, 2.0)):
            block = _jordan_block(r, a)
            assert block.flags.writeable
            assert block.tobytes() == (complex(a) * np.eye(r, dtype=complex) + np.eye(r, k=1, dtype=complex)).tobytes()


@pytest.mark.parametrize("a", [math.nan, complex(0.5, math.inf), 1.5e308 + 1.5e308j])
def test_jordan_blocks_reject_a_non_finite_parameter(a):
    with pytest.raises(ValueError, match="^non-finite coefficient in a 2 x 2 matrix$"):
        jordan_factor_matrix(2, a)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_json_round_trip():
    d = BundleDescriptor(3, -2, 0.25 - 0.75j)
    back = descriptor_from_json(descriptor_to_json(d))
    assert back == d


@pytest.mark.parametrize("key", ["rank", "degree"])
def test_descriptor_json_reads_integers_only(key):
    data = descriptor_to_json(BundleDescriptor(3, -2, 0.25 - 0.75j))
    for value in (2, 2.0):
        back = descriptor_from_json({**data, key: value})
        assert getattr(back, key) == 2 and type(getattr(back, key)) is int
    for value in (2.5, "2", True):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            descriptor_from_json({**data, key: value})


def test_descriptor_validation():
    with pytest.raises(ValueError):
        BundleDescriptor(0, 0, 1.0)
    with pytest.raises(ValueError):
        BundleDescriptor(2, 0, 0.0)
    with pytest.raises(ValueError):
        BundleDescriptor(2, 0.5, 1.0)


def test_descriptor_takes_numpy_integers_and_refuses_bools():
    d = BundleDescriptor(np.int64(2), np.int32(-3), 1.0)
    assert (d.rank, d.degree) == (2, -3) and (type(d.rank), type(d.degree)) == (int, int)
    assert descriptor_from_json(descriptor_to_json(d)) == d
    for args, text in (
        ((True, 0, 1.0), "rank must be a positive integer, got True"),
        ((np.int64(0), 0, 1.0), "rank must be a positive integer, got np.int64(0)"),
        ((2, False, 1.0), "degree must be an integer, got False"),
        ((2, 0.5, 1.0), "degree must be an integer, got 0.5"),
    ):
        with pytest.raises(ValueError) as exc:
            BundleDescriptor(*args)
        assert str(exc.value) == text
