import math
import time
import tracemalloc

import numpy as np
import pytest

from torusbundles import (
    EquivalenceWitness,
    FactorOfAutomorphy,
    LaurentMatrix,
    LaurentPoly,
    NotInvertibleInRing,
    NotNilpotent,
    Torus,
    check_witness,
    equivalent_constant,
    factor_from_json,
    factor_to_json,
    is_trivial_rank1_constant,
    is_trivial_unipotent2,
    iterate,
    jordan_type_unipotent,
    matrices_close,
    normal_form,
    poly_close,
    recognize_deg0,
)

from torusbundles.cocycle import _is_triangular, _strict_triangles, _walk_powers

from helpers import (
    reference_walk_powers,
    random_constant_invertible,
    random_factor,
    random_laurent,
    random_monomial_det_matrix,
    random_single_exponent_factor,
    random_single_exponent_matrix,
    reference_trivial_nu,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_factor_rejects_degenerate_generator(torus):
    with pytest.raises(ValueError):
        FactorOfAutomorphy(torus, LaurentMatrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        # det = 1 + u vanishes at u = -1
        FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly({0: 1, 1: 1})]]))


def test_factor_accepts_tiny_constant(torus):
    f = FactorOfAutomorphy(torus, LaurentMatrix([[torus.q ** 10]]))
    assert f.rank == 1


def test_factor_json_roundtrip(rng, torus):
    f = random_factor(rng, torus, 2)
    g = factor_from_json(factor_to_json(f))
    assert g.torus.tau == f.torus.tau
    assert (g.A - f.A).max_coeff() == 0.0


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def test_iterate_small_cases(torus):
    u = LaurentPoly.monomial(1)
    f = FactorOfAutomorphy(torus, LaurentMatrix([[0, 1], [u, 0]]))
    assert matrices_close(iterate(f, 0), LaurentMatrix.identity(2))
    assert matrices_close(iterate(f, 1), f.A)
    two = iterate(f, 2)
    # A(qu) A(u) = [[u, 0], [0, q u]]
    assert two.entry(0, 0) == u
    assert two.entry(1, 1).terms() == [(1, torus.q)]


def test_iterate_negative_is_inverse(any_torus, rng):
    # single exponent factors keep the iterates at one coefficient
    # scale, which is the regime where ring inversion is numerically
    # meaningful on tori with small |q|
    q = any_torus.q
    f = random_single_exponent_factor(rng, any_torus, 2)
    for m in (1, 2, 3):
        pos = iterate(f, m).substitute_scaled(q ** -m)
        neg = iterate(f, -m)
        assert matrices_close(pos @ neg, LaurentMatrix.identity(2), 1e-8)


def _translate_chain(f, m):
    """A(q^(m-1) u) ... A(u), or A(q^m u)^-1 ... A(q^-1 u)^-1 of one
    inverse, one substitution and one @ at a time: its lowest exponent
    and coefficient bytes."""
    a, q = f.A, f.torus.q
    base = a if m > 0 else a.inverse_monomial_det()
    want = base if m > 0 else base.substitute_scaled(q ** -1)
    for i in range(1, abs(m)):
        want = base.substitute_scaled(q ** i if m > 0 else q ** (-1 - i)) @ want
    return want._lo, want._c.tobytes()


def test_iterate_is_the_product_of_translates_byte_for_byte(any_torus, rng):
    # single exponent factors (one slice) and mixed ones on [-1, 1] and
    # [-2, 2] (up to five), n = 1..8, m = +-1..8
    for n in range(1, 9):
        for f in (random_single_exponent_factor(rng, any_torus, n),
                  random_factor(rng, any_torus, n, -1, 1), random_factor(rng, any_torus, n, -2, 2)):
            for m in (*range(-8, 0), *range(1, 9)):
                got = iterate(f, m)
                assert (got._lo, got._c.tobytes()) == _translate_chain(f, m), (n, len(f.A._c), m)


def test_iterate_trims_an_end_slice_that_underflows_as_the_product_does():
    # on tau = i, |q| = exp(-2 pi): the top coefficient q^(m (m - 1)) of
    # A(m, u), at u^(2m), underflows to 0 from m = 12 on, and so the
    # running product loses its u^24 slice partway; from m = 61 on, the
    # u^2 slice of the translate A(q^60 u) underflows to 0 too
    u = LaurentPoly.monomial
    f = FactorOfAutomorphy(Torus(1j), LaurentMatrix([[LaurentPoly({0: 2, 2: 1}), u(1)], [0, 1]]))
    for m in (11, 12, 14, 62):
        got = iterate(f, m)
        assert (got._lo, got._c.tobytes()) == _translate_chain(f, m)
        assert (got._lo, len(got._c)) == (0, min(2 * m, 22) + 1)


def test_negative_iterates_of_a_mixed_factor(torus):
    # det A = 2 while the sampled det of A(m, u) carries noise terms from
    # m = 2 on, so the negative iterates invert A, not A(m, u)
    s = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    t = np.array([[1, 2, 0], [0, 1, 0], [0, 1, 1]])
    mid = LaurentMatrix.diagonal([LaurentPoly.monomial(-1), 1, LaurentPoly.monomial(1)])
    f = FactorOfAutomorphy(torus, LaurentMatrix.from_constant(s) @ mid @ LaurentMatrix.from_constant(t))
    q = torus.q
    for m in (1, 2, 3, 4):
        got = iterate(f, -m)
        for u0 in np.exp(2j * np.pi * np.array([0.1234, 0.4321, 0.777])):
            want = np.eye(3)
            for i in range(1, m + 1):
                # A(q^-i u) has condition number near |q|^(-2i); from m = 3
                # on numpy's inverse of it loses more than the tolerance,
                # so it is inverted through its factors instead
                d = np.array([q ** i / u0, 1, u0 / q ** i])
                if m <= 2:
                    want = np.linalg.inv(s @ np.diag(d) @ t) @ want
                else:
                    want = np.linalg.inv(t) @ np.diag(1 / d) @ np.linalg.inv(s) @ want
            assert np.max(np.abs(got.eval_at(u0) - want)) <= 1e-9 * np.max(np.abs(want))


def _pinned_factor(name):
    t, u = Torus(1j), LaurentPoly.monomial
    if name == "single u^1":
        return FactorOfAutomorphy(t, LaurentMatrix([[u(1, 2), u(1, 1)], [u(1, 1), u(1, 1)]]))
    if name == "single u^-1":
        return FactorOfAutomorphy(t, LaurentMatrix([[u(-1, 0.5)]]))
    if name == "mixed":
        left = LaurentMatrix.from_constant([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        right = LaurentMatrix.from_constant([[1, 2, 0], [0, 1, 0], [0, 1, 1]])
        return FactorOfAutomorphy(t, left @ LaurentMatrix.diagonal([u(-1), 1, u(1)]) @ right)
    r, d = {"normal form (2, 1)": (2, 1), "normal form (3, -2)": (3, -2)}[name]
    return normal_form(t, r, d, 0.6 + 0.2j)


_MATMUL = "non-finite coefficient in a {} x {} matrix"
_SCALE = "non-finite coefficient after substituting u -> (3.458631861633369e+155+0j) u"
_ZERO = "A(m, u) underflows to the zero matrix at m = {}"


# what taking the translates one substitution at a time raises on tau = i;
# a matmul overflow that comes before an overflowing power q^i is raised
# first, and a product that underflows to the zero matrix is refused
@pytest.mark.parametrize("name, m, error", [
    ("single u^1", -150, (OverflowError, "complex exponentiation")),
    ("single u^1", -120, (OverflowError, "complex exponentiation")),
    ("single u^1", -101, (ValueError, _ZERO.format(-101))),
    ("single u^1", 101, (ValueError, _ZERO.format(101))),
    ("single u^1", 150, (ValueError, "substitution scale must be nonzero")),
    *[("single u^-1", m, (ValueError, _MATMUL.format(1, 1))) for m in (-150, -120, -101, 101, 150)],
    *[("normal form (2, 1)", m, (ValueError, _MATMUL.format(2, 2))) for m in (-150, -120, -101, 101, 150)],
    *[("normal form (3, -2)", m, (ValueError, _SCALE)) for m in (-150, -120, -101)],
    ("normal form (3, -2)", 101, (ValueError, _ZERO.format(101))),
    ("normal form (3, -2)", 150, (ValueError, "substitution scale must be nonzero")),
    *[("mixed", m, (ValueError, _MATMUL.format(3, 3))) for m in (-150, -120, -101, 101, 150)],
])
def test_long_iterates_raise_the_first_error_of_the_product(name, m, error):
    f = _pinned_factor(name)
    # under the suite's error::RuntimeWarning filter: no numpy warning comes first
    with pytest.raises(error[0]) as exc:
        iterate(f, m)
    assert str(exc.value) == error[1]


@pytest.mark.parametrize("m", [3000, -3000])
def test_long_iterate_takes_its_translates_in_bounded_stacks(monkeypatch, m):
    # |q| = 0.9937, so q^i stays in range for |i| in the thousands; with
    # a budget of 1024 elements each stack holds 128 translates of 8
    from torusbundles import cocycle

    f = FactorOfAutomorphy(Torus(0.001j), LaurentMatrix([[1, LaurentPoly.monomial(1)], [0, 1]]))
    want = iterate(f, m)
    stacks, translate_stack = [], LaurentMatrix._translate_stack

    def spy(mat, scales):
        out = translate_stack(mat, scales)
        stacks.append(out[0].size)
        return out

    monkeypatch.setattr(LaurentMatrix, "_translate_stack", spy)
    monkeypatch.setattr(cocycle, "SAMPLE_BUDGET", 1024)
    peaks = []
    for k in (m, 2 * m):
        tracemalloc.start()
        got = iterate(f, k)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        if k == m:
            assert (got._lo, got._c.tobytes()) == (want._lo, want._c.tobytes())
    # A(k, u) takes k - 1 translates for k > 0 and -k for k < 0
    count = sum(math.ceil((k - 1 if k > 0 else -k) / 128) for k in (m, 2 * m))
    assert max(stacks) == 1024 and len(stacks) == count
    # 16 bytes an element: a stack is 16 KiB, and the peak does not grow with |m|
    assert peaks[0] < 10 * 16 * 1024 and peaks[1] < 1.25 * peaks[0]


def test_iterate_negative_needs_monomial_det(torus):
    # invertible on the circle but det = 1 + u/2 is not a monomial
    f = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly({0: 1, 1: 0.5})]]))
    with pytest.raises(NotInvertibleInRing):
        iterate(f, -1)


def test_cocycle_law(any_torus, rng):
    q = any_torus.q
    for size in (1, 2, 3):
        f = random_factor(rng, any_torus, size)
        its = [iterate(f, m) for m in range(7)]
        for m in range(4):
            for mp in range(4):
                lhs = its[m + mp]
                rhs = its[m].substitute_scaled(q ** mp) @ its[mp]
                assert matrices_close(lhs, rhs, 1e-9)


def test_iterate_keeps_every_entry_of_a_widely_scaled_product():
    # A(q^2 u) A(q u) A(u) of this normal form has 4 nonzero entries,
    # one term each, from 1 to 2.7e20; pruning each product at 1e-12 of
    # its largest coefficient would leave 2 of them
    m = iterate(normal_form(Torus(1j), 4, 3, 0.94), 3)
    assert np.count_nonzero(m._c.any(axis=0)) == 4


def _exponent_pattern(n, lo, hi):
    # the ends of the support first, then inward, so every rank reaches both ends
    order, a, b = [], lo, hi
    while a <= b:
        order += [a] if a == b else [a, b]
        a, b = a + 1, b - 1
    return [order[k % len(order)] for k in range(n)]


def _off_circle_factors():
    """28 factors S diag(c_k u^e_k) T: n = 2..8, supports [-1, 1] and
    [-2, 2], on tau = i and tau = 0.3 + 1.1i, as coefficient arrays."""
    rng = np.random.default_rng(7)
    out = []
    for tau in (1j, 0.3 + 1.1j):
        for n in range(2, 9):
            for w in (1, 2):
                s, t = random_constant_invertible(rng, n), random_constant_invertible(rng, n)
                c = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
                arr = np.zeros((2 * w + 1, n, n), dtype=complex)
                for k, e in enumerate(_exponent_pattern(n, -w, w)):
                    arr[e + w] += np.outer(s[:, k] * c[k], t[k, :])
                out.append((Torus(tau), -w, arr))
    return out


def test_iterates_match_the_product_of_evaluated_factors_off_the_unit_circle():
    # the high exponents of A(m, u) are small but dominate for |u| > 1,
    # so a prune against the largest coefficient is wrong there by order 1
    for torus, lo, arr in _off_circle_factors():
        q = torus.q
        f = FactorOfAutomorphy(torus, LaurentMatrix._from_coeffs(lo, arr.copy()))
        for m in (3, 5, 8):
            got = iterate(f, m)
            for j in range(4):
                for theta in (0.1234, 0.4321, 0.777):
                    u = abs(q) ** -j * np.exp(2j * np.pi * theta)
                    want = np.eye(arr.shape[1])
                    for i in range(m):
                        v = q ** i * u
                        want = np.tensordot(v ** np.arange(lo, lo + len(arr)), arr, axes=1) @ want
                    # scaled first: the squared moduli pass the double range at j = 3
                    scale = np.abs(want).max()
                    err = np.linalg.norm((got.eval_at(u) - want) / scale) / np.linalg.norm(want / scale)
                    assert err <= 1e-9, (torus.tau, arr.shape[1], len(arr), m, j, err)


def test_iterate_rejects_non_integer(torus, rng):
    f = random_factor(rng, torus, 1)
    with pytest.raises(TypeError):
        iterate(f, 1.5)


def test_iterate_rejects_a_bool(torus, rng):
    # True is not the count 1
    f = random_factor(rng, torus, 1)
    with pytest.raises(TypeError, match="m must be an integer, got True"):
        iterate(f, True)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _conjugate_factor(f, b):
    """A'(u) = B(qu)^(-1) A(u) B(u), so that B witnesses f ~ f'."""
    shifted_inv = b.substitute_scaled(f.torus.q).inverse_monomial_det()
    return FactorOfAutomorphy(f.torus, shifted_inv @ f.A @ b)


def test_witness_and_transport(any_torus, rng):
    q = any_torus.q
    f = random_single_exponent_factor(rng, any_torus, 2)
    b = random_single_exponent_matrix(rng, 2, -1, 1)
    g = _conjugate_factor(f, b)
    w = EquivalenceWitness(b)
    assert check_witness(f, g, w)
    # the same witness intertwines every iterate
    for m in range(5):
        lhs = iterate(f, m) @ b
        rhs = b.substitute_scaled(q ** m) @ iterate(g, m)
        assert matrices_close(lhs, rhs, 1e-8)


def test_witness_detects_mismatch(torus, rng):
    f = random_factor(rng, torus, 2)
    g = random_factor(rng, torus, 2)
    w = EquivalenceWitness(LaurentMatrix.identity(2))
    assert not check_witness(f, g, w)


def test_witness_size_check(torus, rng):
    f = random_factor(rng, torus, 2)
    g = random_factor(rng, torus, 3)
    with pytest.raises(ValueError):
        check_witness(f, g, EquivalenceWitness(LaurentMatrix.identity(2)))


def test_witness_error_names_its_determinants():
    # 1 + u vanishes at u = -1, where the sample reads roundoff
    for b, taken in (
        (LaurentMatrix([[1, 1], [1, 1]]), "|det B(1)| = 0"),
        (LaurentMatrix([[LaurentPoly({0: 1, 1: 1})]]), "|det B| from 1.22e-16 to 2 at 16 points of |u| = 1"),
    ):
        with pytest.raises(ValueError) as exc:
            EquivalenceWitness(b)
        assert str(exc.value) == f"witness fails the sampled invertibility check ({taken})"


@pytest.mark.parametrize("b, numbers", [
    (LaurentMatrix([[1, 1], [1, 1]]), "(1)| = 0"),
    (LaurentMatrix([[LaurentPoly({0: 1, 1: 1})]]), "| from 1.22e-16 to 2 at 16 points of |u| = 1"),
], ids=["one-exponent", "sampled"])
def test_verdict_stays_with_its_matrix(torus, monkeypatch, b, numbers):
    from torusbundles import laurent

    with pytest.raises(ValueError) as as_factor:
        FactorOfAutomorphy(torus, b)
    dets = []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a.shape) or det(a))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: dets.append(len(m)) or pivot_det(m))
    with pytest.raises(ValueError) as as_witness:
        EquivalenceWitness(b)
    assert str(as_factor.value) == f"generator fails the sampled invertibility check (|det A{numbers})"
    assert str(as_witness.value) == f"witness fails the sampled invertibility check (|det B{numbers})"
    if numbers.startswith("(1)"):
        # one exponent per row: the second judgement reads the det the first one kept
        assert dets == []


def test_matrices_made_from_a_judged_one_are_judged_afresh(torus, rng, monkeypatch):
    from torusbundles import laurent

    a = random_single_exponent_factor(rng, torus, 2).A
    dets = []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda m: dets.append(m.shape) or det(m))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: dets.append(len(m)) or pivot_det(m))
    FactorOfAutomorphy(torus, a)
    assert dets == []
    for made in (a @ a, a + a):
        FactorOfAutomorphy(torus, made)
        assert len(dets) == 1
        dets.clear()


def test_a_transpose_keeps_the_det_of_its_judged_matrix(torus, rng, monkeypatch):
    # det A^T = det A, which A's check kept
    from torusbundles import laurent

    a = random_single_exponent_factor(rng, torus, 2).A
    dets = []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda m: dets.append(m.shape) or det(m))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: dets.append(len(m)) or pivot_det(m))
    made = a.transpose()
    FactorOfAutomorphy(torus, made)
    assert made.det().terms() == a.det().terms()
    assert dets == []


def test_a_translate_keeps_the_det_of_its_judged_matrix(torus, rng, monkeypatch):
    # det A(cu) = d c^k u^k for det A = d u^k, which A's check kept
    from torusbundles import laurent

    a = random_single_exponent_factor(rng, torus, 2).A
    [(k, d)] = a.det().terms()
    dets = []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda m: dets.append(m.shape) or det(m))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: dets.append(len(m)) or pivot_det(m))
    made = a.substitute_scaled(torus.q)
    FactorOfAutomorphy(torus, made)
    assert made.det().terms() == [(k, d * torus.q ** k)]
    assert dets == []


def test_a_wide_window_takes_the_sixteen_point_check_within_its_budget():
    # |u^-150000 + 3 u^150000| stays between 2 and 4 on |u| = 1: the check
    # folds the 300001 coefficient slices into 16 residue classes, so its
    # root table is 16 x 16 and no copy of the coefficient array is taken
    a = LaurentMatrix([[LaurentPoly({-150000: 1, 150000: 3})]])
    tracemalloc.start()
    try:
        FactorOfAutomorphy(Torus(1j), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_witness_torus_check(rng):
    f = random_factor(rng, Torus(1j), 2)
    g = random_factor(rng, Torus(2j), 2)
    with pytest.raises(ValueError):
        check_witness(f, g, EquivalenceWitness(LaurentMatrix.identity(2)))


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------

def test_trivial_rank1_constant(any_torus):
    q = any_torus.q
    for nu in range(-10, 11):
        f = FactorOfAutomorphy(any_torus, LaurentMatrix([[q ** nu]]))
        assert is_trivial_rank1_constant(f) == nu
    assert is_trivial_rank1_constant(FactorOfAutomorphy(any_torus, LaurentMatrix([[2.0]]))) is None


@pytest.mark.parametrize("nu_range", [2.5, True, -1])
def test_trivial_rank1_nu_range_must_be_a_non_negative_integer(torus, nu_range):
    f = FactorOfAutomorphy(torus, LaurentMatrix([[torus.q]]))
    with pytest.raises(ValueError, match=f"^nu_range must be a non-negative integer, got {nu_range!r}$"):
        is_trivial_rank1_constant(f, nu_range=nu_range)
    assert is_trivial_rank1_constant(f, nu_range=np.int64(1)) == 1


@pytest.mark.parametrize("tau, nu, nu_range", [(1j, 0, 113), (1j, 0, 2000), (0.3 + 1.1j, 3, 200), (3j, -5, 50)])
def test_trivial_rank1_skips_powers_past_the_double_range(tau, nu, nu_range):
    # q^-113 overflows on tau = i; on tau = 3i, q^50 underflows to 0, so
    # q^-50 divides by zero
    t = Torus(tau)
    f = FactorOfAutomorphy(t, LaurentMatrix([[t.q ** nu]]))
    assert is_trivial_rank1_constant(f, nu_range=nu_range) == nu
    assert is_trivial_rank1_constant(FactorOfAutomorphy(t, LaurentMatrix([[2.0]])), nu_range=nu_range) is None


# q underflows to 0 on tau = 200i, where no clamp applies
@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.02j, 0.37 + 0.02j, 3j, 200j])
def test_trivial_rank1_clamp_matches_the_plain_walk(tau, rng):
    t = Torus(tau)
    q = t.q
    constants = [1.0, 2.0, 5e-324, -1e-320j, 1e300, complex(*rng.normal(size=2))]
    for nu in (-200, -40, -3, 0, 1, 7, 90, 500, 6000):
        try:
            p = q ** nu
        except ArithmeticError:
            continue
        constants += [p, p * (1 + 1e-9), p * (1 + 1e-7)]
    for c in constants:
        if not 0 < math.hypot(c.real, c.imag) < math.inf:
            continue
        f = FactorOfAutomorphy(t, LaurentMatrix([[c]]))
        a = f.A.entry(0, 0).constant_value()
        for nu_range in (0, 10, 300, 10000):
            assert is_trivial_rank1_constant(f, nu_range=nu_range) == reference_trivial_nu(a, q, nu_range)
    one = FactorOfAutomorphy(t, LaurentMatrix([[1.0]]))
    assert is_trivial_rank1_constant(one, nu_range=10) == 0


def test_trivial_rank1_walks_only_the_double_range(torus):
    for c in (2.0, torus.q ** 5, torus.q ** -100):
        f = FactorOfAutomorphy(torus, LaurentMatrix([[c]]))
        start = time.perf_counter()
        assert is_trivial_rank1_constant(f, nu_range=10 ** 7) == is_trivial_rank1_constant(f, nu_range=300)
        assert time.perf_counter() - start < 1.0


def test_trivial_rank1_validation(torus):
    with pytest.raises(ValueError):
        is_trivial_rank1_constant(FactorOfAutomorphy(torus, LaurentMatrix.identity(2)))
    f = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly.monomial(1)]]))
    with pytest.raises(ValueError):
        is_trivial_rank1_constant(f)


def _unipotent(torus, a):
    return FactorOfAutomorphy(torus, LaurentMatrix([[1, a], [0, 1]]))


def test_unipotent_constant_obstruction(any_torus):
    assert is_trivial_unipotent2(_unipotent(any_torus, LaurentPoly.one())) is None


def test_unipotent_coboundary_roundtrip(any_torus, rng):
    q = any_torus.q
    for _ in range(20):
        b = random_laurent(rng, -4, 4)
        a = b.substitute_scaled(q) - b
        got = is_trivial_unipotent2(_unipotent(any_torus, a))
        assert got is not None
        resid = (got.substitute_scaled(q) - got - a).max_coeff()
        assert resid <= 1e-9 * (1.0 + a.max_coeff())


def test_unipotent_solution_keeps_every_term_of_a():
    # on tau = i, b_-8 = 1 / (q^-8 - 1) ~ 1.5e-22 beside b_1 = 1 / (q - 1)
    # ~ -1.0019: a is exact input and b is solved term by term, so both
    # terms are kept and b(q u) - b(u) = a
    t = Torus(1j)
    a = LaurentPoly({-8: 1.0, 1: 1.0})
    b = is_trivial_unipotent2(_unipotent(t, a))
    assert b.support == [-8, 1]
    assert b.terms()[0][1] == 1.0 / (t.q ** -8 - 1.0)
    assert poly_close(b.substitute_scaled(t.q) - b, a, 1e-12)


def test_unipotent_shape_check(torus):
    with pytest.raises(ValueError):
        is_trivial_unipotent2(FactorOfAutomorphy(torus, LaurentMatrix([[2, 1], [0, 1]])))
    with pytest.raises(ValueError):
        is_trivial_unipotent2(FactorOfAutomorphy(torus, LaurentMatrix.identity(3)))


def test_unipotent_shape_check_uses_the_scaled_tolerance(torus):
    # each of the three fixed entries may stray by CLOSE_TOL (1 + max(1, |a|)), here 4e-9
    a = LaurentPoly({-1: 3.0, 1: 0.5})
    for i, j in ((0, 0), (1, 0), (1, 1)):
        for eps, fails in ((3.9e-9, False), (4.1e-9, True)):
            rows = [[1, a], [0, 1]]
            rows[i][j] = rows[i][j] + LaurentPoly({2: eps})
            f = FactorOfAutomorphy(torus, LaurentMatrix(rows))
            if fails:
                with pytest.raises(ValueError, match="^factor is not upper unipotent with unit diagonal$"):
                    is_trivial_unipotent2(f)
            else:
                assert is_trivial_unipotent2(f) is not None


# ---------------------------------------------------------------------------
# jordan structure
# ---------------------------------------------------------------------------

def test_jordan_type_basic():
    j3 = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=complex)
    assert jordan_type_unipotent(j3) == (3,)
    assert jordan_type_unipotent(np.eye(4)) == (1, 1, 1, 1)
    assert jordan_type_unipotent(np.zeros((0, 0))) == ()


def test_jordan_type_kron_example():
    # worked by hand: J_2(1) (x) J_2(1) has Jordan type [3, 1] at 1
    j2 = np.array([[1, 1], [0, 1]], dtype=complex)
    assert jordan_type_unipotent(np.kron(j2, j2)) == (3, 1)


def test_jordan_type_invariant_under_similarity(rng):
    j = np.diag([1.0] * 5) + np.diag([1, 1, 0, 1], 1)  # type (3, 2)
    s = random_constant_invertible(rng, 5)
    conj = s @ j @ np.linalg.inv(s)
    assert jordan_type_unipotent(conj) == (3, 2)


def test_jordan_type_other_eigenvalue():
    m = np.array([[2j, 5], [0, 2j]])
    assert jordan_type_unipotent(m, eigenvalue=2j) == (2,)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        jordan_type_unipotent(np.diag([1.0, 2.0]))


def test_jordan_type_past_the_double_range_is_exact():
    # M = [[0, 1e200], [0, 0]]: |M|^2 overflows, M^2 is exactly 0
    assert jordan_type_unipotent([[1, 1e200], [0, 1]], 1) == (2,)


@pytest.mark.parametrize("mat, eigenvalue, text", [
    # M^2 holds 1e320, so M^3 = M^2 @ M is not finite
    ([[0, 1e160, 0], [0, 0, 1e160], [0, 0, 0]], 0,
     r"^powers of the matrix minus 0 leave the double range: M\^3 is not finite \(max \|entry\| = 1.000e\+160\)$"),
    # the nilpotency test passes (M^2 @ M^2 = 0), the walk's M^3 holds 1e330
    (np.diag([1e110] * 3, 1), 0, r"^powers of the matrix minus 0 leave the double range: M\^3 is not finite"),
    ([[1, np.nan], [0, 1]], 1, r"^matrix entries must be finite, got \(nan\+0j\) at \(0, 1\)$"),
    ([[1, 1], [0, 1]], np.inf, "^eigenvalues must be finite, got inf$"),
])
def test_jordan_type_rejects_what_it_cannot_compute_without_a_warning(mat, eigenvalue, text):
    # the suite turns a RuntimeWarning into an error
    with pytest.raises(ValueError, match=text):
        jordan_type_unipotent(mat, eigenvalue)


def test_equivalent_constant_rejects_non_finite_entries():
    j = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match=r"^matrix entries must be finite, got \(nan\+0j\) at \(1, 0\)$"):
        equivalent_constant(j, np.array([[1, 1], [np.nan, 1]]))
    with pytest.raises(ValueError, match="^eigenvalues must be finite, got nan$"):
        equivalent_constant(j, j.T, eigenvalues=[1, np.nan])


# ---------------------------------------------------------------------------
# the power walk
# ---------------------------------------------------------------------------

def _same_walk(walk, ref):
    """Ranks, partition, powers and kernels equal, byte for byte."""
    assert walk.ranks == ref.ranks and walk.partition == ref.partition
    assert len(walk.powers) == len(ref.powers) and len(walk.kernels) == len(ref.kernels)
    for got, want in zip(walk.powers + walk.kernels, ref.powers + ref.kernels):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _seeded_walk_inputs(seed):
    """A conjugate of a Jordan matrix of size 1..12 with one to three
    eigenvalues of scale 1e-3..1e3, and each eigenvalue with its
    multiplicity."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 12
    k = int(rng.integers(1, min(3, n) + 1))
    scale = 10.0 ** rng.uniform(-3, 3)
    eig = [scale * complex(*rng.normal(size=2)) for _ in range(k)]
    mults = np.diff([0, *sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)), n]) if k > 1 else [n]
    blocks = []
    for lam, mult in zip(eig, mults):
        while mult:
            size = int(rng.integers(1, mult + 1))
            blocks.append((lam, size))
            mult -= size
    j = _jordan(blocks)
    kind = seed % 3
    if kind == 0:
        u = _unitary(rng, n)
        a = u.conj().T @ j @ u
    elif kind == 1:
        t = np.eye(n) + np.triu(rng.normal(size=(n, n)), 1)
        a = np.triu(np.linalg.inv(t) @ j @ t)
    else:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = np.linalg.solve(g, j @ g)
    return a, list(zip(eig, (int(m) for m in mults)))


def test_batched_walk_matches_the_one_power_walk_byte_for_byte():
    for seed in range(144):
        a, eig = _seeded_walk_inputs(seed)
        for lam, _ in eig:
            _same_walk(_walk_powers(a, lam), reference_walk_powers(a, lam))


def test_the_walk_of_a_tensor_product_matches_the_one_power_walk_byte_for_byte():
    # J_p(1) (x) J_q(1), exact (M^(p+q-1) = 0 ends the pass) and unitarily
    # conjugated (the pass takes all n powers)
    rng = np.random.default_rng(27)
    for p in range(1, 12):
        for q in range(1, min(p, 12 - p) + 1):
            a = np.kron(_jordan([(1.0, p)]), _jordan([(1.0, q)]))
            u = _unitary(rng, p * q)
            for b in (a, u.conj().T @ a @ u):
                _same_walk(_walk_powers(b, 1.0), reference_walk_powers(b, 1.0))


def _spy_svd(monkeypatch):
    """The shapes of the arrays np.linalg.svd is called on, and whether
    it was asked for vectors."""
    seen = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        seen.append((x.shape, kwargs.get("compute_uv", True)))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def test_a_jordan_block_walks_in_one_lapack_call(monkeypatch):
    a = 0.6 + 0.2j
    j = _jordan([(a, 8)])
    seen = _spy_svd(monkeypatch)
    walk = _walk_powers(j, a)
    assert seen == [((8, 8, 8), True)]
    assert walk.partition == (8,)


def test_equivalent_constant_walks_each_cluster_in_one_batch(monkeypatch):
    # no power of either matrix is exactly zero at either eigenvalue, so
    # each walk SVDs all eight powers in one call
    blocks = [(0.6 + 0.2j, 5), (2.0, 3)]
    j = _jordan(blocks)
    u = _unitary(np.random.default_rng(9), 8)
    seen = _spy_svd(monkeypatch)
    w = equivalent_constant(j, u.conj().T @ j @ u, eigenvalues=[0.6 + 0.2j] * 5 + [2.0] * 3)
    monkeypatch.undo()
    assert w is not None
    assert [shape for shape, _ in seen if len(shape) == 3] == [(8, 8, 8)] * 4


def test_the_walk_takes_no_power_past_the_nilpotent_index(monkeypatch):
    # J_6(1) (x) J_6(1) has Jordan type (11, 9, 7, 5, 3, 1): M^11 = 0
    j6 = _jordan([(1.0, 6)])
    a = np.kron(j6, j6)
    seen = _spy_svd(monkeypatch)
    walk = _walk_powers(a, 1.0)
    monkeypatch.undo()
    assert walk.partition == (11, 9, 7, 5, 3, 1)
    assert sum(shape[0] for shape, uv in seen if uv) == 11
    assert len(seen) < 12
    _same_walk(walk, reference_walk_powers(a, 1.0))


def test_the_walk_leaves_unreached_powers_untaken():
    # diag(0, 1e80 W): the walk ends at M^3 (1e240); M^4 overflows, which
    # the pass takes without the warning the suite's filter turns into an
    # error, and which neither is SVD'd nor raises
    w = _unitary(np.random.default_rng(3), 5)
    a = np.zeros((6, 6), dtype=complex)
    a[1:, 1:] = 1e80 * w
    walk = _walk_powers(a, 0j)
    assert walk.ranks == [6, 5, 5, 5]
    _same_walk(walk, reference_walk_powers(a, 0j))


@pytest.mark.parametrize("a", [
    np.diag([1e110] * 3, 1),  # M^3 holds inf in one entry
    np.full((3, 3), 1e120),  # M^3 is all inf
    np.diag([1e200, 1e200, 1e-3, 2]),  # M^2 overflows at two entries
])
def test_a_non_finite_power_fails_as_in_the_one_power_walk(a):
    # the one-power walk reaches each power up to the first non-finite
    # one, M^k, whose SVD read a wrong rank or did not converge; the one
    # pass names M^k without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        k = next(k for k in range(1, len(a) + 1) if not np.isfinite(np.linalg.matrix_power(a, k)).all())
    with pytest.raises(ValueError) as exc:
        _walk_powers(a.astype(complex), 0j)
    assert str(exc.value) == (f"powers of the matrix minus 0j leave the double range: "
                              f"M^{k} is not finite (max |entry| = {np.abs(a).max():.3e})")


def test_jordan_type_walks_from_the_singular_values_of_its_nilpotency_test(monkeypatch):
    # J_8(1) takes the SVDs of M and M^8 for the nilpotency test, then the
    # walk's one stacked call
    seen = _spy_svd(monkeypatch)
    assert jordan_type_unipotent(_jordan([(1.0, 8)]), 1.0) == (8,)
    assert seen == [((8, 8), False), ((8, 8), False), ((8, 8, 8), True)]


def test_each_walk_takes_one_stacked_svd(monkeypatch):
    # one call with vectors, none without, on a stack that holds every
    # power the walk reached
    for seed in range(36):
        a, eig = _seeded_walk_inputs(seed)
        for lam, _ in eig:
            seen = _spy_svd(monkeypatch)
            walk = _walk_powers(a, lam)
            monkeypatch.undo()
            [(shape, uv)] = seen
            assert uv and shape[1:] == a.shape and len(walk.ranks) - 1 <= shape[0] <= len(a), seed


@pytest.mark.parametrize("call", ["recognize_deg0", "equivalent_constant", "jordan_type_unipotent"])
def test_jordan_callers_raise_for_a_power_past_the_double_range(call):
    # similar to J_3(1), but M^2 holds 1e320; JSON keeps the ones, which a
    # constructor that prunes would drop.  The suite turns a warning into
    # an error
    m = [[1, 1e160, 0], [0, 1, 1e160], [0, 0, 1]]
    text = "powers of the matrix minus {} leave the double range: M^{} is not finite (max |entry| = 1.000e+160)"
    if call == "recognize_deg0":
        entries = [[{"k": 0, "re": float(v), "im": 0.0}] if v else [] for row in m for v in row]
        f = factor_from_json({"torus": {"tau": [0.0, 1.0]}, "A": {"n": 3, "entries": entries}})
        run, want = lambda: recognize_deg0(f), text.format("(1+0j)", 2)
    elif call == "equivalent_constant":
        nil = np.diag([1e160, 1e160], 1)
        run, want = lambda: equivalent_constant(nil, 2 * nil), text.format("0j", 2)
    else:
        # the nilpotency test takes M^3 before the walk takes M^2
        run, want = lambda: jordan_type_unipotent(m, 1.0), text.format("1.0", 3)
    with pytest.raises(ValueError) as exc:
        run()
    assert str(exc.value) == want


def test_strict_triangles_are_the_masks_of_tril_and_triu():
    for n in (1, 2, 5, 33):
        lower, upper = _strict_triangles(n)
        ones = np.ones((n, n))
        assert lower.dtype == upper.dtype == bool
        assert np.array_equal(lower, np.tril(ones, -1) != 0) and np.array_equal(upper, np.triu(ones, 1) != 0)
    assert not _strict_triangles(5)[0].flags.writeable
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = np.triu(rng.normal(size=(n, n))) + 1e-12 * rng.uniform() * np.tril(rng.normal(size=(n, n)), -1)
        for m in (a, a.T, a + 1e-9 * rng.normal(size=(n, n))):
            scale = 1.0 + np.max(np.abs(m))
            lower = np.max(np.abs(np.tril(m, -1))) if n > 1 else 0.0
            upper = np.max(np.abs(np.triu(m, 1))) if n > 1 else 0.0
            assert _is_triangular(m) == (min(lower, upper) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# constant equivalence
# ---------------------------------------------------------------------------

def _as_factor(torus, arr):
    return FactorOfAutomorphy(torus, LaurentMatrix.from_constant(arr))


def test_equivalent_constant_produces_checking_witness(torus):
    a = np.array([[1, 1], [0, 1]], dtype=complex)
    b = np.array([[1, 3], [0, 1]], dtype=complex)
    w = equivalent_constant(a, b)
    assert w is not None
    assert check_witness(_as_factor(torus, a), _as_factor(torus, b), w)


def test_equivalent_constant_mixed_spectrum(torus):
    a = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 5]], dtype=complex)
    b = np.array([[5, 0, 0], [0, 2, 7], [0, 0, 2]], dtype=complex)
    w = equivalent_constant(a, b)
    assert w is not None
    assert check_witness(_as_factor(torus, a), _as_factor(torus, b), w)


def test_equivalent_constant_distinguishes_jordan_type():
    a = np.array([[1, 1], [0, 1]], dtype=complex)
    assert equivalent_constant(a, np.eye(2)) is None


def test_equivalent_constant_distinguishes_spectrum():
    assert equivalent_constant(np.diag([1.0, 2.0]), np.diag([1.0, 3.0])) is None


def test_equivalent_constant_requires_triangular_or_eigenvalues(rng):
    s = random_constant_invertible(rng, 2)
    j = np.array([[1, 1], [0, 1]], dtype=complex)
    hidden = s @ j @ np.linalg.inv(s)
    with pytest.raises(ValueError):
        equivalent_constant(hidden, j)
    w = equivalent_constant(hidden, j, eigenvalues=[1.0, 1.0])
    assert w is not None
    resid = hidden @ w.B.constant_matrix() - w.B.constant_matrix() @ j
    assert np.max(np.abs(resid)) < 1e-6


def test_equivalent_constant_reflexive_symmetric(rng):
    for _ in range(10):
        diag = rng.choice([1.0, 1.0, 2.0], size=3)
        a = np.triu(rng.normal(size=(3, 3)), 1) + np.diag(diag)
        d2 = rng.permutation(diag)
        b = np.triu(rng.normal(size=(3, 3)), 1) + np.diag(d2)
        assert equivalent_constant(a, a) is not None
        ab = equivalent_constant(a, b)
        ba = equivalent_constant(b, a)
        assert (ab is None) == (ba is None)


def test_equivalent_constant_shape_check():
    with pytest.raises(ValueError):
        equivalent_constant(np.eye(2), np.eye(3))


def _jordan(blocks):
    """Block diagonal Jordan matrix of (eigenvalue, size) blocks in order."""
    n = sum(size for _, size in blocks)
    j = np.zeros((n, n), dtype=complex)
    i = 0
    for lam, size in blocks:
        j[i:i + size, i:i + size] = lam * np.eye(size) + np.eye(size, k=1)
        i += size
    return j


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _random_jordan_structure(rng):
    """Two or three eigenvalues at least 0.5 apart, each with two or more
    blocks, one block of size >= 2, n <= 8."""
    k = int(rng.integers(2, 4))
    while True:
        eig = [complex(*rng.normal(size=2)) for _ in range(k)]
        if min(abs(x - y) for i, x in enumerate(eig) for y in eig[:i]) >= 0.5:
            break
    mults = [2] * k
    for _ in range(int(rng.integers(0, 8 - 2 * k + 1))):
        mults[int(rng.integers(0, k))] += 1
    partitions = []
    for mult in mults:
        first = int(rng.integers(1, mult))
        rest = mult - first
        parts = [first]
        while rest:
            parts.append(int(rng.integers(1, rest + 1)))
            rest -= parts[-1]
        partitions.append(tuple(sorted(parts, reverse=True)))
    if all(p[0] == 1 for p in partitions):
        partitions[0] = (2,) + partitions[0][2:]
    return eig, partitions


def test_jordan_structures_random_sweep():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        eig, partitions = _random_jordan_structure(rng)
        blocks = [(lam, size) for lam, parts in zip(eig, partitions) for size in parts]
        j = _jordan(blocks)
        n = j.shape[0]
        values = [lam for lam, size in blocks for _ in range(size)]
        for lam, parts in zip(eig, partitions):
            u = _unitary(rng, sum(parts))
            part = _jordan([(lam, size) for size in parts])
            assert jordan_type_unipotent(u.conj().T @ part @ u, lam) == parts
        t = np.eye(n) + np.triu(rng.normal(size=(n, n)), 1)
        u = _unitary(rng, n)
        conjugates = [
            (u.conj().T @ j @ u, values),
            (np.triu(np.linalg.inv(t) @ j @ t), None),  # eigenvalues read off the diagonal
        ]
        for b, given in conjugates:
            w = equivalent_constant(j, b, eigenvalues=given)
            assert w is not None, seed
            wm = w.B.constant_matrix()
            scale = (1.0 + max(np.max(np.abs(j)), np.max(np.abs(b)))) * np.max(np.abs(wm))
            assert np.max(np.abs(j @ wm - wm @ b)) <= 1e-9 * scale, seed
        i = next(i for i, (_, size) in enumerate(blocks) if size >= 2)
        lam, size = blocks[i]
        split = _jordan(blocks[:i] + [(lam, size - 1), (lam, 1)] + blocks[i + 1:])
        assert equivalent_constant(j, u.conj().T @ split @ u, eigenvalues=values) is None, seed


def test_equivalent_constant_decomposes_each_power_once(monkeypatch):
    # J_8(a) against a unitary conjugate: eight powers of A - aI per matrix,
    # then one _orth and one projection per block size; recomputing the
    # rank sequence for the decision, the basis and the kernels took 70
    a = 0.6 + 0.2j
    j = _jordan([(a, 8)])
    u = _unitary(np.random.default_rng(8), 8)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    w = equivalent_constant(j, u.conj().T @ j @ u, eigenvalues=[a] * 8)
    monkeypatch.undo()
    assert w is not None
    assert len(calls) <= 22
