import math
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
)

from helpers import (
    random_constant_invertible,
    random_factor,
    random_laurent,
    random_monomial_det_matrix,
    random_single_exponent_factor,
    random_single_exponent_matrix,
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


def test_iterate_is_the_product_of_translates_byte_for_byte(any_torus, rng):
    # A(q^(m-1) u) ... A(u), and A(q^m u)^-1 ... A(q^-1 u)^-1 of one inverse
    f = random_factor(rng, any_torus, 3)
    q, inv = any_torus.q, f.A.inverse_monomial_det()
    for m in (-4, -3, -2, -1, 1, 2, 3, 4):
        want = f.A if m > 0 else inv.substitute_scaled(q ** -1)
        for i in range(1, abs(m)):
            want = (f.A.substitute_scaled(q ** i) if m > 0 else inv.substitute_scaled(q ** (-1 - i))) @ want
        got = iterate(f, m)
        assert (got._lo, got._c.tobytes()) == (want._lo, want._c.tobytes())


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
        f = FactorOfAutomorphy(torus, LaurentMatrix._from_coeffs(lo, arr.copy(), prune=False))
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
    for made in (a @ a, a + a, a.transpose()):
        FactorOfAutomorphy(torus, made)
        assert len(dets) == 1
        dets.clear()


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


def test_trivial_rank1_validation(torus):
    with pytest.raises(ValueError):
        is_trivial_rank1_constant(FactorOfAutomorphy(torus, LaurentMatrix.identity(2)))
    f = FactorOfAutomorphy(torus, LaurentMatrix([[LaurentPoly.monomial(1)]]))
    with pytest.raises(ValueError):
        is_trivial_rank1_constant(f)


def _unipotent(torus, a):
    return FactorOfAutomorphy(torus, LaurentMatrix([[1, a], [0, 1]], prune=False))


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
            f = FactorOfAutomorphy(torus, LaurentMatrix(rows, prune=False))
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
