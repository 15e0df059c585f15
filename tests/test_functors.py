"""Tensor, symmetric, exterior and dual constructions."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from torusbundles import (
    FactorOfAutomorphy,
    LaurentMatrix,
    LaurentPoly,
    Torus,
    clebsch_gordan_F,
    degree,
    dual,
    iterate,
    jordan_type_unipotent,
    matrices_close,
    normal_form,
    sym_power,
    tensor,
    wedge_power,
)
from torusbundles.laurent import SAMPLE_BUDGET
from torusbundles.functors import _sym_step
from helpers import (
    matrix_bytes,
    random_constant_invertible,
    random_monomial_det_matrix,
    random_single_exponent_factor,
    reference_sym_power,
    reference_wedge_power,
)


def _const_factor(torus, m):
    return FactorOfAutomorphy(torus, LaurentMatrix.from_constant(m))


def _unipotent(torus, extra=1.0):
    return FactorOfAutomorphy(
        torus,
        LaurentMatrix([[LaurentPoly.one(), LaurentPoly.constant(extra)],
                       [LaurentPoly.zero(), LaurentPoly.one()]]),
    )


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------

def test_sym_square_of_general_2x2(torus):
    a, b, c, d = 1.3, -0.7, 0.4, 2.1
    f = _const_factor(torus, np.array([[a, b], [c, d]]))
    got = sym_power(f, 2).A.constant_matrix()
    # images of e1^2, e1 e2, e2^2 under e1 -> a e1 + c e2, e2 -> b e1 + d e2
    want = np.array([
        [a * a, a * b, b * b],
        [2 * a * c, a * d + b * c, 2 * b * d],
        [c * c, c * d, d * d],
    ])
    assert np.allclose(got, want)


def test_sym_of_unipotent_is_binomial(torus):
    # exactly: a constant input is one sample, and the products are exact
    f = _unipotent(torus)
    for n in range(10):
        m = sym_power(f, n).A.constant_matrix()
        want = np.array([[float(math.comb(j, i)) for j in range(n + 1)] for i in range(n + 1)])
        assert np.array_equal(m, want)


def test_sym_dimension_and_identity(torus, rng):
    f = _const_factor(torus, random_constant_invertible(rng, 3))
    assert sym_power(f, 0).rank == 1
    assert sym_power(f, 1).rank == 3
    assert matrices_close(sym_power(f, 1).A, f.A)
    assert sym_power(f, 2).rank == 6
    assert sym_power(f, 4).rank == math.comb(3 + 4 - 1, 4)  # C(6,4) = 15


def test_sym_is_multiplicative(torus, rng):
    c1 = random_constant_invertible(rng, 3)
    c2 = random_constant_invertible(rng, 3)
    lhs = sym_power(_const_factor(torus, c1 @ c2), 3).A
    rhs = sym_power(_const_factor(torus, c1), 3).A @ sym_power(_const_factor(torus, c2), 3).A
    assert matrices_close(lhs, rhs, 1e-9)


def test_sym_commutes_with_iteration(torus, rng):
    f = random_single_exponent_factor(rng, torus, 2)
    g = sym_power(f, 2)
    lhs = iterate(g, 3)
    rhs = sym_power(FactorOfAutomorphy(torus, iterate(f, 3)), 2).A
    assert matrices_close(lhs, rhs, 1e-8)


def test_sym_rejects_negative(torus):
    with pytest.raises(ValueError, match="^symmetric power needs n >= 0, got -1$"):
        sym_power(_unipotent(torus), -1)


@pytest.mark.parametrize("functor, degree, text", [
    (sym_power, True, "symmetric power needs n >= 0, got True"),
    (sym_power, 2.0, "symmetric power needs n >= 0, got 2.0"),
    (wedge_power, True, "wedge power needs 0 <= k <= 2, got True"),
    (wedge_power, 1.0, "wedge power needs 0 <= k <= 2, got 1.0"),
])
def test_functor_degree_must_be_an_integer(torus, functor, degree, text):
    with pytest.raises(ValueError) as exc:
        functor(_unipotent(torus), degree)
    assert str(exc.value) == text


def test_functors_take_numpy_integer_degrees(torus):
    f = _unipotent(torus)
    for functor in (sym_power, wedge_power):
        assert matrix_bytes(functor(f, np.int64(2)).A) == matrix_bytes(functor(f, 2).A)


# ---------------------------------------------------------------------------
# exterior powers
# ---------------------------------------------------------------------------

def test_wedge_dimensions_and_edges(torus, rng):
    f = _const_factor(torus, random_constant_invertible(rng, 4))
    assert wedge_power(f, 0).rank == 1
    assert matrices_close(wedge_power(f, 0).A, LaurentMatrix.identity(1))
    assert wedge_power(f, 1).rank == 4
    assert matrices_close(wedge_power(f, 1).A, f.A)
    assert wedge_power(f, 2).rank == 6
    assert wedge_power(f, 3).rank == 4


def test_wedge_top_is_determinant(torus, rng):
    f = random_single_exponent_factor(rng, torus, 3)
    top = wedge_power(f, 3).A
    assert top.n == 1
    assert (top.entry(0, 0) - f.A.det()).max_coeff() <= 1e-10 * f.A.det().max_coeff()


def test_wedge_out_of_range(torus, rng):
    f = _const_factor(torus, random_constant_invertible(rng, 3))
    with pytest.raises(ValueError, match="^wedge power needs 0 <= k <= 3, got 4$"):
        wedge_power(f, 4)
    with pytest.raises(ValueError, match="^wedge power needs 0 <= k <= 3, got -1$"):
        wedge_power(f, -1)


def test_wedge_past_the_budget_raises_before_listing_index_sets(torus):
    # the 184756 index sets of 10 out of 20, listed first, took 42 MiB
    f = _const_factor(torus, np.eye(20))
    need = (math.comb(20, 10) * 10) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            wedge_power(f, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"sampling window of width 1 needs {need} elements, more than SAMPLE_BUDGET = {SAMPLE_BUDGET}"
    assert peak < 1 << 20


def test_wedge_is_multiplicative(torus, rng):
    # Cauchy-Binet for the 2x2 minors of a product
    c1 = random_constant_invertible(rng, 4)
    c2 = random_constant_invertible(rng, 4)
    lhs = wedge_power(_const_factor(torus, c1 @ c2), 2).A
    rhs = wedge_power(_const_factor(torus, c1), 2).A @ wedge_power(_const_factor(torus, c2), 2).A
    assert matrices_close(lhs, rhs, 1e-9)


# ---------------------------------------------------------------------------
# oracles at points off the sampling grid, exactness, sampling count
# ---------------------------------------------------------------------------

#: points of |u| = 1 off the roots of unity the functors sample
_OFF_GRID = np.exp(2j * np.pi * np.array([0.1234, 0.4321, 0.777]))


def _dense_factor(rng, torus, n, lo, hi):
    """S diag(c_k u^e_k) T with exponents alternating between hi and lo,
    and its values computed with numpy alone."""
    s, t = random_constant_invertible(rng, n), random_constant_invertible(rng, n)
    exps = np.array([hi if k % 2 else lo for k in range(n)])
    c = np.exp(2j * np.pi * rng.uniform(size=n))
    diag = LaurentMatrix.diagonal([LaurentPoly.monomial(int(e), ck) for e, ck in zip(exps, c)])
    a = LaurentMatrix.from_constant(s) @ diag @ LaurentMatrix.from_constant(t)
    return FactorOfAutomorphy(torus, a), lambda u: s @ np.diag(c * u ** exps.astype(float)) @ t


def _permanent(m):
    k = len(m)
    return sum(math.prod(m[i, p[i]] for i in range(k)) for p in itertools.permutations(range(k)))


def _sym_oracle(a, k):
    """per(A[mu, nu]) / mu! over the degree k monomials, descending
    lexicographic, with variable i repeated mu_i times."""
    n = len(a)
    basis = sorted((tuple(c.count(i) for i in range(n)) for c in itertools.combinations_with_replacement(range(n), k)),
                   reverse=True)
    rep = [[i for i in range(n) for _ in range(mu[i])] for mu in basis]
    return np.array([
        [_permanent(a[np.ix_(rows, cols)]) / math.prod(map(math.factorial, mu)) for cols in rep]
        for mu, rows in zip(basis, rep)
    ])


@pytest.mark.parametrize("n, k", [(8, 2), (4, 3)])
@pytest.mark.parametrize("support", [(-1, 1), (-2, 2)])
def test_sym_power_matches_permanents_off_grid(torus, rng, n, k, support):
    f, values = _dense_factor(rng, torus, n, *support)
    got = sym_power(f, k).A
    for u0 in _OFF_GRID:
        want = _sym_oracle(values(u0), k)
        assert np.max(np.abs(got.eval_at(u0) - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4)])
@pytest.mark.parametrize("support", [(-1, 1), (-2, 2)])
def test_wedge_power_matches_numpy_minors_off_grid(torus, rng, n, k, support):
    f, values = _dense_factor(rng, torus, n, *support)
    got = wedge_power(f, k).A
    subsets = list(itertools.combinations(range(n), k))
    for u0 in _OFF_GRID:
        a = values(u0)
        want = np.array([[np.linalg.det(a[np.ix_(i, j)]) for j in subsets] for i in subsets])
        compound = got.eval_at(u0)
        assert np.max(np.abs(compound - want)) <= 1e-9 * np.max(np.abs(want))
        # Sylvester-Franke: det of the k-th compound is det A^C(n-1, k-1)
        power = np.linalg.det(a) ** math.comb(n - 1, k - 1)
        assert abs(np.linalg.det(compound) - power) <= 1e-9 * abs(power)


def _integer_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _integer_det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def test_wedge_of_integer_constants_is_exact(torus):
    for m in ([[0, 1], [3, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        g = _const_factor(torus, np.array(m, dtype=float))
        for k in range(len(m) + 1):
            subsets = list(itertools.combinations(range(len(m)), k))
            want = [[_integer_det([[m[i][j] for j in cols] for i in rows]) for cols in subsets] for rows in subsets]
            assert np.array_equal(wedge_power(g, k).A.constant_matrix(), np.array(want, dtype=complex))


def test_functors_match_tables_built_per_call(torus, rng):
    # the second call of each reads the kept tables
    for n in range(1, 6):
        f, _ = _dense_factor(rng, torus, n, -1, 1)
        for d in range(5):
            want = matrix_bytes(reference_sym_power(f.A, d))[:3]
            for _ in range(2):
                assert matrix_bytes(sym_power(f, d).A)[:3] == want
        for k in range(min(n, 4) + 1):
            want = matrix_bytes(reference_wedge_power(f.A, k))[:3]
            for _ in range(2):
                assert matrix_bytes(wedge_power(f, k).A)[:3] == want


def test_kept_index_tables_are_read_only_and_capped():
    for table in _sym_step(3, 2):
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    assert _sym_step(3, 2) is _sym_step(3, 2)
    kept = _sym_step.cache_info().currsize
    wide = _sym_step(10, 4)  # 12 x 715 elements, past TABLE_CAP
    assert wide[0].shape == (10, 715, 1) and wide[0].flags.writeable
    assert _sym_step.cache_info().currsize == kept


def test_functors_sample_the_factor_once(torus, rng, monkeypatch):
    f, _ = _dense_factor(rng, torus, 4, -1, 1)
    sampled = []
    at_roots = LaurentMatrix._at_roots

    def counted(m, width, size=0):
        sampled.append(m is f.A)
        return at_roots(m, width, size)

    def forbidden(*args):
        raise AssertionError("a sampled functor multiplies Laurent polynomials or takes a Laurent det")

    monkeypatch.setattr(LaurentMatrix, "_at_roots", counted)
    monkeypatch.setattr(LaurentMatrix, "det", forbidden)
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    monkeypatch.setattr(LaurentPoly, "__rmul__", forbidden)
    for functor in (sym_power, wedge_power):
        sampled.clear()
        functor(f, 2)
        # the other calls sample the result for its invertibility check
        assert sampled.count(True) == 1


# ---------------------------------------------------------------------------
# tensor and dual
# ---------------------------------------------------------------------------

def test_tensor_kron_layout(torus):
    f = _const_factor(torus, np.array([[1.0, 2.0], [3.0, 4.0]]))
    g = _const_factor(torus, np.array([[0.0, 1.0], [1.0, 0.0]]))
    got = tensor(f, g).A.constant_matrix()
    assert np.allclose(got, np.kron(f.A.constant_matrix(), g.A.constant_matrix()))


def test_tensor_determinant_identity(torus, rng):
    f = random_single_exponent_factor(rng, torus, 2)
    g = random_single_exponent_factor(rng, torus, 3)
    lhs = tensor(f, g).A.det()
    rhs = f.A.det() ** 3 * g.A.det() ** 2
    assert (lhs - rhs).max_coeff() <= 1e-8 * rhs.max_coeff()


def test_tensor_of_normal_forms_keeps_its_small_entries():
    # E(5, -6) spans 6e-10 of its largest coefficient and E(3, 2) 1e-3, so
    # their kron holds coefficients near 7e-13 of its largest; a prune at
    # 1e-12 drops them, and the check reads |det A(1)| = 0.  Atiyah: rank
    # 15 and degree 3 * (-6) + 5 * 2
    from torusbundles import Torus, degree, normal_form

    t = Torus(0.3 + 1.1j)
    g = tensor(normal_form(t, 5, -6, 0.6 + 0.2j), normal_form(t, 3, 2, 0.9 - 0.1j))
    assert (g.rank, degree(g)) == (15, -8)


def test_tensor_requires_same_torus(rng):
    from torusbundles import Torus

    f = random_single_exponent_factor(rng, Torus(1j), 2)
    g = random_single_exponent_factor(rng, Torus(2j), 2)
    with pytest.raises(ValueError):
        tensor(f, g)


def test_dual_is_involutive(torus, rng):
    f = random_single_exponent_factor(rng, torus, 3)
    assert matrices_close(dual(dual(f)).A, f.A, 1e-9)


def test_dual_pairs_to_trivial_determinant(torus, rng):
    f = random_single_exponent_factor(rng, torus, 2)
    paired = tensor(f, dual(f))
    d = paired.A.det()
    assert (d - LaurentPoly.one()).max_coeff() <= 1e-8


# ---------------------------------------------------------------------------
# unipotent decomposition table
# ---------------------------------------------------------------------------

def test_clebsch_gordan_values():
    assert clebsch_gordan_F(1, 1) == [1]
    assert clebsch_gordan_F(2, 1) == [2]
    assert clebsch_gordan_F(2, 2) == [3, 1]
    assert clebsch_gordan_F(3, 2) == [4, 2]
    assert clebsch_gordan_F(5, 4) == [8, 6, 4, 2]


def test_clebsch_gordan_sum_rule():
    for p in range(1, 8):
        for q in range(1, p + 1):
            assert sum(clebsch_gordan_F(p, q)) == p * q


def test_clebsch_gordan_rejects_bad_order():
    with pytest.raises(ValueError):
        clebsch_gordan_F(2, 3)
    with pytest.raises(ValueError):
        clebsch_gordan_F(1, 0)


def _jordan_ones(n):
    m = np.eye(n) + np.diag(np.ones(n - 1), 1) if n > 1 else np.eye(1)
    return m


def test_tensor_of_unipotents_matches_table(torus):
    for p, q in [(2, 2), (3, 2), (4, 3)]:
        f = _const_factor(torus, _jordan_ones(p))
        g = _const_factor(torus, _jordan_ones(q))
        parts = jordan_type_unipotent(tensor(f, g).A.constant_matrix())
        assert list(parts) == clebsch_gordan_F(p, q)


# ---------------------------------------------------------------------------
# Atiyah's invariants of the functors on normal forms
# ---------------------------------------------------------------------------

_TAUS = {"square": 1j, "generic": 0.3 + 1.1j}
_GRID = [(name, r, d) for name in _TAUS for r in range(1, 7) for d in range(-6, 7)]
_PARTNERS = [(1, 1), (2, -1), (2, 0), (3, 2)]

# The k, by torus and (r, d), whose Sym^k the sampled result's matrix-wide
# prune breaks: it deletes true coefficients, each row keeps one exponent,
# and A(1) is singular, so the factor is refused (ROADMAP items 1 and 10)
_SYM_REFUSED = {
    "square": {
        (2, -5): (2, 3, 4), (2, -3): (3, 4), (2, 3): (4,), (2, 5): (2, 3, 4), (3, -5): (2, 3, 4),
        (3, -4): (3, 4), (3, 4): (3, 4), (3, 5): (2, 3, 4), (4, -6): (3, 4), (4, -5): (2, 3, 4),
        (4, -3): (3, 4), (4, 3): (4,), (4, 5): (2, 3, 4), (4, 6): (3, 4), (5, -6): (2, 3),
        (5, -4): (3,), (5, -3): (3,), (5, 4): (3,), (5, 6): (2, 3), (6, -5): (2,), (6, 5): (2,),
    },
    "generic": {
        (2, -5): (2, 3, 4), (2, -3): (3, 4), (2, 3): (3, 4), (2, 5): (2, 3, 4), (3, -5): (2, 3, 4),
        (3, -4): (2, 3, 4), (3, -2): (4,), (3, 4): (3, 4), (3, 5): (2, 3, 4), (4, -6): (3, 4),
        (4, -5): (2, 3, 4), (4, -3): (3, 4), (4, 3): (3, 4), (4, 5): (2, 3, 4), (4, 6): (3, 4),
        (5, -6): (2, 3), (5, -4): (2, 3), (5, -3): (3,), (5, 3): (3,), (5, 4): (3,), (5, 6): (2, 3),
        (6, -5): (2,), (6, 5): (2,),
    },
}
_SYM_PRUNE_FAULT = pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="the sampled result's prune leaves A(1) singular (ROADMAP items 1 and 10)")


def _atiyah_form(name, r, d, a=0.6 + 0.2j):
    return normal_form(Torus(_TAUS[name]), r, d, a)


def _sym_cases():
    for name, r, d in _GRID:
        for k in range(2, 5):
            if math.comb(r + k - 1, k) <= 40:
                refused = k in _SYM_REFUSED[name].get((r, d), ())
                yield pytest.param(name, r, d, k, marks=[_SYM_PRUNE_FAULT] if refused else [])


@pytest.mark.parametrize("name, r, d, k", list(_sym_cases()))
def test_sym_power_of_a_normal_form_has_atiyahs_degree(name, r, d, k):
    f = sym_power(_atiyah_form(name, r, d), k)
    assert (f.rank, degree(f)) == (math.comb(r + k - 1, k), d * math.comb(r + k - 1, r))


@pytest.mark.parametrize("name, r, d", _GRID)
def test_wedge_power_of_a_normal_form_has_atiyahs_degree(name, r, d):
    e = _atiyah_form(name, r, d)
    for k in range(2, min(r, 4) + 1):
        f = wedge_power(e, k)
        assert (f.rank, degree(f)) == (math.comb(r, k), d * math.comb(r - 1, k - 1))


@pytest.mark.parametrize("name, r, d", _GRID)
def test_dual_of_a_normal_form_has_atiyahs_degree(name, r, d):
    f = dual(_atiyah_form(name, r, d))
    assert (f.rank, degree(f)) == (r, -d)


@pytest.mark.parametrize("name, r, d", _GRID)
def test_tensor_of_normal_forms_has_atiyahs_degree(name, r, d):
    e = _atiyah_form(name, r, d)
    for rp, dp in _PARTNERS:
        f = tensor(e, _atiyah_form(name, rp, dp, 0.9 - 0.1j))
        assert (f.rank, degree(f)) == (r * rp, rp * d + r * dp)


def _det_carrying_factors():
    """(kind, factor) on both tori: draws of random_monomial_det_matrix
    with mixed exponents in a row, whose check samples det and keeps
    nothing; draws of random_single_exponent_factor, whose check keeps
    its elimination; and the normal forms of _GRID, which carry their
    det from how they are built."""
    rng = np.random.default_rng(26)
    for tau in _TAUS.values():
        t = Torus(tau)
        for n in range(2, 7):
            a = random_monomial_det_matrix(rng, n)
            while a._one_point_det() is not None:
                a = random_monomial_det_matrix(rng, n)
            yield "mixed", FactorOfAutomorphy(t, a)
            yield "single", random_single_exponent_factor(rng, t, n)
    for name, r, d in _GRID:
        yield "normal form", _atiyah_form(name, r, d)


def test_inverse_and_transpose_carry_the_det_of_a_fresh_copy():
    for kind, f in _det_carrying_factors():
        assert (f.A._det is None) == (kind == "mixed")
        inv = f.A.inverse_monomial_det()
        assert f.A.transpose()._det == f.A._det and inv.transpose()._det == inv._det
        for m in (inv, inv.transpose(), f.A.transpose()):
            if m._det is None:
                continue
            k, c = m._det
            # a copy that carries no det: elimination for one exponent per
            # row, else a sampled det
            fresh = LaurentMatrix._from_coeffs(m._lo, m._c.copy())
            gap = fresh.det() - LaurentPoly.monomial(k, c)
            assert gap.max_coeff() <= 1e-12 * abs(c), (kind, m.n, k, c)


def test_dual_reads_the_det_its_inverse_took(monkeypatch):
    from torusbundles import laurent

    taken = []
    for kind, f in _det_carrying_factors():
        # a mixed factor carries no det, so its inverse samples det A; the
        # transpose of that inverse is what the spy below watches
        inv = f.A.inverse_monomial_det() if kind == "mixed" else None
        taken.append((f, degree(f), inv))
    calls = []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: calls.append(len(m)) or pivot_det(m))
    for f, deg, inv in taken:
        g = dual(f) if inv is None else FactorOfAutomorphy(f.torus, inv.transpose())
        assert degree(g) == -deg
    assert calls == []


@pytest.mark.parametrize("span", [1e12, 1e13, 1e15])
def test_an_inverse_that_loses_an_entry_to_the_prune_carries_no_det(span):
    # A^-1 = I - span u E_21: the prune drops its unit diagonal, which is
    # at most 1e-12 of span, so the stored matrix is singular and carries
    # nothing, and the check of the dual factor finds det 0 as it stands
    f = FactorOfAutomorphy(Torus(1j), LaurentMatrix([[1, 0], [LaurentPoly({1: span}), 1]]))
    inv = f.A.inverse_monomial_det()
    assert inv._det is None and not inv._c.any(axis=(0, 2)).all()
    with pytest.raises(ValueError, match=r"\|det A\(1\)\| = 0"):
        dual(f)
