"""Tensor, symmetric, exterior and dual constructions."""

import itertools
import math

import numpy as np
import pytest

from torusbundles import (
    FactorOfAutomorphy,
    LaurentMatrix,
    LaurentPoly,
    clebsch_gordan_F,
    dual,
    iterate,
    jordan_type_unipotent,
    matrices_close,
    sym_power,
    tensor,
    wedge_power,
)
from helpers import random_constant_invertible, random_single_exponent_factor


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
    with pytest.raises(ValueError):
        sym_power(_unipotent(torus), -1)


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
    with pytest.raises(ValueError):
        wedge_power(f, 4)
    with pytest.raises(ValueError):
        wedge_power(f, -1)


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


def test_functors_sample_the_factor_once(torus, rng, monkeypatch):
    f, _ = _dense_factor(rng, torus, 4, -1, 1)
    sampled = []
    at_roots = LaurentMatrix._at_roots

    def counted(m, width):
        sampled.append(m is f.A)
        return at_roots(m, width)

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
