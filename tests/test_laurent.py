import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbundles import (
    FactorOfAutomorphy,
    LaurentMatrix,
    LaurentPoly,
    NotInvertibleInRing,
    Torus,
    block_diagonal,
    iterate,
    matrices_close,
    matrix_from_json,
    matrix_to_json,
    passes_sampled_invertibility,
    poly_close,
    torus_from_json,
    torus_to_json,
)

from helpers import (
    random_laurent,
    random_laurent_matrix,
    random_monomial_det_matrix,
    random_single_exponent_matrix,
)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def test_torus_derived_values():
    t = Torus(1j)
    assert abs(t.q - math.exp(-2 * math.pi)) < 1e-15
    assert t.s * t.s == t.q  # exact by construction


def test_torus_rejects_lower_half_plane():
    for bad in (0j, 1.0 + 0j, 0.3 - 1.1j, complex("nan")):
        with pytest.raises(ValueError):
            Torus(bad)


def test_torus_json_roundtrip():
    t = Torus(0.3 + 1.1j)
    assert torus_from_json(torus_to_json(t)).tau == t.tau


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_hand_arithmetic():
    p = LaurentPoly({0: 1, 1: 2})
    assert (p * p).terms() == [(0, 1 + 0j), (1, 4 + 0j), (2, 4 + 0j)]
    assert (p - p).is_zero
    u = LaurentPoly.monomial(1)
    assert (u * LaurentPoly.monomial(-1)).terms() == [(0, 1 + 0j)]


def test_poly_eval_and_substitute():
    p = LaurentPoly({-2: 1j, 3: 2.0})
    u0 = 0.7 - 0.2j
    assert abs(p(u0) - (1j * u0 ** -2 + 2 * u0 ** 3)) < 1e-14
    q = p.substitute_scaled(2.0)
    assert q.terms() == [(-2, 0.25j), (3, 16.0 + 0j)]


def test_poly_pruning_is_relative():
    p = LaurentPoly({0: 1.0, 5: 1e-15})
    assert p.support == [0]
    tiny = LaurentPoly({0: 1e-15})
    assert not tiny.is_zero


def test_poly_rejects_bad_input():
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1.0})
    with pytest.raises(ValueError):
        LaurentPoly({0: complex("inf")})


def test_monomial_units():
    m = LaurentPoly.monomial(3, 2.0)
    assert m.is_monomial() == (3, 2.0 + 0j)
    assert (m ** -2).terms() == [(-6, 0.25 + 0j)]
    assert LaurentPoly({0: 1, 1: 1}).is_monomial() is None
    with pytest.raises(NotInvertibleInRing):
        LaurentPoly({0: 1, 1: 1}) ** -1


_coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_poly = st.dictionaries(st.integers(min_value=-6, max_value=6), _coeff, max_size=5).map(LaurentPoly)
_scale = st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@given(_poly, _poly, _poly)
def test_ring_axioms(p, r, s):
    assert poly_close((p + r) + s, p + (r + s))
    assert poly_close(p * r, r * p)
    assert poly_close((p * r) * s, p * (r * s))
    assert poly_close(p * (r + s), p * r + p * s)


@given(_poly, _scale, _scale)
@settings(max_examples=60)
def test_substitution_is_multiplicative(p, a, b):
    assert poly_close(p.substitute_scaled(a).substitute_scaled(b), p.substitute_scaled(a * b), 1e-7)


@given(_poly, _poly, _scale)
@settings(max_examples=60)
def test_substitution_and_eval_are_ring_maps(p, r, u0):
    prod = p * r
    assert abs(prod(u0) - p(u0) * r(u0)) <= 1e-7 * (1.0 + abs(p(u0)) * abs(r(u0)))
    assert poly_close(prod.substitute_scaled(u0), p.substitute_scaled(u0) * r.substitute_scaled(u0), 1e-7)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_hand_product():
    u = LaurentPoly.monomial(1)
    a = LaurentMatrix([[0, 1], [u, 0]])
    sq = a @ a
    assert sq.entry(0, 0) == u and sq.entry(1, 1) == u
    assert sq.entry(0, 1).is_zero and sq.entry(1, 0).is_zero


def test_matrix_det_hand_examples():
    u = LaurentPoly.monomial(1)
    c = LaurentPoly.monomial(-1, 3.0)
    assert LaurentMatrix([[0, 1], [c, 0]]).det().terms() == [(-1, -3 + 0j)]
    assert LaurentMatrix([[0, 1], [u, 0]]).det().terms() == [(1, -1 + 0j)]
    assert LaurentMatrix.identity(4).det() == LaurentPoly.one()


def test_matrix_requires_square():
    with pytest.raises(ValueError):
        LaurentMatrix([[1, 2]])


def test_matrix_level_pruning():
    m = LaurentMatrix([[1e6, 1e-7], [0, 1]])
    assert m.entry(0, 1).is_zero  # 1e-7 is below 1e-12 * 1e6
    assert m.entry(1, 1) == LaurentPoly.one()


def test_matrix_eval_is_multiplicative(rng):
    a = random_laurent_matrix(rng, 3)
    b = random_laurent_matrix(rng, 3)
    u0 = 0.8 + 0.3j
    lhs = (a @ b).eval_at(u0)
    rhs = a.eval_at(u0) @ b.eval_at(u0)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + np.max(np.abs(rhs)))


def test_det_multiplicative(rng):
    for n in (1, 2, 3, 4):
        a = random_laurent_matrix(rng, n)
        b = random_laurent_matrix(rng, n)
        assert poly_close((a @ b).det(), a.det() * b.det(), 1e-8)


#: points of |u| = 1 off the roots of unity that the sampled det and inverse use
_OFF_GRID = np.exp(2j * np.pi * np.array([0.1234, 0.4321, 0.777]))


def test_det_matches_numpy_oracle(rng):
    for n in range(9, 17):
        m = random_laurent_matrix(rng, n, lo=-1, hi=1, max_terms=2)
        d = m.det()
        scale = sum(abs(c) for _, c in d.terms())
        for u0 in _OFF_GRID:
            assert abs(d(u0) - np.linalg.det(m.eval_at(u0))) <= 1e-9 * scale
    singular = LaurentMatrix([[random_laurent(rng, -1, 1)] * 9 for _ in range(9)])
    assert singular.det().is_zero


def test_inverse_and_iterate_match_numpy_at_rank_12(torus, rng):
    a = random_monomial_det_matrix(rng, 3, -1, 1)
    b = random_monomial_det_matrix(rng, 4, -1, 1)
    big = a.kron(b)
    inv = big.inverse_monomial_det()
    for u0 in _OFF_GRID:
        want = np.linalg.inv(big.eval_at(u0))
        assert np.max(np.abs(inv.eval_at(u0) - want)) <= 1e-8 * (1 + np.max(np.abs(want)))
    q = torus.q
    forward = iterate(FactorOfAutomorphy(torus, big), 3)
    g = random_single_exponent_matrix(rng, 12)
    backward = iterate(FactorOfAutomorphy(torus, g), -2)
    for u0 in _OFF_GRID:
        want = big.eval_at(q * q * u0) @ big.eval_at(q * u0) @ big.eval_at(u0)
        assert np.max(np.abs(forward.eval_at(u0) - want)) <= 1e-8 * (1 + np.max(np.abs(want)))
        want = np.linalg.inv(g.eval_at(u0 / q) @ g.eval_at(u0 / (q * q)))
        assert np.max(np.abs(backward.eval_at(u0) - want)) <= 1e-8 * np.max(np.abs(want))


def test_sampling_budget_names_the_width():
    wide = LaurentMatrix([[LaurentPoly({-3000: 1, 3000: 1})]])
    with pytest.raises(ValueError, match="sampling window of width 6001 needs 36012001 elements"):
        wide.det()
    inside = LaurentPoly({-500: 1, 500: 2j})
    assert poly_close(LaurentMatrix([[inside]]).det(), inside, 1e-12)


def test_det_size_switch_consistent_on_kron(rng):
    a = random_monomial_det_matrix(rng, 3, -1, 1)
    b = random_monomial_det_matrix(rng, 3, -1, 1)
    big = a.kron(b)
    assert big.n == 9
    expect = (a.det() ** 3) * (b.det() ** 3)
    assert poly_close(big.det(), expect, 1e-7)


def test_inverse_monomial_det(rng):
    a = random_monomial_det_matrix(rng, 3)
    inv = a.inverse_monomial_det()
    assert matrices_close(a @ inv, LaurentMatrix.identity(3))
    assert matrices_close(inv @ a, LaurentMatrix.identity(3))


def test_inverse_requires_monomial_det():
    m = LaurentMatrix([[LaurentPoly({0: 1, 1: 1}), 0], [0, 1]])
    with pytest.raises(NotInvertibleInRing):
        m.inverse_monomial_det()


def test_inverse_interpolation_path(rng):
    a = random_monomial_det_matrix(rng, 3, -1, 1)
    b = random_monomial_det_matrix(rng, 3, -1, 1)
    big = a.kron(b)
    inv = big.inverse_monomial_det()
    assert matrices_close(big @ inv, LaurentMatrix.identity(9), 1e-7)


def test_sampled_invertibility():
    t = Torus(1j)
    assert passes_sampled_invertibility(LaurentMatrix([[t.q ** 10]]))
    assert not passes_sampled_invertibility(LaurentMatrix([[LaurentPoly({0: 1, 1: 1})]]))  # zero at u = -1
    assert not passes_sampled_invertibility(LaurentMatrix([[1, 1], [1, 1]]))


def _sampled_criterion(m, samples=16):
    """The 16-sample invertibility rule, from numpy dets of eval_at."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = [abs(np.linalg.det(m.eval_at(np.exp(2j * np.pi * t / samples)))) for t in range(samples)]
    return bool(max(vals) > 0 and min(vals) > 1e-9 * max(vals))


def _one_exponent_rows(rng, n, scales):
    """A matrix whose row i is u^e_i times random complex entries of
    size scales[i]; a zero scale gives a zero row."""
    exps = rng.integers(-3, 4, size=n)
    rows = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return [[LaurentPoly.monomial(int(exps[i]), scales[i] * rows[i, j]) for j in range(n)] for i in range(n)]


def test_one_exponent_rows_invertibility_matches_sampled_criterion(rng):
    for n in range(1, 17):
        ones = [1.0] * n
        cases = {True: [_one_exponent_rows(rng, n, ones), _one_exponent_rows(rng, n, [1e-300] + ones[1:])]}
        cases[False] = [_one_exponent_rows(rng, n, [0.0] + ones[1:])]
        if n >= 2:
            # singular A(1) that elimination finds exactly singular: two
            # rows live in the last column only, or a zero column
            # (proportional dense rows leave a round-off det, which neither
            # rule decides)
            pair = _one_exponent_rows(rng, n, ones)
            col = _one_exponent_rows(rng, n, ones)
            for j in range(n - 1):
                pair[0][j] = pair[1][j] = LaurentPoly.zero()
            for row in col:
                row[-1] = LaurentPoly.zero()
            cases[False] += [
                pair,
                col,
                _one_exponent_rows(rng, n, [1e-200, 1e-200] + ones[2:]),  # det underflows to 0
                _one_exponent_rows(rng, n, [1e200, 1e200] + ones[2:]),  # det overflows to inf
            ]
        for want, mats in cases.items():
            for rows in mats:
                m = LaurentMatrix(rows, prune=False)
                assert _sampled_criterion(m) is want
                assert passes_sampled_invertibility(m) is want


def test_sampled_invertibility_spread_over_1e9_fails():
    # det = (1 + a u) det(S T) with 1 - a = 1e-11: |det| is 2 |det(S T)| at
    # u = 1 and 1e-11 |det(S T)| at u = -1, and every row has two exponents
    s = np.array([[2, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=complex)
    t = np.array([[1, 2, 0], [0, 1, 0], [0, 1, 1]], dtype=complex)
    d = LaurentMatrix.diagonal([LaurentPoly({0: 1.0, 1: 1 - 1e-11}), 1, 1])
    m = LaurentMatrix.from_constant(s) @ d @ LaurentMatrix.from_constant(t)
    assert abs(np.linalg.det(m.eval_at(1.0))) > 1.0
    assert not _sampled_criterion(m)
    assert not passes_sampled_invertibility(m)


def test_scaled_by_monomial_equals_kron_exactly(rng):
    factors = [2, -1.5, 0.25j, -3 - 0j, LaurentPoly.monomial(-2, -0.7 + 0.1j), LaurentPoly.monomial(3, -1j)]
    for n in (1, 2, 5):
        m = random_laurent_matrix(rng, n)
        neg = -LaurentMatrix.from_constant(1j * rng.normal(size=(n, n)))  # signed zero real parts
        for a in (m, neg):
            for c in factors + [complex(*rng.normal(size=2))]:
                got, want = a.scaled(c), LaurentMatrix([[c]]).kron(a)
                assert got._lo == want._lo
                assert got._c.tobytes() == want._c.tobytes()


def test_det_of_normal_forms_unchanged_bit_for_bit(any_torus):
    from torusbundles import normal_form
    from torusbundles.laurent import _pivot_det

    for r in range(1, 17):
        for d in range(-8, 9):
            a = normal_form(any_torus, r, d, 0.6 + 0.2j).A
            [(k, got)] = a.det().terms()
            # the general path: eliminate the one sample of a one-point window
            want = _pivot_det(a._at_roots(1)[0].tolist())
            assert k == -d
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_block_diagonal(rng):
    a = random_laurent_matrix(rng, 2)
    b = random_laurent_matrix(rng, 1)
    d = block_diagonal([a, b])
    assert d.n == 3
    assert d.entry(0, 1) == a.entry(0, 1)
    assert d.entry(2, 2) == b.entry(0, 0)
    assert d.entry(0, 2).is_zero


def test_matrix_json_roundtrip(rng):
    m = random_laurent_matrix(rng, 3)
    data = json.loads(json.dumps(matrix_to_json(m)))
    back = matrix_from_json(data)
    assert (m - back).max_coeff() == 0.0
    # ascending exponents, nonzero terms only
    for entry in data["entries"]:
        ks = [t["k"] for t in entry]
        assert ks == sorted(ks)
        assert all(t["re"] != 0 or t["im"] != 0 for t in entry)


def test_json_rejects_wrong_count():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[], [], []]})
