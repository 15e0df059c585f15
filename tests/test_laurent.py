import json
import math
import re
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusbundles import (
    PRUNE_REL,
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
from torusbundles import laurent
from torusbundles.laurent import SAMPLE_BUDGET

from helpers import (
    matrix_bytes,
    random_laurent,
    random_laurent_matrix,
    random_monomial_det_matrix,
    random_single_exponent_matrix,
    reference_at_roots,
    reference_matrix,
    reference_pivot_det,
    reference_poly_terms,
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
    # input is exact, so the constructor keeps a term 1e-15 of the
    # largest; a sum is computed and prunes it against its own largest
    p = LaurentPoly({0: 1.0, 5: 1e-15})
    assert p.support == [0, 5]
    assert (p + 0).support == [0]
    tiny = LaurentPoly({0: 1e-15})
    assert not tiny.is_zero and not (tiny + 0).is_zero


def test_poly_rejects_bad_input():
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1.0})
    with pytest.raises(ValueError):
        LaurentPoly({0: complex("inf")})


class _Pairs(Mapping):
    """(exponent, coefficient) pairs read as a mapping, so an exponent
    may repeat."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs

    def __getitem__(self, k):
        raise KeyError(k)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


_edge_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -1.5, 1e300, 1e308,
                               math.inf, -math.inf, math.nan])
_odd_values = st.sampled_from([True, 0, -3, np.float64(2.5), np.complex128(1 - 2j), "1+2j", "x", None,
                               1e308 + 1e308j, complex(-0.0, -0.0)])
_ctor_value = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_subnormal=True),
    st.builds(complex, _edge_parts, _edge_parts),
    _odd_values,
)
_ctor_key = st.one_of(
    st.integers(-6, 6), st.integers(-6, 6).map(np.int64), st.booleans(),
    st.sampled_from([0.0, 1.5, "1", None, np.uint8(3)]),
)


@st.composite
def _ctor_input(draw):
    """A dict for the constructor, or pairs with repeated exponents, with
    sometimes one term at the PRUNE_REL boundary of the largest modulus,
    which the constructor keeps as it keeps every term."""
    pairs = draw(st.lists(st.tuples(_ctor_key, _ctor_value), max_size=7))
    # math.hypot, as abs(1e308+1e308j) raises OverflowError
    moduli = [math.hypot(v.real, v.imag) for _, v in pairs if type(v) is complex]
    finite = [m for m in moduli if math.isfinite(m)]
    if finite and max(finite) > 0 and draw(st.booleans()):
        edge = PRUNE_REL * max(finite) * draw(st.sampled_from([1.0, 1 + 2 ** -52, 1 - 2 ** -53]))
        pairs.append((draw(st.integers(-6, 6)), complex(edge, draw(st.sampled_from([0.0, -0.0])))))
    return _Pairs(pairs) if draw(st.booleans()) else dict(pairs)


def _outcome(build, coeffs):
    """Exponents with their types, and coefficient bytes; or the error."""
    try:
        c = build(coeffs)
    except Exception as exc:
        return type(exc), str(exc)
    return [(k, type(k)) for k in c], np.array(list(c.values()), dtype=complex).tobytes()


@settings(max_examples=500, deadline=None)
@given(_ctor_input())
@example({np.int64(2): 1.0, True: -0.0 + 1j, 0: complex(-1e-12, -0.0), -1: 1.0})
@example({0: 1e308 + 1e308j})
@example({0: 1.0, 1: 1e-12, 2: 1e-12 * (1 + 2 ** -52), 3: 5e-324})
@example(_Pairs([(1, 1.0), (np.int64(1), -1.0), (2, 1e-13)]))
@example(_Pairs([(1, 1.0), (1, 1e-3), (0, 2.0)]))
@example(_Pairs([(1, 1.0), (1, -1.0), (0, 2.0)]))  # a repeated exponent that cancels
@example(_Pairs([(0, 1e308), (0, 1e308), (1, 1.0)]))  # one whose sum leaves the double range
@example({1: complex(math.nan, 0.0)})
def test_constructor_matches_the_two_pass_reference(coeffs):
    # items, their order and coefficient bytes, or the error type and text
    assert _outcome(lambda d: LaurentPoly(d)._c, coeffs) == _outcome(reference_poly_terms, coeffs)


_zero_entry = st.sampled_from([0, 0.0, -0.0, 0j, complex(-0.0, -0.0), np.float64(0.0), np.complex128(0), LaurentPoly()])
_scalar_entry = st.one_of(
    st.integers(-5, 5), st.floats(-3, 3), st.complex_numbers(max_magnitude=3.0),
    st.integers(-5, 5).map(np.int64), st.floats(-3, 3).map(np.float64),
    st.complex_numbers(max_magnitude=3.0).map(np.complex128),
)
_term = st.tuples(st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(np.int64)),
                  st.complex_numbers(max_magnitude=3.0))
_poly_entry = st.one_of(
    st.dictionaries(st.integers(-4, 4), st.complex_numbers(max_magnitude=3.0), max_size=5).map(LaurentPoly),
    # a mapping whose exponents repeat: terms, then negated copies of some,
    # so a sum may cancel
    st.lists(_term, min_size=1, max_size=4).flatmap(lambda ts: st.lists(st.sampled_from(ts), max_size=3).map(
        lambda again: LaurentPoly(_Pairs(ts + [(k, -v) for k, v in again])))),
)


@st.composite
def _matrix_rows(draw):
    n = draw(st.integers(1, 9))
    entry = draw(st.sampled_from([_zero_entry, _scalar_entry, _poly_entry,
                                  st.one_of(_zero_entry, _scalar_entry, _poly_entry)]))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_matrix_rows())
def test_matrix_constructor_matches_the_term_by_term_reference(rows):
    m = LaurentMatrix(rows)
    lo, c = reference_matrix(rows)
    assert (m._lo, m._c.shape, m._c.tobytes()) == (lo, c.shape, c.tobytes())
    assert m._det is None


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


def _one_by_one(p):
    return LaurentMatrix([[p]])


@given(_poly, _poly, _coeff, _scale)
# a product whose u term cancels to 2.8e-17: a rule of its own, pruning
# each term against |a| * |b|, dropped it from the polynomial product
@example(LaurentPoly({0: 0.1, 1: 0.3}), LaurentPoly({0: 0.7, 1: -0.3 * 0.7 / 0.1}), 2.0, 1.0)
def test_poly_arithmetic_is_that_of_the_one_by_one_matrix(p, r, z, c):
    a, b, const = _one_by_one(p), _one_by_one(r), _one_by_one(LaurentPoly.constant(z))
    for got, want in (
        (p + r, a + b), (p - r, a - b), (p * r, a @ b), (p ** 3, a @ a @ a),
        (p + z, a + const), (z - p, const - a), (p * z, a @ const), (z * p, a @ const),
        (p.substitute_scaled(c), a.substitute_scaled(c)),
    ):
        assert got.terms() == want.entry(0, 0).terms()


def _peak_of(f):
    """f's result or error, and the peak traced allocation while it ran."""
    tracemalloc.start()
    try:
        try:
            out = f()
        except ValueError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_zero_summand_does_not_widen_the_window():
    far = LaurentPoly.monomial(10 ** 9, 2.5)
    for f in (lambda: far + 0, lambda: 0 + far, lambda: far - LaurentPoly.zero(), lambda: sum([far])):
        got, peak = _peak_of(f)
        assert got == far and peak < 1 << 20
    got, peak = _peak_of(lambda: LaurentPoly.zero() - far)
    assert got == -far and peak < 1 << 20
    m = LaurentMatrix([[far, 0], [0, 1j * far]])
    assert (m + LaurentMatrix.zeros(2))._c.tobytes() == m._c.tobytes()


def test_a_sum_past_the_budget_raises_before_allocating(monkeypatch):
    # the window of a sum is dense, so a sparse polynomial spanning more
    # than SAMPLE_BUDGET exponents has no sum, difference or poly_close
    far = LaurentPoly.monomial(10 ** 9)
    text = f"exponent window of width {10 ** 9 + 1} needs {10 ** 9 + 1} elements, more than SAMPLE_BUDGET = {SAMPLE_BUDGET}"
    for f in (lambda: far + 1, lambda: 1 - far, lambda: poly_close(far, LaurentPoly.one())):
        got, peak = _peak_of(f)
        assert isinstance(got, ValueError) and str(got) == text and peak < 1 << 20
    monkeypatch.setattr(laurent, "SAMPLE_BUDGET", 81)
    assert not poly_close(LaurentPoly.monomial(80), LaurentPoly.one())
    with pytest.raises(ValueError, match="width 82 needs 82 elements"):
        poly_close(LaurentPoly.monomial(81), LaurentPoly.one())


@given(_poly, _scale, _scale)
@settings(max_examples=60)
def test_substitution_is_multiplicative(p, a, b):
    assert poly_close(p.substitute_scaled(a).substitute_scaled(b), p.substitute_scaled(a * b), 1e-7)


@given(_poly, _poly, _scale)
@settings(max_examples=60)
# the exact term 2^-48 u^-8 of the product lies below 1e-12 of its largest
# coefficient, and dropping it puts the product off by 1.7e-7 at u0
@example(LaurentPoly({-5: 2 ** -24, 3: 1.0}), LaurentPoly({-3: 2 ** -24, 1: 1.0}), 0.109375)
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
    # rows are input, kept as given; a sum prunes against the largest
    # coefficient of the whole matrix, so it drops 1e-7, below 1e-12 * 1e6,
    # although 1e-7 is the largest term of its own entry
    m = LaurentMatrix([[1e6, 1e-7], [0, 1]])
    assert m.entry(0, 1) == LaurentPoly.constant(1e-7)
    s = m + LaurentMatrix.zeros(2)
    assert s.entry(0, 1).is_zero
    assert s.entry(1, 1) == LaurentPoly.one()


@pytest.mark.parametrize("big, small", [(1e13, 1.0), (1e6, 1e-7)])
def test_every_kind_of_input_is_stored_as_given(big, small):
    # the same terms read as rows of scalars, polynomials from mappings,
    # a constant array or JSON give the same bytes, every term kept
    def json_matrix(entries):
        return matrix_from_json({"n": 2, "entries": [[{"k": k, "re": v, "im": 0.0} for k, v in e.items()]
                                                     for e in entries]})

    consts = [[big, small], [0, 1]]
    want = matrix_bytes(LaurentMatrix(consts))
    assert want[1] == (1, 2, 2) and np.count_nonzero(LaurentMatrix(consts)._c) == 3
    assert matrix_bytes(LaurentMatrix.from_constant(consts)) == want
    assert matrix_bytes(LaurentMatrix([[LaurentPoly.constant(v) for v in row] for row in consts])) == want
    assert matrix_bytes(json_matrix([{0: big}, {0: small}, {}, {0: 1.0}])) == want

    entries = [{0: big, 3: small}, {-2: small}, {}, {0: 1.0}]
    rows = LaurentMatrix([[LaurentPoly(entries[0]), LaurentPoly(entries[1])], [0, LaurentPoly(entries[3])]])
    assert matrix_bytes(json_matrix(entries)) == matrix_bytes(rows)
    assert [[e.terms() for e in row] for row in rows.rows()] == [
        [[(0, big + 0j), (3, small + 0j)], [(-2, small + 0j)]], [[], [(0, 1 + 0j)]]]


def test_scaled_keeps_every_term_of_its_factor():
    # p = 1e13 + u^8 read from JSON keeps its u^8 term; so does A.scaled(p),
    # which is the Kronecker product [[p]] (x) A
    p = laurent.terms_from_json([{"k": 0, "re": 1e13, "im": 0.0}, {"k": 8, "re": 1.0, "im": 0.0}])
    a = LaurentMatrix([[1, 2j], [LaurentPoly.monomial(-1), 3]])
    got = a.scaled(p)
    assert matrix_bytes(got) == matrix_bytes(LaurentMatrix([[p]]).kron(a))
    assert got.entry(1, 0).terms() == [(-1, 1e13 + 0j), (7, 1 + 0j)]


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


def test_one_exponent_det_past_the_double_range_raises():
    m = LaurentMatrix.diagonal([1e200, 1e200])
    for _ in range(2):  # the det is not kept, so a second call raises too
        with pytest.raises(ValueError) as exc:
            m.det()
        assert str(exc.value) == "non-finite coefficient (inf+0j) at exponent 0"
    assert m._det is None


def test_zero_row_gives_the_zero_det():
    # three exponents in the other row: no one-point elimination
    m = LaurentMatrix([[0, 0], [LaurentPoly({-1: 1, 0: 2, 1: 3}), 1]])
    assert m._one_point_det() is None
    assert m.det().is_zero and m._det is None


def test_sampled_det_is_not_kept(rng):
    m = random_laurent_matrix(rng, 3)
    d = m.det()
    assert m._det is None and m.det() == d
    one = LaurentMatrix.diagonal([LaurentPoly.monomial(1, 2.0), LaurentPoly.monomial(-3, 0.5)])
    assert one.det() == LaurentPoly.monomial(-2, 1.0) and one._det == (-2, 1.0)


_HUGE = LaurentMatrix([[1.5e308, 0], [0, 1]])


@pytest.mark.parametrize("op", [
    lambda: _HUGE @ _HUGE,
    lambda: _HUGE.kron(_HUGE),
    lambda: _HUGE + _HUGE,
    lambda: _HUGE - (-_HUGE),
    lambda: _HUGE.scaled(LaurentPoly.monomial(2, 10.0)),
    lambda: _HUGE.scaled(LaurentPoly({0: 10.0, 1: 1.0})),
    # a sampled det, read as the 1 x 1 matrix of its window
    lambda: LaurentMatrix.diagonal([LaurentPoly({0: 1e200, 1: 1e200}), LaurentPoly({0: 1e200, 1: 1.0})]).det(),
], ids=["matmul", "kron", "add", "sub", "scaled monomial", "scaled poly", "sampled det"])
def test_overflowing_arithmetic_raises_without_a_numpy_warning(op):
    # the suite turns RuntimeWarning into an error, so a warning would come first
    with pytest.raises(ValueError) as exc:
        op()
    assert re.fullmatch(r"non-finite coefficient in a \d x \d matrix", str(exc.value))


_BIG, _SKEW = LaurentMatrix([[1e200]]), LaurentMatrix([[1.5e108 + 1.5e108j]])


@pytest.mark.parametrize("op", [lambda: _BIG @ _SKEW, lambda: _BIG.kron(_SKEW)], ids=["matmul", "kron"])
def test_a_product_with_finite_parts_and_an_infinite_modulus_raises(op):
    # the product 1.5e308 + 1.5e308j has finite parts, and so a finite sum;
    # the suite turns RuntimeWarning into an error, so a warning would come first
    with pytest.raises(ValueError) as exc:
        op()
    assert str(exc.value) == "non-finite coefficient in a 1 x 1 matrix"


@pytest.mark.parametrize("op", [lambda a, b: a @ b, lambda a, b: a.kron(b)], ids=["matmul", "kron"])
def test_a_product_whose_squared_moduli_overflow_is_kept(op):
    # the squared modulus 1e320 is past the double range, the modulus is not
    got = op(LaurentMatrix([[1e150]]), LaurentMatrix([[1e10]]))
    assert got.entry(0, 0).terms() == [(0, 1e160 + 0j)]


def test_substitution_to_a_finite_part_and_an_infinite_modulus_raises():
    m = LaurentMatrix([[LaurentPoly({1: 1e200})]])
    text = "non-finite coefficient after substituting u -> (1.5e+108+1.5e+108j) u"
    with pytest.raises(ValueError) as exc:
        m.substitute_scaled(1.5e108 * (1 + 1j))
    assert str(exc.value) == text
    translates, failure = m._translate_stack([1, 1.5e108 * (1 + 1j)])
    assert len(translates) == 1 and str(failure) == text
    # a modulus near 1e160, whose square is past the double range, is kept
    assert m.substitute_scaled(1e-40 + 1e-40j).max_coeff() == pytest.approx(math.sqrt(2) * 1e160)


def test_values_at_roots_fold_a_window_wider_than_the_sample(rng):
    # more slices than roots, contiguous and as a transposed view
    for n, k, lo in ((1, 37, -20), (3, 40, 5)):
        c = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        for m in (LaurentMatrix._from_coeffs(lo, c),
                  LaurentMatrix._from_coeffs(lo, c.transpose(0, 2, 1))):
            for width in (5, 16):
                want = np.array([m.eval_at(np.exp(2j * np.pi * t / width)) for t in range(width)])
                assert np.abs(m._at_roots(width) - want).max() <= 1e-12 * k


def test_values_at_roots_match_the_inline_root_table(rng):
    # windows below, at and above the sample count (the folded path), from
    # lowest exponents on both sides of 0 and past several widths
    c = rng.normal(size=(81, 2, 2)) + 1j * rng.normal(size=(81, 2, 2))
    for width in range(1, 41):
        for k in sorted({max(1, width // 2), width, 2 * width + 1}):
            arrays = (c[:k], c[:k].transpose(0, 2, 1))
            for lo in range(-60, 61):
                for a in arrays:
                    m = LaurentMatrix._from_coeffs(lo, a)
                    assert m._at_roots(width).tobytes() == reference_at_roots(m, width).tobytes()


def test_a_kept_root_table_is_read_only():
    table = laurent._root_table(16, 3, 5)
    assert table is laurent._root_table(16, 3, 5)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def test_a_root_table_past_the_cap_is_built_but_not_kept(rng):
    width = 256  # a 256 x 256 table, 1 MiB, past TABLE_CAP
    assert width * width > laurent.TABLE_CAP
    c = rng.normal(size=(width, 1, 1)) + 0j
    m = LaurentMatrix._from_coeffs(-7, c)
    kept = laurent._root_table.cache_info().currsize
    tracemalloc.start()
    try:
        for _ in range(3):
            got = m._at_roots(width)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert laurent._root_table.cache_info().currsize == kept
    assert got.tobytes() == reference_at_roots(m, width).tobytes()
    # the exponents, their scaled copy and the table: about 4 MiB at once,
    # and after the calls only the last result of 4 KiB is held
    assert peak < 8 << 20
    assert left < 64 << 10


def _elimination_input(rng, n, kind, scale):
    """An n x n sample for _pivot_det: dense, upper triangular, with a
    zero row or two proportional rows, with rows scaled by e^scale."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "triangular":
        a = np.triu(a)
    elif kind == "zero row":
        a[rng.integers(n)] = 0
    elif kind == "proportional" and n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        a[j] = (0.5 - 2j) * a[i]
    a *= np.exp(scale * rng.choice([-1.0, 0.0, 1.0], size=n))[:, None]
    return a.tolist()


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["dense", "triangular", "zero row", "proportional"]), st.sampled_from([0.0, 300.0]))
def test_elimination_skips_dead_columns_bit_for_bit(n, seed, kind, scale):
    # the columns up to the pivot's are never read again, so updating only
    # those past it leaves every determinant's bytes as they were
    from torusbundles.laurent import _pivot_det

    m = _elimination_input(np.random.default_rng(seed), n, kind, scale)
    got, want = _pivot_det([row[:] for row in m]), reference_pivot_det([row[:] for row in m])
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


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
                m = LaurentMatrix(rows)
                assert _sampled_criterion(m) is want
                assert passes_sampled_invertibility(m) is want
    # rows scaled 1e200, 1e200, 1e-200, 1e-200, where the running product
    # of the pivots overflows on the way, and columns scaled the other way
    # round, where it underflows: det A(1) is of order 1 in both
    scales = [1e200, 1e200, 1e-200, 1e-200]
    by_rows = _one_exponent_rows(rng, 4, scales)
    by_cols = [[p * s for p, s in zip(row, scales[::-1])] for row in _one_exponent_rows(rng, 4, [1.0] * 4)]
    for rows in (by_rows, by_cols):
        m = LaurentMatrix(rows)
        assert _sampled_criterion(m) and passes_sampled_invertibility(m)
        [(k, det)] = m.det().terms()
        want = np.linalg.det(m.eval_at(1.0))
        assert abs(det - want) <= 1e-12 * abs(want)


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


def test_scaled_by_a_polynomial_equals_kron_exactly(rng):
    p = LaurentPoly({-1: 0.5, 2: 1 - 2j})
    for n in (1, 3):
        a = random_laurent_matrix(rng, n)
        got, want = a.scaled(p), LaurentMatrix([[p]]).kron(a)
        assert (got._lo, got._c.tobytes()) == (want._lo, want._c.tobytes())


def test_products_with_the_zero_matrix_are_zero(rng):
    a = random_laurent_matrix(rng, 3)
    for got, n in ((a @ LaurentMatrix.zeros(3), 3), (LaurentMatrix.zeros(3) @ a, 3),
                   (a.kron(LaurentMatrix.zeros(2)), 6), (LaurentMatrix.zeros(2).kron(a), 6)):
        assert got.n == n and got._c.shape == (0, n, n)


def test_det_with_a_zero_row_is_zero():
    assert LaurentMatrix([[0, 0], [LaurentPoly.monomial(1), 1]]).det().is_zero


def test_translates_match_one_product_per_scale(rng):
    # the stacked substitution against the product it replaces, one
    # scale at a time: c * w[:, None, None] with the Python powers w
    for n in (1, 2, 5):
        for width in (1, 3):
            base = rng.normal(size=(width + 2, n, n)) + 1j * rng.normal(size=(width + 2, n, n))
            for c in (base[:width], base[1:width + 1].transpose(0, 2, 1)):
                m = LaurentMatrix._from_coeffs(-1, c)
                scales = [complex(*rng.normal(size=2)) for _ in range(4)]
                for k in range(1, len(scales) + 1):
                    translates, failure = m._translate_stack(scales[:k])
                    assert failure is None and len(translates) == k
                    for s, got in zip(scales, translates):
                        want = m._c * np.array([s ** e for e in range(-1, width - 1)])[:, None, None]
                        one = m.substitute_scaled(s)
                        assert one._lo == -1
                        assert got.tobytes() == want.tobytes()
                        assert got.tobytes() == one._c.tobytes()


def test_translates_stop_at_the_first_failing_scale():
    m = LaurentMatrix([[LaurentPoly({-40: 1e300})]])
    for scale, kind, text in (
        (0, ValueError, "substitution scale must be nonzero"),
        (0.1, ValueError, "non-finite coefficient after substituting u -> (0.1+0j) u"),
        (1e-8, OverflowError, "complex exponentiation"),
        (1e-10, ZeroDivisionError, "0.0 to a negative or complex power"),
    ):
        translates, failure = m._translate_stack([1, 1.5, scale, 0])
        assert len(translates) == 2
        assert (type(failure), str(failure)) == (kind, text)
        with pytest.raises(kind, match=re.escape(text)):
            m.substitute_scaled(scale)


def test_det_of_normal_forms_unchanged_bit_for_bit(any_torus):
    from torusbundles import atiyah_construct, normal_form
    from torusbundles.laurent import _pivot_det

    for build in (normal_form, atiyah_construct):
        for r in range(1, 17):
            for d in range(-8, 9):
                a = build(any_torus, r, d, 0.6 + 0.2j).A
                [(k, got)] = a.det().terms()
                # the general path: eliminate the one sample of a one-point window
                want = _pivot_det(a._at_roots(1)[0].tolist())
                assert k == -d
                assert np.array([got]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.1 + 0.6j])
def test_carried_det_of_normal_forms_is_elimination(tau):
    # parameters whose dets have a zero real or imaginary part, where
    # elimination can leave -0: det() equals elimination's value, and its
    # bytes are those LaurentPoly stores for that value, a zero part as +0
    from torusbundles import atiyah_construct, normal_form
    from torusbundles.laurent import _pivot_det

    t = Torus(tau)
    for build in (normal_form, atiyah_construct):
        for param in (-1.3 + 0.01j, 1e-5j):
            for r in range(1, 17):
                for d in range(-8, 9):
                    a = build(t, r, d, param).A
                    [(k, got)] = a.det().terms()
                    want = _pivot_det(a._at_roots(1)[0].tolist())
                    assert (k, got) == (-d, want)
                    [(_, stored)] = LaurentPoly({k: want}).terms()
                    assert np.array([got]).tobytes() == np.array([stored]).tobytes()


def test_block_diagonal(rng):
    a = random_laurent_matrix(rng, 2)
    b = random_laurent_matrix(rng, 1)
    d = block_diagonal([a, b])
    assert d.n == 3
    assert d.entry(0, 1) == a.entry(0, 1)
    assert d.entry(2, 2) == b.entry(0, 0)
    assert d.entry(0, 2).is_zero


def test_diagonal_matches_its_rows(rng):
    # 1e-14 stays: a diagonal is not pruned against its largest entry
    entries = [0, 2.5, -0.0, LaurentPoly({-3: 1j}), random_laurent(rng, -2, 3), 1e-14, LaurentPoly.monomial(4, 1e3)]
    n = len(entries)
    want = LaurentMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])
    got = LaurentMatrix.diagonal(entries)
    assert (got._lo, got._c.tobytes()) == (want._lo, want._c.tobytes())
    with pytest.raises(ValueError):
        LaurentMatrix.diagonal([])


def test_block_diagonal_refuses_a_window_past_the_budget():
    far = [LaurentPoly.monomial(-530000), LaurentPoly.monomial(530000)]
    text = "exponent window of width 1060001 needs 4240004 elements, more than SAMPLE_BUDGET = 4194304"
    with pytest.raises(ValueError) as exc:
        LaurentMatrix.diagonal(far)
    assert str(exc.value) == text
    with pytest.raises(ValueError) as exc:
        block_diagonal([LaurentMatrix([[p]]) for p in far])
    assert str(exc.value) == text


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


def test_json_reads_an_integral_float_exponent():
    m = matrix_from_json({"n": 1, "entries": [[{"k": 2.0, "re": 1.5, "im": 0.0}]]})
    [(k, c)] = m.entry(0, 0).terms()
    assert (type(k), k, c) == (int, 2, 1.5)


def test_json_round_trip_keeps_every_term_of_an_iterate():
    # (2 + u) iterated 8 times on tau = i runs from 256 down to 3.9e-77:
    # reading it back prunes none of its terms against the largest
    f = FactorOfAutomorphy(Torus(1j), LaurentMatrix([[LaurentPoly({0: 2.0, 1: 1.0})]]))
    m = iterate(f, 8)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert len(m._c) == 9
    assert (back._lo, back._c.tobytes()) == (m._lo, m._c.tobytes())


def test_json_terms_sum_repeated_exponents_and_drop_exact_zeros():
    terms = [{"k": 1, "re": 1.0, "im": 0.0}, {"k": 1, "re": -1.0, "im": 0.0}, {"k": 0, "re": 2.0, "im": 0.0},
             {"k": 2, "re": 1e-20, "im": -0.0}, {"k": 3, "re": 0.0, "im": 0.0}]
    assert laurent.terms_from_json(terms).terms() == [(0, 2.0), (2, 1e-20)]
    with pytest.raises(ValueError, match="^non-finite coefficient"):
        laurent.terms_from_json([{"k": 0, "re": math.inf, "im": 0.0}])
    with pytest.raises(ValueError, match=r"^non-finite coefficient \(inf\+0j\) at exponent 0$"):
        laurent.terms_from_json([{"k": 0, "re": 1e308, "im": 0.0}, {"k": 0, "re": 1e308, "im": 0.0}])
    with pytest.raises(ValueError, match="^exponent must be an integer, got 0.5$"):
        laurent.terms_from_json([{"k": 0.5, "re": 1.0, "im": 0.0}])
