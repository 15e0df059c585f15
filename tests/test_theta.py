"""Theta series, automorphy factors and the sampled verifier."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from torusbundles import (
    ThetaCharacteristic,
    ThetaReport,
    Torus,
    e_factor,
    phi0,
    theta_eval,
    theta_zero,
    verify_theta_function,
)
from torusbundles import laurent
from torusbundles.laurent import SAMPLE_BUDGET
from torusbundles.theta import SHIFT_RANGE


XI0 = ThetaCharacteristic()
XI_HALF = ThetaCharacteristic(0.5, 0.0)


def test_theta_constant_value_at_square_modulus():
    # theta(0) for tau = i equals pi^(1/4) / Gamma(3/4), a closed form
    # that never goes near the series
    t = Torus(1j)
    want = math.pi ** 0.25 / math.gamma(0.75)
    got = theta_eval(t, XI0, 0.0)
    assert abs(got - want) <= 1e-12


def test_theta_truncation_is_stable(any_torus):
    z = 0.21 + 0.13j
    ref = theta_eval(any_torus, XI0, z, terms=60)
    for terms in (10, 20, 40):
        assert abs(theta_eval(any_torus, XI0, z, terms=terms) - ref) <= 1e-12 * (1 + abs(ref))
    with pytest.raises(ValueError, match="^terms must be positive, got 0$"):
        theta_eval(any_torus, XI0, z, terms=0)


def test_theta_is_even_at_zero_characteristic(any_torus):
    for z in (0.3, 0.1 + 0.2j, -0.4 + 0.05j):
        a = theta_eval(any_torus, XI0, z)
        b = theta_eval(any_torus, XI0, -z)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_theta_vanishes_at_its_zeros(any_torus):
    for xi in (XI0, XI_HALF, ThetaCharacteristic(0.25, 0.3)):
        for m, n in [(0, 0), (1, 0), (0, 1), (-2, 1)]:
            z = theta_zero(any_torus, xi, m, n)
            assert abs(theta_eval(any_torus, xi, z)) <= 1e-7


def test_e_factor_cocycle_identity(any_torus, rng):
    # e(gamma1 + gamma2, z) = e(gamma1, z + gamma2) e(gamma2, z)
    xi = ThetaCharacteristic(0.25, 0.1)
    tau = any_torus.tau
    for _ in range(10):
        z = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau
        for p1, n1, p2, n2 in [(1, 0, 0, 1), (1, 1, -1, 0), (2, -1, -1, 2), (0, 2, 2, 0)]:
            g2 = p2 * tau + n2
            lhs = e_factor(any_torus, xi, p1 + p2, n1 + n2, z)
            rhs = e_factor(any_torus, xi, p1, n1, z + g2) * e_factor(any_torus, xi, p2, n2, z)
            scale = 1.0 + max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) / scale <= 1e-10


def test_e_factor_bridges_to_line_factor(any_torus):
    # for the zero characteristic and shift tau, the factor equals
    # phi0 evaluated at u = exp(2 pi i z)
    for z in (0.2 + 0.1j, 0.7 - 0.05j, 0.4 + 0.6j):
        u = cmath.exp(2j * cmath.pi * z)
        lhs = e_factor(any_torus, XI0, 1, 0, z)
        rhs = phi0(any_torus)(u)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_theta_satisfies_functional_equation(any_torus):
    for xi in (XI0, ThetaCharacteristic(0.5, 0.5)):
        report = verify_theta_function(
            any_torus,
            lambda p, n, z: e_factor(any_torus, xi, p, n, z),
            lambda z: theta_eval(any_torus, xi, z),
            samples=32,
        )
        assert report.passed, report
        assert report.max_residual <= 1e-9
        assert report.samples == 32


def test_verifier_flags_wrong_factor(torus):
    # dropping the p^2 term gives a function that is not an automorphy
    # factor for theta, and the verifier must notice
    wrong = lambda p, n, z: cmath.exp(-2j * cmath.pi * p * z)
    report = verify_theta_function(
        torus, wrong, lambda z: theta_eval(torus, XI0, z), samples=8
    )
    assert not report.passed
    assert report.max_residual > 1e-3


def test_verifier_is_deterministic_under_seed(torus):
    run = lambda: verify_theta_function(
        torus,
        lambda p, n, z: e_factor(torus, XI0, p, n, z),
        lambda z: theta_eval(torus, XI0, z),
        samples=16,
        rng=np.random.default_rng(7),
    )
    assert run() == run()


def test_verifier_evaluates_s_once_per_point(torus):
    # each sample z needs s(z) once and s(z + gamma) for every shift gamma
    calls = []

    def s(z):
        calls.append(z)
        return theta_eval(torus, XI0, z)

    report = verify_theta_function(torus, lambda p, n, z: e_factor(torus, XI0, p, n, z), s, samples=4)
    assert report.passed
    assert len(calls) == 4 * (1 + (2 * SHIFT_RANGE + 1) ** 2)


def test_verifier_input_checks(torus):
    with pytest.raises(ValueError, match="^samples must be positive, got 0$"):
        verify_theta_function(torus, lambda p, n, z: 1.0, lambda z: 1.0, samples=0)


@pytest.mark.parametrize("terms, text", [
    (2.5, "terms must be positive, got 2.5"),
    (True, "terms must be positive, got True"),
])
def test_theta_terms_must_be_an_integer(terms, text):
    # 2.5 terms summed n over half-integers: 0.868 where the series is 1.0699
    with pytest.raises(ValueError) as exc:
        theta_eval(Torus(1j), XI0, 0.1, terms=terms)
    assert str(exc.value) == text


def test_theta_takes_numpy_integer_terms(torus):
    assert theta_eval(torus, XI0, 0.1, terms=np.int64(3)) == theta_eval(torus, XI0, 0.1, terms=3)


@pytest.mark.parametrize("samples, text", [
    (2.5, "samples must be positive, got 2.5"),
    (True, "samples must be positive, got True"),
])
def test_verifier_samples_must_be_an_integer(torus, samples, text):
    with pytest.raises(ValueError) as exc:
        verify_theta_function(torus, lambda p, n, z: 1.0, lambda z: 1.0, samples=samples)
    assert str(exc.value) == text


def test_report_json_shape():
    rep = ThetaReport(max_residual=1.5e-11, samples=64, passed=True)
    d = rep.to_json_dict()
    assert d == {"max_residual": 1.5e-11, "samples": 64, "pass": True}


@pytest.mark.parametrize("a, b", [(0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5)])
def test_theta_matches_mpmath_jtheta(any_torus, a, b):
    # with nome exp(pi i tau) and w = pi z the four characteristics are
    # the classical theta_3(w), theta_4(w), theta_2(w) and -theta_1(w)
    mpmath = pytest.importorskip("mpmath")
    n = {(0, 0): 3, (0, 0.5): 4, (0.5, 0): 2, (0.5, 0.5): 1}[a, b]
    sign = -1 if n == 1 else 1
    xi = ThetaCharacteristic(a, b)
    rng = np.random.default_rng(20240917)
    with mpmath.workdps(30):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(any_torus.tau))
        for alpha, beta in rng.uniform(0.05, 0.95, size=(8, 2)):
            z = alpha + beta * any_torus.tau
            want = sign * complex(mpmath.jtheta(n, mpmath.pi * mpmath.mpc(z), nome))
            assert abs(theta_eval(any_torus, xi, z) - want) <= 1e-12 * abs(want)


def test_theta_past_the_double_range_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError):
            theta_eval(Torus(1j), XI0, -100j)


def test_theta_past_the_budget_raises_before_allocating():
    terms = SAMPLE_BUDGET // 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            theta_eval(Torus(1j), XI0, 0.1, terms=terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = 2 * terms + 1
    assert str(exc.value) == (
        f"theta series window of width {width} needs {width} elements, more than SAMPLE_BUDGET = {SAMPLE_BUDGET}"
    )
    assert peak < 1 << 20


def test_theta_budget_admits_exactly_its_width(monkeypatch):
    monkeypatch.setattr(laurent, "SAMPLE_BUDGET", 81)
    assert theta_eval(Torus(1j), XI0, 0.1, terms=40) == theta_eval(Torus(1j), XI0, 0.1)
    with pytest.raises(ValueError, match="width 83 needs 83 elements"):
        theta_eval(Torus(1j), XI0, 0.1, terms=41)
