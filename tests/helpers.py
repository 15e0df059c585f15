"""Shared samplers and independent oracles for the test suite."""

import cmath
import itertools
import math

import numpy as np

from torusbundles import FactorOfAutomorphy, LaurentMatrix, LaurentPoly
from torusbundles.cocycle import _PowerWalk
from torusbundles.laurent import _sample_dets


def random_constant_invertible(rng, n, cond_cap=50.0):
    while True:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(m) < cond_cap:
            return m


def random_monomial_det_matrix(rng, n, exp_lo=-2, exp_hi=2):
    """S @ diag(c_k u^(e_k)) @ T with constant invertible S, T.

    The determinant is a monomial and every entry is supported on the
    exponents of the diagonal, so supports stay inside [exp_lo, exp_hi].
    """
    for _ in range(20):
        s = random_constant_invertible(rng, n)
        t = random_constant_invertible(rng, n)
        exps = rng.integers(exp_lo, exp_hi + 1, size=n)
        phases = rng.uniform(0, 2 * math.pi, size=n)
        mags = rng.uniform(0.5, 1.5, size=n)
        diag = LaurentMatrix.diagonal(
            [LaurentPoly.monomial(int(e), m * cmath.exp(1j * p)) for e, m, p in zip(exps, mags, phases)]
        )
        out = LaurentMatrix.from_constant(s) @ diag @ LaurentMatrix.from_constant(t)
        if out.det().is_monomial():
            return out
    raise RuntimeError("could not sample a clean monomial-det matrix")


def random_factor(rng, torus, n, exp_lo=-2, exp_hi=2):
    return FactorOfAutomorphy(torus, random_monomial_det_matrix(rng, n, exp_lo, exp_hi))


def random_single_exponent_matrix(rng, n, exp_lo=-2, exp_hi=2):
    """u^e times a constant invertible matrix.

    Iterates and inverses of these keep one coefficient scale per entry,
    so they stay clear of the relative pruning threshold even on tori
    with |q| far below 1.  Mixed exponents do not survive that regime:
    a product over m twists spreads true coefficients across |q|^(m de)
    which for |q| ~ 2e-3 drops below pruning already at m de ~ 4.
    """
    e = int(rng.integers(exp_lo, exp_hi + 1))
    c = random_constant_invertible(rng, n)
    return LaurentMatrix([[LaurentPoly.monomial(e, c[i, j]) if c[i, j] != 0 else LaurentPoly.zero()
                           for j in range(n)] for i in range(n)])


def random_single_exponent_factor(rng, torus, n, exp_lo=-2, exp_hi=2):
    return FactorOfAutomorphy(torus, random_single_exponent_matrix(rng, n, exp_lo, exp_hi))


def random_laurent(rng, lo=-4, hi=4, max_terms=5):
    count = min(max_terms, hi - lo + 1)
    ks = rng.choice(np.arange(lo, hi + 1), size=count, replace=False)
    return LaurentPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})


def random_laurent_matrix(rng, n, lo=-1, hi=1, max_terms=3):
    return LaurentMatrix([[random_laurent(rng, lo, hi, max_terms) for _ in range(n)] for _ in range(n)])


def winding_on_unit_circle(p, samples=4096):
    """Winding number of u -> p(u) along |u| = 1, by accumulating phase
    increments; independent of the root counting used by the library."""
    vals = [p(cmath.exp(2j * math.pi * k / samples)) for k in range(samples)]
    total = 0.0
    for a, b in zip(vals, vals[1:] + vals[:1]):
        total += cmath.phase(b / a)
    return round(total / (2 * math.pi))


def matrix_bytes(m):
    """A LaurentMatrix as stored, to compare bit for bit: lowest exponent,
    shape and bytes of the coefficient array, and the carried det's
    exponent and coefficient bytes (None when no det is carried)."""
    det = None if m._det is None else (m._det[0], np.array(m._det[1], dtype=complex).tobytes())
    return m._lo, m._c.shape, m._c.tobytes(), det


def reference_matrix(rows):
    """The lowest exponent and coefficient array LaurentMatrix(rows)
    stores, by the plain rule: each entry taken as a LaurentPoly, a
    scalar as a constant, and each term written at (exponent - lo, row,
    column) of a zeroed array from the lowest to the highest exponent of
    the entries.  An oracle for the constructor's flat writes."""
    n = len(rows)
    polys = [[e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e) for e in row] for row in rows]
    exps = [k for row in polys for p in row for k in p.support]
    if not exps:
        return 0, np.zeros((0, n, n), dtype=complex)
    lo = min(exps)
    c = np.zeros((max(exps) - lo + 1, n, n), dtype=complex)
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            for k, v in p.terms():
                c[k - lo, i, j] = v
    return lo, c


def reference_poly_terms(coeffs):
    """The terms LaurentPoly(coeffs) stores, by the plain two-pass rule:
    check and sum every term, then check every sum.  An oracle for the
    one-pass constructor."""

    def check(k, v):
        try:
            if not math.isfinite(abs(v)):
                raise OverflowError
        except OverflowError:
            raise ValueError(f"non-finite coefficient {v!r} at exponent {k}") from None

    c = {}
    for k, v in coeffs.items():
        if not isinstance(k, (int, np.integer)):
            raise TypeError(f"exponent must be an integer, got {k!r}")
        v = complex(v)
        check(k, v)
        if v != 0:
            c[int(k)] = c.get(int(k), 0j) + v
    for k, v in c.items():
        check(k, v)
    return {k: v for k, v in c.items() if v != 0}


def reference_trivial_nu(a, q, nu_range):
    """is_trivial_rank1_constant's answer for the constant a by the plain
    walk over every nu in -nu_range .. nu_range, with no clamp."""
    for nu in range(-nu_range, nu_range + 1):
        try:
            target = q ** nu
            if abs(a - target) <= 1e-8 * abs(target):
                return nu
        except ArithmeticError:
            continue
    return None


def reference_at_roots(m, width):
    """LaurentMatrix._at_roots with its root table built inline on each
    call from the window's own lowest exponent, not reduced mod width:
    an oracle for the kept tables."""
    c, n = m._c, m.n
    if width == 1:
        return c.sum(axis=0)[None]
    k = len(c)
    if k > width:
        whole = k - k % width
        folded = c[:whole].reshape(whole // width, width, n, n).sum(axis=0)
        folded[:k - whole] += c[whole:]
        c, k = folded, width
    exps = (np.arange(width)[:, None] * np.arange(m._lo, m._lo + k)) % width
    w = np.exp((2j * np.pi / width) * exps)
    return (w @ c.reshape(k, n * n)).reshape(width, n, n)


def reference_pivot_det(m):
    """Gaussian elimination with partial pivoting that updates every
    column of each row at each step, with _pivot_det's power-of-two
    fallback: an oracle for _pivot_det.  Overwrites ``m``."""
    n = len(m)
    det = sign = 1.0 + 0j
    for k in range(n):
        try:
            col = [abs(row[k]) for row in m[k:]]
        except OverflowError:
            col = [math.hypot(row[k].real, row[k].imag) for row in m[k:]]
        p = k + col.index(max(col))
        piv = m[p][k]
        if piv == 0:
            return 0j
        if p != k:
            m[k], m[p] = m[p], m[k]
            det, sign = -det, -sign
        det *= piv
        top = m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            if f:
                f /= piv
                m[i] = [x - f * y for x, y in zip(m[i], top)]
    if (det and cmath.isfinite(det)) or not all(cmath.isfinite(m[k][k]) for k in range(n)):
        return det
    pivots = np.array([m[k][k] for k in range(n)])
    exp = np.frexp(np.maximum(abs(pivots.real), abs(pivots.imag)))[1]
    det = sign * np.prod(np.ldexp(pivots.real, -exp) + 1j * np.ldexp(pivots.imag, -exp))
    with np.errstate(over="ignore"):
        return complex(*np.ldexp([det.real, det.imag], int(exp.sum())).tolist())


def _reference_functor(a, degree, apply, size):
    lo, hi = degree * a._lo, degree * (a._lo + len(a._c) - 1)
    return LaurentMatrix._pruned(lo, a._sampled(lo, hi, apply, size))


def reference_sym_power(a, n):
    """The matrix of sym_power(f, n) for f with matrix a, its gather
    tables built on each call: an oracle for the kept tables."""
    r = a.n

    def apply(samples):
        s, prev = np.ones((len(samples), 1, 1), dtype=complex), {(0,) * r: 0}
        for d in range(1, n + 1):
            basis = [tuple(map(c.count, range(r))) for c in itertools.combinations_with_replacement(range(r), d)]
            down = np.array([[prev.get(mu[:i] + (mu[i] - 1,) + mu[i + 1:], len(prev)) for mu in basis]
                             for i in range(r)])
            last = [max(np.flatnonzero(nu)) for nu in basis]
            padded = np.concatenate([s, np.zeros_like(s[:, :1])], axis=1)
            s = (padded[:, down[:, :, None], down[last, range(len(basis))]] * samples[:, :, None, last]).sum(axis=1)
            prev = {mu: t for t, mu in enumerate(basis)}
        return s

    return _reference_functor(a, n, apply, r * math.comb(r + n - 1, n) ** 2)


def reference_wedge_power(a, k):
    """The matrix of wedge_power(f, k) for f with matrix a, its index
    sets listed on each call: an oracle for the kept tables."""
    n = a.n

    def apply(samples):
        subsets = np.array(list(itertools.combinations(range(n), k)), dtype=int)
        return _sample_dets(samples[:, subsets[:, None, :, None], subsets[None, :, None, :]])

    return _reference_functor(a, k, apply, (math.comb(n, k) * k) ** 2)


def reference_walk_powers(a, lam):
    """cocycle._walk_powers as it was before it took its powers in
    batches: one np.linalg.norm and then one SVD per power."""
    n = a.shape[0]
    m = a - lam * np.eye(n)
    nrm = float(np.linalg.norm(m, 2))
    powers = [np.eye(n, dtype=complex)]
    kernels = [np.zeros((n, 0), dtype=complex)]
    ranks = [n]
    prev_top = max(1.0, nrm)
    growth = 1.0
    while len(ranks) <= n:
        nxt = powers[-1] @ m
        _, s, vh = np.linalg.svd(nxt)
        top = float(s[0])
        if top <= 1e-8 * prev_top * growth:
            nxt, vh, rank = np.zeros_like(nxt), np.eye(n, dtype=complex), 0
        else:
            rank = int(np.sum(s > top * max(1e-10, n * np.finfo(float).eps)))
        powers.append(nxt)
        kernels.append(vh[rank:].conj().T)
        ranks.append(rank)
        if rank == 0 or (len(ranks) > 2 and ranks[-1] == ranks[-2] == ranks[-3]):
            break
        prev_top, growth = top, nrm

    def r(k: int) -> int:
        return ranks[min(k, len(ranks) - 1)]

    parts: list[int] = []
    for j in range(n, 0, -1):
        parts.extend([j] * max(r(j - 1) - 2 * r(j) + r(j + 1), 0))
    return _PowerWalk(ranks, tuple(parts), powers, kernels)
