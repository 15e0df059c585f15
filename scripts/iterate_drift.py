"""Measure how far iterate drifts from an extended precision product.

    python3 scripts/iterate_drift.py [--count N]

For n = 2..8 and tau in {i, 0.3+1.1i}, draw N seeded factors A of
tests/helpers.py's random_monomial_det_matrix, S diag(c_k u^e_k) T with
exponents e_k in [-2, 2], and take iterate's A(3), A(5) and A(8).  Each
is compared with the product A(q^(m-1) u) ... A(u) of the same A and q
taken in np.clongdouble, term by term: the drift of one iterate is its
largest coefficient error over the largest coefficient of that product.
The script prints the worst drift and where it was found, and exits 1
when it is above GATE, 1e-10: the sequential product of doubles drifts
about 4e-14, a doubling product A(2m) = A(m, q^m u) A(m) drifted 1.2e-9
(ROADMAP item 16).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import random_monomial_det_matrix  # noqa: E402

from torusbundles import FactorOfAutomorphy, Torus, iterate  # noqa: E402

TAUS = [1j, 0.3 + 1.1j]
RANKS = range(2, 9)
ITERATES = (3, 5, 8)
GATE = 1e-10


def long_product(f: FactorOfAutomorphy, m: int) -> tuple[int, np.ndarray]:
    """Lowest exponent and np.clongdouble coefficients of A(m, u), m >= 1,
    from the translates c_k q^(i k) of A's coefficients c_k, each power of
    q and each product taken in extended precision."""
    lo, c = f.A._lo, f.A._c.astype(np.clongdouble)
    q = np.clongdouble(f.torus.q)
    exps = np.arange(lo, lo + len(c))
    acc = c
    for i in range(1, m):
        t = c * np.array([q ** int(i * k) for k in exps])[:, None, None]
        out = np.zeros((len(t) + len(acc) - 1, *c.shape[1:]), dtype=np.clongdouble)
        for j in range(len(t)):
            out[j:j + len(acc)] += np.matmul(t[j], acc)
        acc = out
    return m * lo, acc


def drift(f: FactorOfAutomorphy, m: int) -> float:
    """Largest coefficient error of iterate's A(m, u) over the largest
    coefficient of the extended precision product."""
    lo, want = long_product(f, m)
    got = iterate(f, m)
    full = np.zeros(want.shape, dtype=np.clongdouble)
    full[got._lo - lo:got._lo - lo + len(got._c)] = got._c
    return float(np.abs(full - want).max() / np.abs(want).max())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=20, help="factors drawn per rank and torus")
    args = ap.parse_args(argv)
    if args.count < 1:
        ap.error("--count must be at least 1")

    factors = len(TAUS) * len(RANKS) * args.count
    print(f"A(3), A(5), A(8) of {factors} factors against a clongdouble product")
    worst, where = 0.0, ""
    for tau in TAUS:
        t = Torus(tau)
        for n in RANKS:
            for seed in range(args.count):
                f = FactorOfAutomorphy(t, random_monomial_det_matrix(np.random.default_rng([n, seed]), n))
                for m in ITERATES:
                    d = drift(f, m)
                    if d > worst:
                        worst, where = d, f"tau {tau}, n {n}, seed {seed}, A({m})"
    print(f"worst drift {worst:.3g} at {where}; gate {GATE:g}")
    if worst > GATE:
        print("drift above the gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
