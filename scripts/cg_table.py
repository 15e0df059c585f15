"""Decomposition table for tensor products of the unipotent bundles.

Prints the predicted summand indices for F_p (x) F_q next to the Jordan
partition actually computed from the Kronecker product of the two
Jordan blocks, for every p >= q with p + q <= the chosen bound, and
exits 1 when some row disagrees.
"""

import argparse
import sys

import numpy as np

from torusbundles import (
    FactorOfAutomorphy,
    LaurentMatrix,
    Torus,
    clebsch_gordan_F,
    jordan_type_unipotent,
    tensor,
)


def jordan_ones(torus, n):
    m = np.eye(n, dtype=complex)
    if n > 1:
        m += np.diag(np.ones(n - 1), 1)
    return FactorOfAutomorphy(torus, LaurentMatrix.from_constant(m))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=9, help="max p + q")
    args = ap.parse_args(argv)

    torus = Torus(1j)
    agree = True
    print(f"{'p':>3} {'q':>3}   predicted            computed")
    for p in range(1, args.bound):
        for q in range(1, p + 1):
            if p + q > args.bound:
                continue
            want = clebsch_gordan_F(p, q)
            got = list(jordan_type_unipotent(
                tensor(jordan_ones(torus, p), jordan_ones(torus, q)).A.constant_matrix()))
            mark = "" if got == want else "   <-- MISMATCH"
            agree = agree and got == want
            print(f"{p:>3} {q:>3}   {str(want):<20} {str(got):<20}{mark}")
    print("\nall rows agree" if agree else "\nsome rows disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
