"""Sweep the (rank, degree) grid and sanity check the normal forms.

For each pair the script builds the canonical indecomposable factor for
a random parameter, recomputes rank and degree from the matrix, and
compares the direct construction against the route through the isogeny
cover. Any disagreement prints loudly and makes the script exit 1; the
summary table shows the block data h = gcd(r, d), r' = r/h.
"""

import argparse
import cmath
import math
import sys

import numpy as np

from torusbundles import Torus, atiyah_construct, degree, normal_form, rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=complex, default=0.3 + 1.1j)
    ap.add_argument("--rmax", type=int, default=6)
    ap.add_argument("--dmax", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    torus = Torus(args.tau)
    rng = np.random.default_rng(args.seed)
    bad = 0
    print(f"tau = {args.tau}   |q| = {abs(torus.q):.6f}")
    print(f"{'r':>3} {'d':>4} {'h':>3} {'r_prime':>7} {'deg ok':>7} {'constr diff':>12}")
    for r in range(1, args.rmax + 1):
        for d in range(-args.dmax, args.dmax + 1):
            a = cmath.exp(2j * math.pi * rng.uniform()) * rng.uniform(0.2, 1.0)
            f = normal_form(torus, r, d, a)
            g = atiyah_construct(torus, r, d, a)
            diff = (f.A - g.A).max_coeff()
            got_r, got_d = rank(f), degree(f)
            ok = got_r == r and got_d == d and diff <= 1e-10
            if not ok:
                bad += 1
            h = math.gcd(r, abs(d)) if d != 0 else r
            print(f"{r:>3} {d:>4} {h:>3} {r // h:>7} {str(got_d == d):>7} {diff:>12.3e}"
                  + ("   <-- MISMATCH" if not ok else ""))
    print(f"\n{bad} mismatches over the grid")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
