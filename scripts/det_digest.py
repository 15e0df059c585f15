"""Build the normal forms of a fixed grid and print one digest of their dets.

    python3 scripts/det_digest.py [--rmax R]

The grid is tau in {i, 0.3+1.1i, 0.1+0.6i, 5i}, a in {0.6+0.2i,
-1.3+0.01i, 1e-5i, 1, 1e13}, r = 1..16 and 24, and d = -8..8 and +-48;
--rmax keeps the ranks up to R.  On each grid point the script runs

- normal_form(t, r, d, a);
- atiyah_construct(t, r, d, a);
- roundtrip_diag of the twisted core phi0^d' A_h(a) on its degree r'
  cover, r' = r / gcd(r, d).

Each result's factors go into one sha256 digest by the exponents and
coefficient bytes of det(), by degree, and by the lowest exponent, shape
and bytes of the coefficient array; a call that raises goes in by its
exception type and text.  The script prints the count of each outcome,
then the digest.  The digest tells whether two versions of the package
give the same dets bit for bit: run the script with PYTHONPATH set to
each checkout's src/.  It exits 1 on any warning, on any exception that
is not a ValueError or an ArithmeticError, the faces of the double range
limit (ROADMAP item 12), and when normal_form or atiyah_construct fails
the sampled invertibility check: their cores carry a det, so a det past
the double range is named by the core, not blamed on invertibility.
Each such call prints its grid cell.
"""

import argparse
import collections
import hashlib
import sys
import warnings

import numpy as np

from torusbundles import FactorOfAutomorphy, IsogenyContext, Torus, atiyah_construct, degree, normal_form, roundtrip_diag
from torusbundles.classify import _twisted_core

TAUS = [1j, 0.3 + 1.1j, 0.1 + 0.6j, 5j]
PARAMS = [0.6 + 0.2j, -1.3 + 0.01j, 1e-5j, 1, 1e13]
RANKS = [*range(1, 17), 24]
DEGREES = [*range(-8, 9), -48, 48]
BLAMED = "fails the sampled invertibility check"


def roundtrip(t: Torus, r: int, d: int, a: complex) -> list[FactorOfAutomorphy]:
    """roundtrip_diag of the twisted core of (r, d, a) on its cover."""
    rp, core = _twisted_core(t, r, d, a)
    ctx = IsogenyContext.for_degree(t, rp)
    return roundtrip_diag(ctx, FactorOfAutomorphy(ctx.cover, core))


def factor_bytes(f: FactorOfAutomorphy) -> bytes:
    """det() terms, degree and the coefficient array of f, as bytes."""
    terms = f.A.det().terms()
    det = repr([k for k, _ in terms]).encode() + np.array([c for _, c in terms], dtype=complex).tobytes()
    return det + f" {degree(f)} {f.A._lo} {f.A._c.shape} ".encode() + f.A._c.tobytes()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rmax", type=int, default=max(RANKS), help="keep the ranks r <= R")
    args = ap.parse_args(argv)
    ranks = [r for r in RANKS if r <= args.rmax]
    if not ranks:
        ap.error("--rmax must be at least 1")

    warnings.simplefilter("error")
    digest = hashlib.sha256()
    kinds = collections.Counter()
    unexpected = 0
    points = 0
    for tau in TAUS:
        t = Torus(tau)
        for a in PARAMS:
            for r in ranks:
                for d in DEGREES:
                    points += 1
                    for name, call in (("normal_form", normal_form), ("atiyah_construct", atiyah_construct),
                                       ("roundtrip_diag", roundtrip)):
                        try:
                            out = call(t, r, d, a)
                            kind, data = "factors", b"".join(map(factor_bytes, out if isinstance(out, list) else [out]))
                        except Exception as exc:
                            kind, data = type(exc).__name__, f"{type(exc).__name__}: {exc}".encode()
                            blamed = name != "roundtrip_diag" and BLAMED in str(exc)
                            if blamed or not isinstance(exc, (ValueError, ArithmeticError)):
                                unexpected += 1
                                print(f"tau {tau}, a {a}, r {r}, d {d}: {name}: {data.decode()}")
                        kinds[kind] += 1
                        digest.update(f"{tau} {a} {r} {d} {name} {kind} {len(data)}\n".encode() + data)
    total = sum(kinds.values())
    print(f"{total} results on {points} grid points: " + ", ".join(f"{v} {k}" for k, v in sorted(kinds.items())))
    print(f"sha256 {digest.hexdigest()}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
