"""Run the Jordan code on seeded structures and print one digest of its results.

    python3 scripts/jordan_sweep.py [--count N]

Seed s = 0 .. N - 1 draws a Jordan matrix J of size 1..12 with one to
three eigenvalues of a common scale 10^-3 .. 10^3, each split into
random blocks, and conjugates it by a unitary, a unit upper triangular
and a general matrix.  The sweep then calls

- jordan_type_unipotent on a unitary conjugate of each eigenvalue's
  part, and on the unitary conjugate of J (NotNilpotent when J has a
  second eigenvalue);
- equivalent_constant of J against each conjugate (eigenvalues given,
  except for the triangular one, whose diagonal carries them) and
  against a conjugate with one block split in two (not similar);
- recognize_deg0 on the Jordan factor of the first eigenvalue and on the
  factor of the triangular conjugate.

Every witness's bytes, partition, descriptor and exception text goes
into one sha256 digest, which the script prints after the count of each
outcome.  The digest tells whether two versions of the package give the
same results bit for bit: run the script with PYTHONPATH set to each
checkout's src/.  It exits 1 on any warning and on any exception other
than NotNilpotent and the two faces of the Jordan code's known fault
(ROADMAP item 3): a bare ArithmeticError, and a witness that fails its
invertibility check because the rank sequences read both matrices'
Jordan bases the same wrong way.
"""

import argparse
import collections
import hashlib
import sys
import warnings

import numpy as np

from torusbundles import (
    FactorOfAutomorphy,
    LaurentMatrix,
    NotNilpotent,
    Torus,
    equivalent_constant,
    jordan_type_unipotent,
    normal_form_deg0,
    recognize_deg0,
)

TORUS = Torus(1j)


def jordan(blocks) -> np.ndarray:
    """The block diagonal Jordan matrix of (eigenvalue, size) blocks."""
    n = sum(size for _, size in blocks)
    j = np.zeros((n, n), dtype=complex)
    i = 0
    for lam, size in blocks:
        j[i:i + size, i:i + size] = lam * np.eye(size) + np.eye(size, k=1)
        i += size
    return j


def structure(rng) -> list[tuple[complex, int]]:
    """(eigenvalue, size) blocks: n = 1..12, one to three eigenvalues of
    one scale, at least half that scale apart."""
    n = int(rng.integers(1, 13))
    k = int(rng.integers(1, min(3, n) + 1))
    scale = 10.0 ** rng.uniform(-3, 3)
    while True:
        eig = [scale * complex(*rng.normal(size=2)) for _ in range(k)]
        if all(abs(x - y) >= 0.5 * scale for i, x in enumerate(eig) for y in eig[:i]):
            break
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    blocks = []
    for lam, mult in zip(eig, np.diff([0, *cuts, n])):
        while mult:
            size = int(rng.integers(1, mult + 1))
            blocks.append((lam, size))
            mult -= size
    return blocks


def calls(rng):
    """(label, thunk) of each call the sweep makes on one structure."""
    blocks = structure(rng)
    j = jordan(blocks)
    n = len(j)
    values = [lam for lam, size in blocks for _ in range(size)]
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    t = np.eye(n) + np.triu(rng.normal(size=(n, n)), 1)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    uni, tri, gen = u.conj().T @ j @ u, np.triu(np.linalg.inv(t) @ j @ t), np.linalg.solve(g, j @ g)
    out = []
    for lam in dict.fromkeys(values):
        part = jordan([b for b in blocks if b[0] == lam])
        w = np.linalg.qr(rng.normal(size=part.shape) + 1j * rng.normal(size=part.shape))[0]
        out.append(("jordan_type part", lambda p=w.conj().T @ part @ w, lam=lam: jordan_type_unipotent(p, lam)))
    out.append(("jordan_type whole", lambda: jordan_type_unipotent(uni, values[0])))
    out.append(("equivalent unitary", lambda: equivalent_constant(j, uni, eigenvalues=values)))
    out.append(("equivalent triangular", lambda: equivalent_constant(j, tri)))
    out.append(("equivalent general", lambda: equivalent_constant(j, gen, eigenvalues=values)))
    i = next((i for i, (_, size) in enumerate(blocks) if size >= 2), None)
    if i is not None:
        lam, size = blocks[i]
        split = u.conj().T @ jordan(blocks[:i] + [(lam, size - 1), (lam, 1)] + blocks[i + 1:]) @ u
        out.append(("equivalent split", lambda: equivalent_constant(j, split, eigenvalues=values)))
    out.append(("recognize form", lambda: recognize_deg0(normal_form_deg0(TORUS, n, values[0]))))
    out.append(("recognize triangular",
                lambda: recognize_deg0(FactorOfAutomorphy(TORUS, LaurentMatrix.from_constant(tri)))))
    return out


def known(exc: Exception) -> bool:
    """Whether exc is NotNilpotent or a known fault of the Jordan code."""
    return (isinstance(exc, NotNilpotent) or type(exc) is ArithmeticError
            or str(exc).startswith("witness fails the sampled invertibility check"))


def outcome(result) -> tuple[str, bytes]:
    """The kind of a result and the bytes that stand for it."""
    if result is None:
        return "none", b"None"
    if isinstance(result, tuple):
        return "partition", repr(result).encode()
    if hasattr(result, "B"):
        return "witness", result.B.constant_matrix().tobytes()
    return "descriptor", repr(result).encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=200, help="structures, seeds 0 .. N - 1")
    args = ap.parse_args(argv)
    if args.count < 1:
        ap.error("--count must be at least 1")

    warnings.simplefilter("error")
    digest = hashlib.sha256()
    kinds = collections.Counter()
    unexpected = 0
    for seed in range(args.count):
        for label, call in calls(np.random.default_rng(seed)):
            try:
                kind, data = outcome(call())
            except Exception as exc:
                kind, data = type(exc).__name__, f"{type(exc).__name__}: {exc}".encode()
                if not known(exc):
                    unexpected += 1
                    print(f"seed {seed}: {label}: {data.decode()}")
            kinds[kind] += 1
            digest.update(f"{seed} {label} {kind} {len(data)}\n".encode() + data)
    total = sum(kinds.values())
    print(f"{total} calls on {args.count} structures: " + ", ".join(f"{v} {k}" for k, v in sorted(kinds.items())))
    print(f"sha256 {digest.hexdigest()}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
