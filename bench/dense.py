"""The benchmark's own model of Laurent matrices, kept apart from the program.

A matrix is a ``Dense`` pair: the lowest exponent ``lo`` and a complex
array ``c`` of shape (K, n, n) holding the coefficient of u^(lo + k) in
``c[k]``.  Inputs are generated in this form, handed to the program as
plain ``{exponent: coefficient}`` dicts or as JSON in the documented
format, and the program's outputs are read back into it for the checks,
which only ever evaluate at sample points with numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dense:
    lo: int
    c: np.ndarray

    @property
    def n(self) -> int:
        return self.c.shape[1]

    def max_coeff(self) -> float:
        return float(np.max(np.abs(self.c))) if self.c.size else 0.0

    def at(self, u: np.ndarray) -> np.ndarray:
        """Values at the points ``u``, shape (len(u), n, n)."""
        u = np.asarray(u, dtype=complex)
        powers = u[:, None] ** (self.lo + np.arange(self.c.shape[0]))[None, :]
        return np.einsum("pk,kij->pij", powers, self.c)

    def rows(self) -> list[list[dict[int, complex]]]:
        """Entries as {exponent: coefficient} dicts, nonzero terms only."""
        n = self.n
        return [
            [
                {self.lo + k: complex(v) for k, v in enumerate(self.c[:, i, j]) if v != 0}
                for j in range(n)
            ]
            for i in range(n)
        ]


def from_terms(n: int, terms) -> Dense:
    """Build from ``terms[i][j]``, an iterable of (exponent, coefficient)."""
    flat = [(k, i, j, v) for i in range(n) for j in range(n) for k, v in terms[i][j]]
    if not flat:
        return Dense(0, np.zeros((1, n, n), dtype=complex))
    lo = min(k for k, *_ in flat)
    hi = max(k for k, *_ in flat)
    c = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for k, i, j, v in flat:
        c[k - lo, i, j] += v
    return Dense(lo, c)


def from_program(mat) -> Dense:
    """Read a LaurentMatrix through its public entry accessors."""
    n = mat.n
    return from_terms(n, [[mat.entry(i, j).terms() for j in range(n)] for i in range(n)])


def constant(m: np.ndarray) -> Dense:
    return Dense(0, np.asarray(m, dtype=complex)[None, :, :])


def monomial_times(k: int, m: np.ndarray) -> Dense:
    return Dense(k, np.asarray(m, dtype=complex)[None, :, :])


def matrix_json(d: Dense) -> dict:
    """The documented matrix JSON: row major entries, each a list of
    nonzero terms in ascending exponent."""
    entries = []
    for i in range(d.n):
        for j in range(d.n):
            entries.append(
                [
                    {"k": d.lo + k, "re": float(v.real), "im": float(v.imag)}
                    for k, v in enumerate(d.c[:, i, j])
                    if v != 0
                ]
            )
    return {"n": d.n, "entries": entries}


def factor_json(tau: complex, d: Dense) -> str:
    return json.dumps({"torus": {"tau": [tau.real, tau.imag]}, "A": matrix_json(d)})


def parse_matrix_json(data: dict) -> Dense:
    n = data["n"]
    entries = data["entries"]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for idx, entry in enumerate(entries):
        for t in entry:
            k = t["k"]
            if not isinstance(k, int):
                raise ValueError(f"exponent {k!r} is not an integer")
            terms[idx // n][idx % n].append((k, complex(t["re"], t["im"])))
    return from_terms(n, terms)


def circle(points: int, offset: float = 0.37) -> np.ndarray:
    """Points on |u| = 1, rotated off the roots of unity."""
    return np.exp(2j * np.pi * (np.arange(points) + offset) / points)
