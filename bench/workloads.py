"""The three workloads: seeded inputs, the program calls of each task, and
the checks of their outputs.

A task is one checked unit of a user's work.  ``Task.run`` makes only
program calls and is what the benchmark times; ``Task.check`` runs after
it, untimed, and raises ``checks.CheckFailed`` on a wrong output or on an
exception the program raised.  A round is the fixed list of tasks a
workload builds from its seed; runs attempt whole rounds only, so the
share of failed tasks is the same in every run.

The cost of a task depends on the shapes of its inputs (ranks, supports,
exponent patterns, tori), which are fixed; the seed draws only the
coefficient values, parameters and conjugators, so runs with different
seeds do the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import dense
from checks import CheckFailed
from dense import Dense

TAUS = (1j, 0.3 + 1.1j)

#: the parameter of the classify grid; fixed, so its failures do not depend on the seed
GRID_PARAM = 0.6 + 0.2j

#: (tau, r, |d|) cells of the classify grid whose normal forms fail today,
#: for both signs of d: laurent._det_eval_interp judges a nonzero det to be
#: zero, so FactorOfAutomorphy raises "fails the sampled invertibility check".
#: Regenerate with ``python3 bench/run.py --list-faults``.
KNOWN_FAULTS = frozenset(
    [(1j, r, 8) for r in (9, 11, 13, 15)]
    + [(0.3 + 1.1j, r, 8) for r in (9, 11, 13, 15)]
    + [(0.3 + 1.1j, r, 7) for r in (9, 10, 11, 12, 13, 15, 16)]
)
#: cells whose isogeny round trip fails for d = +|d|: the translates
#: A(q^i u) of the core on the degree r' cover, i < r', have coefficients
#: near |q|^(-d'(r'-1)), beyond the double range, and the program raises
#: ValueError (non-finite coefficient) or OverflowError
ROUNDTRIP_OVERFLOW = frozenset([(1j, 15, 8), (0.3 + 1.1j, 15, 8), (0.3 + 1.1j, 16, 7)])
DET_FAULT_TEXT = ("fails the sampled invertibility check",)
OVERFLOW_TEXT = ("non-finite coefficient", "complex exponentiation")

SAMPLE_POINTS = 12


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    #: substrings of the errors this task raises today, one of which every
    #: error of a failed run must contain for the failure to be a known fault
    known_errors: tuple = ()


def is_known_failure(task, message: str) -> bool:
    known = getattr(task, "known_errors", ())
    return bool(known) and all(any(k in part for k in known) for part in message.split("; "))


@dataclass
class Outcome:
    """What a task's run produced: its outputs, or the exception it raised."""

    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def attempt(self, what: str, call: Callable[[], Any]) -> Any:
        try:
            self.values[what] = call()
        except Exception as exc:  # the program's own failure, reported by the check
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None
        return self.values[what]


def _raise_errors(out: Outcome) -> None:
    if out.errors:
        raise CheckFailed("; ".join(out.errors))


def _random_invertible(rng: np.random.Generator, n: int, cond_cap: float = 50.0) -> np.ndarray:
    while True:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(m) < cond_cap:
            return m


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_param(rng: np.random.Generator, q: complex, annuli: tuple[int, int] = (-2, 2)) -> complex:
    """A point of C* in one of the annuli |q|^(k+1) < |a| < |q|^k,
    k in range(*annuli), away from their boundaries; rounded to six
    decimals so the CLI form carries it exactly."""
    while True:
        x = int(rng.integers(*annuli)) + rng.uniform(0.15, 0.85)
        a = abs(q) ** x * np.exp(2j * np.pi * rng.uniform())
        a = complex(round(a.real, 6), round(a.imag, 6))
        if a != 0:
            return a


def _exponent_pattern(n: int, lo: int, hi: int) -> list[int]:
    """Alternate between the ends of the support, then fill inward, so
    every rank reaches both ends: [-2, 2] gives -2, 2, -1, 1, 0, -2, ..."""
    order = []
    a, b = lo, hi
    while a <= b:
        order.append(a)
        if b != a:
            order.append(b)
        a, b = a + 1, b - 1
    return [order[k % len(order)] for k in range(n)]


def monomial_det_factor(rng: np.random.Generator, n: int, exps: list[int]) -> Dense:
    """S diag(c_k u^e_k) T with constant S, T of condition below 50."""
    s = _random_invertible(rng, n)
    t = _random_invertible(rng, n)
    c = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    lo = min(exps)
    arr = np.zeros((max(exps) - lo + 1, n, n), dtype=complex)
    for k, e in enumerate(exps):
        arr[e - lo] += np.outer(s[:, k] * c[k], t[k, :])
    return Dense(lo, arr)


def conjugate(a: Dense, c: np.ndarray) -> Dense:
    """C^-1 A(u) C, coefficientwise."""
    ci = np.linalg.inv(c)
    return Dense(a.lo, ci @ a.c @ c)


# ---------------------------------------------------------------------------
# cocycle
# ---------------------------------------------------------------------------

#: iterates computed per task; the cocycle law is checked as A(8) = A(3, q^5 u) A(5)
ITERATES = (3, 5, 8)
#: the adjugate inverse behind dual and negative iterates takes 1 to 2 s at
#: rank 8, which would make one task most of a round; ranks above this cap
#: run everything else
INVERSE_MAX_RANK = 6
FUNCTOR_MAX_RANK = 3


def cocycle_round(tb, rng: np.random.Generator, ranks=range(2, 9)) -> list[Task]:
    """Three factors per rank: mixed exponents on [-1, 1] and on [-2, 2],
    and a single exponent u^(+-1), alternating between the two tori."""
    tori = [tb.Torus(tau) for tau in TAUS]
    partners = [monomial_det_factor(rng, 2, [-1, 1]) for _ in TAUS]
    tasks = []
    for n in ranks:
        for k, (lo, hi) in enumerate(((-1, 1), (-2, 2))):
            t = (n + k) % 2
            a = monomial_det_factor(rng, n, _exponent_pattern(n, lo, hi))
            tasks.append(_cocycle_task(tb, tori[t], a, rng, partners[t], f"mixed [{lo},{hi}]"))
        e = 1 if n % 2 else -1
        a = dense.monomial_times(e, _random_invertible(rng, n))
        tasks.append(_cocycle_task(tb, tori[n % 2], a, rng, partners[n % 2], f"single u^{e}"))
    return tasks


def _build_matrix(tb, rows):
    return tb.LaurentMatrix([[tb.LaurentPoly(e) for e in row] for row in rows])


def _cocycle_task(tb, torus, a: Dense, rng, partner: Dense, kind: str) -> Task:
    n = a.n
    tau, q = torus.tau, torus.q
    single = a.c.shape[0] == 1
    c = _random_invertible(rng, n)
    rows, conj_rows = a.rows(), conjugate(a, c).rows()
    witness_rows = dense.constant(c).rows()
    partner_rows = partner.rows()
    u = dense.circle(SAMPLE_POINTS)

    def run() -> Outcome:
        out = Outcome()
        f = out.attempt("factor", lambda: tb.FactorOfAutomorphy(torus, _build_matrix(tb, rows)))
        if f is None:
            return out
        for m in ITERATES:
            out.attempt(f"iterate {m}", lambda: tb.iterate(f, m))
        if single and n <= INVERSE_MAX_RANK:
            out.attempt("iterate -2", lambda: tb.iterate(f, -2))
        g = out.attempt("conjugate", lambda: tb.FactorOfAutomorphy(torus, _build_matrix(tb, conj_rows)))
        if g is not None:
            w = tb.EquivalenceWitness(_build_matrix(tb, witness_rows))
            out.attempt("witness", lambda: tb.check_witness(f, g, w))
        ctx = tb.IsogenyContext.for_degree(torus, 2)
        out.attempt("pullback", lambda: tb.pullback(ctx, f))
        if n <= INVERSE_MAX_RANK:
            out.attempt("dual", lambda: tb.dual(f))
        if n <= FUNCTOR_MAX_RANK:
            p = tb.FactorOfAutomorphy(torus, _build_matrix(tb, partner_rows))
            out.attempt("tensor", lambda: tb.tensor(f, p))
            out.attempt("sym2", lambda: tb.sym_power(f, 2))
            out.attempt("wedge2", lambda: tb.wedge_power(f, 2))
        return out

    def check(out: Outcome) -> None:
        _raise_errors(out)
        v = out.values
        its = {m: dense.from_program(v[f"iterate {m}"]) for m in ITERATES}
        for m, got in its.items():
            checks.matrix_matches(f"iterate {m}", got, checks.iterate_values(a, q, m, u), u)
        checks.cocycle_law(its[8], its[3], its[5], q, 5, u)
        if "iterate -2" in v:
            checks.matrix_matches("iterate -2", dense.from_program(v["iterate -2"]), checks.iterate_values(a, q, -2, u), u)
        if v["witness"] is not True:
            raise CheckFailed(f"check_witness rejected a constant conjugate: {v['witness']!r}")
        pb = v["pullback"]
        if abs(pb.torus.tau - 2 * tau) > 1e-12:
            raise CheckFailed(f"pullback lands on tau = {pb.torus.tau}, expected {2 * tau}")
        checks.matrix_matches("pullback", dense.from_program(pb.A), checks.iterate_values(a, q, 2, u), u)
        av = a.at(u)
        if "dual" in v:
            checks.matrix_matches("dual", dense.from_program(v["dual"].A), np.linalg.inv(av).transpose(0, 2, 1), u)
        if "tensor" in v:
            pv = partner.at(u)
            want = np.einsum("pij,pkl->pikjl", av, pv).reshape(len(u), 2 * n, 2 * n)
            checks.matrix_matches("tensor", dense.from_program(v["tensor"].A), want, u)
            checks.matrix_matches("sym2", dense.from_program(v["sym2"].A), checks.sym2_values(av), u)
            w = dense.from_program(v["wedge2"].A)
            checks.matrix_matches("wedge2", w, checks.wedge_values(av, 2), u)
            checks.sylvester_franke(w, av, 2, u)

    return Task(f"cocycle tau={tau} n={n} {kind}", run, check)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

GRID_RANKS = range(1, 17)
GRID_DEGREES = range(0, 9)
DEG0_RANKS = range(1, 9)


def classify_round(tb, rng: np.random.Generator, ranks=GRID_RANKS, degrees=GRID_DEGREES, deg0_ranks=DEG0_RANKS) -> list[Task]:
    tasks = []
    for tau in TAUS:
        torus = tb.Torus(tau)
        for r in ranks:
            for dd in degrees:
                tasks.append(_grid_task(tb, torus, r, dd))
        for r in deg0_ranks:
            tasks.append(_deg0_task(tb, torus, r, rng))
    return tasks


def _grid_task(tb, torus, r: int, dd: int) -> Task:
    """Normal form, Atiyah construction, degree and rank for d = +dd and
    -dd, and the isogeny round trip of the twisted Jordan core."""
    tau, s, q = torus.tau, torus.s, torus.q
    a = GRID_PARAM
    u = dense.circle(64)
    signs = (dd, -dd) if dd else (0,)
    cores = {}
    for d in signs:
        h = math.gcd(r, abs(d)) if d else r
        rp, dp = r // h, d // h
        jordan = a * np.eye(h, dtype=complex) + np.eye(h, k=1, dtype=complex)
        cores[d] = (rp, dense.monomial_times(-dp, s ** (-dp) * jordan))

    def run() -> Outcome:
        out = Outcome()
        for d in signs:
            f = out.attempt(f"normal_form {d}", lambda: tb.normal_form(torus, r, d, a))
            if f is not None:
                out.attempt(f"rank {d}", lambda: (tb.rank(f), f.rank))
                out.attempt(f"degree {d}", lambda: tb.degree(f))
            g = out.attempt(f"atiyah {d}", lambda: tb.atiyah_construct(torus, r, d, a))
            if g is not None:
                out.attempt(f"atiyah degree {d}", lambda: tb.degree(g))
            rp, core = cores[d]
            ctx = tb.IsogenyContext.for_degree(torus, rp)
            cf = tb.FactorOfAutomorphy(ctx.cover, _build_matrix(tb, core.rows()))
            out.attempt(f"roundtrip {d}", lambda: tb.roundtrip_diag(ctx, cf))
        return out

    def check(out: Outcome) -> None:
        _raise_errors(out)
        v = out.values
        for d in signs:
            want = checks.normal_form_values(s, r, d, a, u)
            for key in (f"normal_form {d}", f"atiyah {d}"):
                f = dense.from_program(v[key].A)
                checks.matrix_matches(key, f, want, u)
                checks.normal_form_invariants(f, r, d, a, s, u)
            if v[f"rank {d}"] != (r, r):
                raise CheckFailed(f"rank {v[f'rank {d}']}, expected {r}")
            for key in (f"degree {d}", f"atiyah degree {d}"):
                if v[key] != d:
                    raise CheckFailed(f"{key} = {v[key]}, expected {d}")
            rp, core = cores[d]
            blocks = v[f"roundtrip {d}"]
            if len(blocks) != rp:
                raise CheckFailed(f"round trip gave {len(blocks)} blocks, expected {rp}")
            for i, b in enumerate(blocks):
                if abs(b.torus.tau - rp * tau) > 1e-9:
                    raise CheckFailed(f"round trip block on tau = {b.torus.tau}, expected {rp * tau}")
                checks.matrix_matches(f"round trip block {i}", dense.from_program(b.A), core.at(q ** i * u), u)

    known = ()
    if (tau, r, dd) in KNOWN_FAULTS:
        known += DET_FAULT_TEXT
    if (tau, r, dd) in ROUNDTRIP_OVERFLOW:
        known += OVERFLOW_TEXT
    return Task(f"classify tau={tau} r={r} d=+-{dd}", run, check, known_errors=known)


def _deg0_task(tb, torus, r: int, rng) -> Task:
    """recognize_deg0 on the Jordan factor of a parameter drawn over five
    annuli, and, for a parameter in the canonical annulus, on a triangular
    conjugate; equivalent_constant against a unitary and a triangular
    conjugate.  Conjugates keep |a| <= 1: stored in floats, a conjugate of
    a I + N carries an error near 1e-16 |a| in its nilpotent part, which
    for |a| ~ 1e5 is no longer similar to the Jordan block at the
    program's 1e-10 rank threshold."""
    q = torus.q
    wide = _random_param(rng, q)
    a = _random_param(rng, q, annuli=(0, 1))
    jordan = a * np.eye(r, dtype=complex) + np.eye(r, k=1, dtype=complex)
    t = np.eye(r, dtype=complex) + np.triu(rng.uniform(-0.5, 0.5, (r, r)) + 1j * rng.uniform(-0.5, 0.5, (r, r)), 1)
    tri = np.triu(np.triu(np.linalg.inv(t)) @ jordan @ t)
    np.fill_diagonal(tri, a)
    w = _random_unitary(rng, r)
    uni = w.conj().T @ jordan @ w
    tri_rows, uni_rows = dense.constant(tri).rows(), dense.constant(uni).rows()

    def run() -> Outcome:
        out = Outcome()
        f0 = out.attempt("deg0_form wide", lambda: tb.normal_form_deg0(torus, r, wide))
        if f0 is not None:
            out.attempt("recognize wide", lambda: tb.recognize_deg0(f0))
        f = out.attempt("deg0_form", lambda: tb.normal_form_deg0(torus, r, a))
        if f is None:
            return out
        ft = tb.FactorOfAutomorphy(torus, _build_matrix(tb, tri_rows))
        out.attempt("recognize triangular", lambda: tb.recognize_deg0(ft))
        out.attempt("equivalent triangular", lambda: tb.equivalent_constant(f.A, ft.A))
        fu = _build_matrix(tb, uni_rows)
        out.attempt("equivalent unitary", lambda: tb.equivalent_constant(f.A, fu, eigenvalues=[a] * r))
        return out

    def check(out: Outcome) -> None:
        _raise_errors(out)
        v = out.values
        for key, param in (("wide", wide), ("", a)):
            want = param * np.eye(r, dtype=complex) + np.eye(r, k=1, dtype=complex)
            got = dense.from_program(v[f"deg0_form {key}".strip()].A)
            checks.matrix_matches("deg0_form", got, want[None], np.ones(1))
        for key, param in (("recognize wide", wide), ("recognize triangular", a)):
            desc = v[key]
            if desc is None or (desc.rank, desc.degree) != (r, 0):
                raise CheckFailed(f"{key}: {desc}, expected rank {r} degree 0")
            checks.canonical_param(desc.param, param, q)
        for key, other in (("equivalent triangular", tri), ("equivalent unitary", uni)):
            wit = v[key]
            if wit is None:
                raise CheckFailed(f"{key}: no witness for similar matrices")
            checks.similarity_witness(jordan, other, dense.from_program(wit.B).c[0])

    return Task(f"deg0 tau={torus.tau} r={r}", run, check)


def list_faults(tb) -> list[tuple[complex, int, int, str]]:
    """Every (tau, r, d) of the classify grid whose task fails, with the
    errors of its program calls."""
    found = []
    for tau in TAUS:
        for r in GRID_RANKS:
            for dd in GRID_DEGREES:
                task = _grid_task(tb, tb.Torus(tau), r, dd)
                for d in sorted({dd, -dd}):
                    errors = [e for e in task.run().errors if e.split(":")[0].endswith(f" {d}")]
                    if errors:
                        found.append((tau, r, d, "; ".join(errors)))
    return found


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _complex_arg(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _json_out(stdout: bytes) -> dict:
    lines = stdout.decode().splitlines()
    if len(lines) != 1:
        raise CheckFailed(f"expected one JSON line on stdout, got {len(lines)}")
    return json.loads(lines[0])


@dataclass
class CliTask:
    """A pipeline of torusbundles.cli invocations and the check of its
    final stdout.  Each stage is an argument list after ``-m torusbundles.cli``."""

    label: str
    stages: list
    check: Callable[[bytes], None]


@dataclass
class CliResult:
    stdout: bytes
    codes: list
    stderr: bytes
    max_rss_kib: int
    #: CPU seconds of the pipeline's processes
    cpu_s: float = 0.0


def child_env(root: Path) -> dict:
    """Environment of the interpreters the benchmark starts: the package
    from the checkout's src/, and bytecode cached as in a user's
    installation, whatever PYTHONDONTWRITEBYTECODE the caller has set."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_pipeline(task: CliTask, root: Path) -> CliResult:
    """Start the stages as processes joined by pipes, read the last
    stdout to its end and reap every process with wait4, which also gives
    each one's peak resident set and CPU time."""
    env = child_env(root)
    procs = []
    prev = subprocess.DEVNULL
    try:
        for argv in task.stages:
            p = subprocess.Popen(
                [sys.executable, "-m", "torusbundles.cli", *argv],
                stdin=prev, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
            )
            if prev is not subprocess.DEVNULL:
                prev.close()
            prev = p.stdout
            procs.append(p)
        stdout = prev.read()
        prev.close()
        codes, errs, rss, cpu = [], [], 0, 0.0
        for p in procs:
            errs.append(p.stderr.read())
            p.stderr.close()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            codes.append(p.returncode)
            rss = max(rss, usage.ru_maxrss)
            cpu += usage.ru_utime + usage.ru_stime
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
    return CliResult(stdout, codes, b"".join(errs), rss, cpu)


def check_cli_result(task: CliTask, res: CliResult) -> None:
    if any(res.codes):
        raise CheckFailed(f"exit codes {res.codes}: {res.stderr.decode(errors='replace').strip()[-300:]}")
    task.check(res.stdout)


def cli_round(rng: np.random.Generator, workdir: Path) -> list[CliTask]:
    """Writes the input files of the tensor tasks into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for ti, tau in enumerate(TAUS):
        s = np.exp(1j * np.pi * tau)
        q = s * s
        ts = _complex_arg(tau)

        r, d = int(rng.integers(2, 7)), int(rng.integers(-4, 5))
        a = _random_param(rng, q)
        nf = ["normal-form", "--tau", ts, "-r", str(r), f"--degree={d}", f"--param={_complex_arg(a)}"]
        tasks.append(CliTask(f"normal-form | degree tau={tau}", [nf, ["degree"]], _expect_json({"degree": d})))

        r0 = int(rng.integers(2, 7))
        a0 = _random_param(rng, q)
        d0 = ["deg0-form", "--tau", ts, "-r", str(r0), f"--param={_complex_arg(a0)}"]
        tasks.append(CliTask(f"deg0-form | recognize tau={tau}", [d0, ["recognize"]], _recognize_check(r0, a0, q)))

        # iterates of positive degree normal forms with m >= 3 lose entries to
        # the matrix-wide pruning on some parameters, so d stays <= 0 here
        r, d, m = int(rng.integers(2, 6)), int(rng.integers(-3, 1)), int(rng.integers(2, 5))
        a = _random_param(rng, q)
        nf = ["normal-form", "--tau", ts, "-r", str(r), f"--degree={d}", f"--param={_complex_arg(a)}"]
        tasks.append(CliTask(f"normal-form | iterate tau={tau}", [nf, ["iterate", "-m", str(m)]], _iterate_check(s, r, d, a, m)))

        left = monomial_det_factor(rng, 2, [-1, 1])
        right = monomial_det_factor(rng, 3, _exponent_pattern(3, -1, 1))
        paths = []
        for side, mat in (("left", left), ("right", right)):
            path = workdir / f"tensor-{ti}-{side}.json"
            path.write_text(dense.factor_json(tau, mat))
            paths.append(str(path))
        tensor = ["tensor", "--left", paths[0], "--right", paths[1]]
        tasks.append(CliTask(f"tensor tau={tau}", [tensor], _tensor_check(left, right)))

        p = int(rng.integers(2, 8))
        qq = int(rng.integers(1, p + 1))
        tasks.append(CliTask(f"cg-table p={p} q={qq}", [["cg-table", "-p", str(p), "-q", str(qq)]], _cg_check(p, qq)))

        ca, cb = (0.0, 0.5)[int(rng.integers(2))], (0.0, 0.5)[int(rng.integers(2))]
        seed = int(rng.integers(1 << 30))
        theta = ["theta-check", "--tau", ts, "--a", str(ca), "--b", str(cb), "--samples", "64", "--seed", str(seed)]
        tasks.append(CliTask(f"theta-check tau={tau} xi=({ca},{cb})", [theta], _theta_check(64)))
    return tasks


def _expect_json(want: dict) -> Callable[[bytes], None]:
    def check(stdout: bytes) -> None:
        got = _json_out(stdout)
        if got != want:
            raise CheckFailed(f"output {got}, expected {want}")

    return check


def _recognize_check(r: int, a: complex, q: complex) -> Callable[[bytes], None]:
    def check(stdout: bytes) -> None:
        got = _json_out(stdout)
        desc = got.get("descriptor") or {}
        if got.get("recognized") is not True or desc.get("rank") != r or desc.get("degree") != 0:
            raise CheckFailed(f"output {got}, expected rank {r} degree 0")
        checks.canonical_param(complex(*desc["param"]), a, q)

    return check


def _iterate_check(s: complex, r: int, d: int, a: complex, m: int) -> Callable[[bytes], None]:
    u = dense.circle(SAMPLE_POINTS)
    q = s * s

    def check(stdout: bytes) -> None:
        got = dense.parse_matrix_json(_json_out(stdout)["A"])
        want = np.broadcast_to(np.eye(r, dtype=complex), (len(u), r, r))
        for i in range(m):
            want = checks.normal_form_values(s, r, d, a, q ** i * u) @ want
        checks.matrix_matches(f"iterate {m}", got, want, u)

    return check


def _tensor_check(left: Dense, right: Dense) -> Callable[[bytes], None]:
    u = dense.circle(SAMPLE_POINTS)
    lv, rv = left.at(u), right.at(u)
    want = np.einsum("pij,pkl->pikjl", lv, rv).reshape(len(u), left.n * right.n, left.n * right.n)

    def check(stdout: bytes) -> None:
        checks.matrix_matches("tensor", dense.parse_matrix_json(_json_out(stdout)["A"]), want, u)

    return check


def _cg_check(p: int, q: int) -> Callable[[bytes], None]:
    sizes = checks.jordan_sizes_unipotent_product(p, q)

    def check(stdout: bytes) -> None:
        got = _json_out(stdout)
        if got != {"p": p, "q": q, "indices": sizes}:
            raise CheckFailed(f"output {got}, Jordan block sizes are {sizes}")

    return check


def _theta_check(samples: int) -> Callable[[bytes], None]:
    def check(stdout: bytes) -> None:
        got = _json_out(stdout)
        res = got.get("max_residual")
        if got.get("pass") is not True or got.get("samples") != samples or not (0 <= res <= 1e-9):
            raise CheckFailed(f"theta check output {got}")

    return check


def theta_points(rng: np.random.Generator, count: int) -> list[tuple[complex, float, float, complex]]:
    """(tau, a, b, z) where the program's theta_eval is compared with mpmath."""
    out = []
    for k in range(count):
        tau = TAUS[k % len(TAUS)]
        a, b = (0.0, 0.5)[int(rng.integers(2))], (0.0, 0.5)[int(rng.integers(2))]
        z = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau
        out.append((tau, a, b, z))
    return out


def check_theta_values(tb, points) -> None:
    for tau, a, b, z in points:
        got = tb.theta_eval(tb.Torus(tau), tb.ThetaCharacteristic(a, b), z)
        want = checks.theta_reference(tau, a, b, z)
        if abs(got - want) > 1e-12 * (1.0 + abs(want)):
            raise CheckFailed(f"theta_eval(tau={tau}, xi=({a},{b}), z={z}) = {got}, mpmath gives {want}")


def cli_expected_stdout(task: CliTask, seen: dict, stdout: bytes) -> None:
    """A repeated call must give byte-identical stdout."""
    first = seen.setdefault(json.dumps(task.stages), stdout)
    if first != stdout:
        raise CheckFailed("stdout differs from an earlier call with the same arguments")
