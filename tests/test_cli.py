"""End to end tests of the command line interface.

Commands run in process through main(argv); stdin piping is simulated
with StringIO so composed pipelines stay deterministic and fast.
"""

import argparse
import io
import json
import math
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusbundles import (
    FactorOfAutomorphy,
    LaurentMatrix,
    LaurentPoly,
    Torus,
    factor_from_json,
    factor_to_json,
    matrices_close,
    matrix_to_json,
    normal_form,
    normal_form_deg0,
)
from torusbundles.cli import _build_parser, _table, format_complex, main, parse_complex
from torusbundles.laurent import SAMPLE_BUDGET


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complex number syntax
# ---------------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2") == -2.0
    assert parse_complex("2i") == 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("0.3+1.1i") == 0.3 + 1.1j
    assert parse_complex("1e-2-3i") == 0.01 - 3j
    assert parse_complex(" 1+1i ") == 1 + 1j


def test_parse_complex_rejects_garbage():
    for bad in ("", "i", "1+i", "1 + 2i", "2j", "abc"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_complex_round_trips():
    for z in (1.5 + 0j, -2j, 0.3 + 1.1j, -0.25 - 0.75j):
        assert parse_complex(format_complex(z)) == z


# ---------------------------------------------------------------------------
# constructions and pipelines
# ---------------------------------------------------------------------------

def test_normal_form_emits_factor_json(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1"])
    assert code == 0 and err == ""
    f = factor_from_json(json.loads(out))
    assert f.A.n == 2
    assert f.torus.tau == 1j


def test_pipeline_normal_form_to_degree(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "3", "-d", "2", "-a", "0.5+0.1i"])
    assert code == 0
    code, out2, _ = run(capsys, monkeypatch, ["degree"], stdin=out)
    assert code == 0
    assert json.loads(out2) == {"degree": 2}
    code, out3, _ = run(capsys, monkeypatch, ["rank"], stdin=out)
    assert code == 0
    assert json.loads(out3) == {"rank": 3}


def test_deg0_recognize_round_trip(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, [
        "deg0-form", "--tau", "0.3+1.1i", "-r", "4", "-a", "0.6+0.2i"])
    assert code == 0
    code, out2, _ = run(capsys, monkeypatch, ["recognize"], stdin=out)
    assert code == 0
    data = json.loads(out2)
    assert data["recognized"] is True
    assert data["descriptor"]["rank"] == 4
    assert data["descriptor"]["degree"] == 0
    got = complex(*data["descriptor"]["param"])
    assert abs(got - (0.6 + 0.2j)) <= 1e-8


def test_sym_and_wedge_ranks(capsys, monkeypatch):
    _, factor, _ = run(capsys, monkeypatch, [
        "deg0-form", "--tau", "0+1i", "-r", "3", "-a", "1"])
    code, out, _ = run(capsys, monkeypatch, ["sym", "-n", "2"], stdin=factor)
    assert code == 0
    assert factor_from_json(json.loads(out)).A.n == 6
    code, out, _ = run(capsys, monkeypatch, ["wedge", "-k", "2"], stdin=factor)
    assert code == 0
    assert factor_from_json(json.loads(out)).A.n == 3


def test_dual_involution_via_cli(capsys, monkeypatch):
    _, factor, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1"])
    _, once, _ = run(capsys, monkeypatch, ["dual"], stdin=factor)
    code, twice, _ = run(capsys, monkeypatch, ["dual"], stdin=once)
    assert code == 0
    a = factor_from_json(json.loads(factor)).A
    b = factor_from_json(json.loads(twice)).A
    assert matrices_close(a, b, 1e-9)


def test_iterate_zero_is_identity(capsys, monkeypatch):
    _, factor, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1"])
    code, out, _ = run(capsys, monkeypatch, ["iterate", "-m", "0"], stdin=factor)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"torus", "A"}
    from torusbundles import matrix_from_json

    assert matrices_close(matrix_from_json(data["A"]), LaurentMatrix.identity(2))


def test_tensor_from_files(capsys, monkeypatch, tmp_path):
    _, left, _ = run(capsys, monkeypatch, [
        "deg0-form", "--tau", "0+1i", "-r", "2", "-a", "1"])
    _, right, _ = run(capsys, monkeypatch, [
        "deg0-form", "--tau", "0+1i", "-r", "3", "-a", "0.5"])
    lp = tmp_path / "left.json"
    rp = tmp_path / "right.json"
    lp.write_text(left)
    rp.write_text(right)
    code, out, _ = run(capsys, monkeypatch, [
        "tensor", "--left", str(lp), "--right", str(rp)])
    assert code == 0
    assert factor_from_json(json.loads(out)).A.n == 6


def test_pushforward_pullback_shapes(capsys, monkeypatch):
    _, factor, _ = run(capsys, monkeypatch, [
        "deg0-form", "--tau", "0+2i", "-r", "2", "-a", "0.7"])
    code, down, _ = run(capsys, monkeypatch, ["pushforward", "-r", "2"], stdin=factor)
    assert code == 0
    f = factor_from_json(json.loads(down))
    assert f.A.n == 4
    assert f.torus.tau == 1j
    code, up, _ = run(capsys, monkeypatch, ["pullback", "-r", "2"], stdin=down)
    assert code == 0
    g = factor_from_json(json.loads(up))
    assert g.A.n == 4
    assert g.torus.tau == 2j


def test_roundtrip_blocks(capsys, monkeypatch):
    _, factor, _ = run(capsys, monkeypatch, [
        "deg0-form", "--tau", "0+3i", "-r", "2", "-a", "0.7"])
    code, out, _ = run(capsys, monkeypatch, ["roundtrip", "-r", "3"], stdin=factor)
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert len(blocks) == 3
    first = factor_from_json(blocks[0])
    assert matrices_close(first.A, factor_from_json(json.loads(factor)).A)


# ---------------------------------------------------------------------------
# checks and tables
# ---------------------------------------------------------------------------

def _factor_json_text(torus, matrix):
    from torusbundles import FactorOfAutomorphy, factor_to_json

    return json.dumps(factor_to_json(FactorOfAutomorphy(torus, matrix)))


def test_trivial_check_rank1(capsys, monkeypatch):
    t = Torus(1j)
    payload = _factor_json_text(t, LaurentMatrix([[LaurentPoly.constant(t.q ** 3)]]))
    code, out, _ = run(capsys, monkeypatch, ["trivial-check"], stdin=payload)
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "rank1-constant"
    assert data["trivial"] is True
    assert data["nu"] == 3

    payload = _factor_json_text(t, LaurentMatrix([[LaurentPoly.constant(2.0)]]))
    code, out, _ = run(capsys, monkeypatch, ["trivial-check"], stdin=payload)
    assert json.loads(out) == {"family": "rank1-constant", "trivial": False, "nu": None}


def test_trivial_check_unipotent(capsys, monkeypatch):
    t = Torus(1j)
    a = LaurentPoly({1: 0.4, -2: 1.0})
    m = LaurentMatrix([[LaurentPoly.one(), a], [LaurentPoly.zero(), LaurentPoly.one()]])
    code, out, _ = run(capsys, monkeypatch, ["trivial-check"], stdin=_factor_json_text(t, m))
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "unipotent2"
    assert data["trivial"] is True
    ks = {term["k"] for term in data["b"]}
    assert ks == {1, -2}


def test_trivial_check_keeps_every_term_of_b(capsys, monkeypatch):
    # on tau = i, a = u^-8 + u gives b_-8 ~ 1.5e-22 beside b_1 ~ -1.0019
    t = Torus(1j)
    m = LaurentMatrix([[1, LaurentPoly({-8: 1.0, 1: 1.0})], [0, 1]])
    code, out, _ = run(capsys, monkeypatch, ["trivial-check"], stdin=_factor_json_text(t, m))
    assert code == 0
    assert [term["k"] for term in json.loads(out)["b"]] == [-8, 1]


def test_trivial_check_unipotent_table_line(capsys, monkeypatch):
    # b_k = a_k / (q^k - 1) with q = exp(-2 pi): 0.4 / (q - 1) = -0.40074837...
    # and 1 / (q^-2 - 1) = 3.4873545...e-06, read back from the JSON terms
    t = Torus(1j)
    a = LaurentPoly({1: 0.4, -2: 1.0})
    m = LaurentMatrix([[LaurentPoly.one(), a], [LaurentPoly.zero(), LaurentPoly.one()]])
    code, out, _ = run(capsys, monkeypatch, ["trivial-check", "--format", "table"], stdin=_factor_json_text(t, m))
    assert code == 0
    assert out.splitlines() == [
        "family: unipotent2",
        "trivial: True",
        "b: 3.487354518e-06*u^-2 + -0.4007483746*u",
    ]


def test_trivial_check_rejects_a_negative_nu_range(capsys, monkeypatch):
    # [[q]] is the trivial line bundle, nu = 1
    t = Torus(1j)
    payload = _factor_json_text(t, LaurentMatrix([[LaurentPoly.constant(t.q)]]))
    code, out, err = run(capsys, monkeypatch, ["trivial-check", "--nu-range", "-1"], stdin=payload)
    assert (code, out) == (1, "")
    assert err == "ValueError: nu_range must be a non-negative integer, got -1\n"
    code, out, _ = run(capsys, monkeypatch, ["trivial-check", "--nu-range", "10"], stdin=payload)
    assert code == 0
    assert json.loads(out) == {"family": "rank1-constant", "trivial": True, "nu": 1}


def test_trivial_check_takes_a_nu_range_past_the_double_range(capsys, monkeypatch):
    # q^-200 overflows on this torus; the powers past the range are skipped
    t = Torus(0.3 + 1.1j)
    payload = _factor_json_text(t, LaurentMatrix([[LaurentPoly.constant(t.q ** 3)]]))
    code, out, _ = run(capsys, monkeypatch, ["trivial-check", "--nu-range", "200"], stdin=payload)
    assert code == 0
    assert json.loads(out) == {"family": "rank1-constant", "trivial": True, "nu": 3}


def test_recognize_rejects_a_negative_nu_range(capsys, monkeypatch):
    code, form, _ = run(capsys, monkeypatch, ["deg0-form", "--tau", "0+1i", "-r", "3", "-a", "0.6+0.2i"])
    assert code == 0
    code, out, err = run(capsys, monkeypatch, ["recognize", "--nu-range", "-1"], stdin=form)
    assert (code, out) == (1, "")
    assert err == "ValueError: nu_range must be a non-negative integer, got -1\n"


def test_recognize_names_a_power_past_the_double_range(capsys, monkeypatch):
    # similar to J_3(1), but M^2 holds 1e320: an error, not "not recognized",
    # and no warning, which the suite turns into an error
    m = [[1, 1e160, 0], [0, 1, 1e160], [0, 0, 1]]
    entries = [[{"k": 0, "re": float(v), "im": 0.0}] if v else [] for row in m for v in row]
    form = json.dumps({"torus": {"tau": [0.0, 1.0]}, "A": {"n": 3, "entries": entries}})
    code, out, err = run(capsys, monkeypatch, ["recognize"], stdin=form)
    assert (code, out) == (1, "")
    assert err == ("ValueError: powers of the matrix minus (1+0j) leave the double range: "
                   "M^2 is not finite (max |entry| = 1.000e+160)\n")


def test_trivial_check_rejects_size3(capsys, monkeypatch):
    t = Torus(1j)
    code, out, err = run(capsys, monkeypatch, ["trivial-check"],
                         stdin=_factor_json_text(t, LaurentMatrix.identity(3)))
    assert code == 1
    assert "ValueError" in err


def test_cg_table(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["cg-table", "-p", "3", "-q", "2"])
    assert code == 0
    assert json.loads(out) == {"p": 3, "q": 2, "indices": [4, 2]}


def test_theta_check_passes_and_is_seeded(capsys, monkeypatch):
    argv = ["theta-check", "--tau", "0+1i", "--samples", "16", "--seed", "5"]
    code, out1, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    data = json.loads(out1)
    assert data["pass"] is True
    assert data["max_residual"] <= 1e-9
    code, out2, _ = run(capsys, monkeypatch, argv)
    assert out1 == out2
    code, out3, _ = run(capsys, monkeypatch, [
        "theta-check", "--tau", "0+1i", "--samples", "16", "--seed", "6"])
    assert json.loads(out3)["pass"] is True


def test_theta_check_refuses_terms_past_the_budget(capsys, monkeypatch):
    terms = SAMPLE_BUDGET // 2
    code, out, err = run(capsys, monkeypatch, ["theta-check", "--tau", "0+1i", "--terms", str(terms)])
    assert (code, out) == (1, "")
    width = 2 * terms + 1
    assert err == f"ValueError: theta series window of width {width} needs {width} elements, more than SAMPLE_BUDGET = {SAMPLE_BUDGET}\n"


def test_verify_witness_files(capsys, monkeypatch, tmp_path):
    from torusbundles import matrix_to_json

    _, factor, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1"])
    fp = tmp_path / "f.json"
    fp.write_text(factor)
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps(matrix_to_json(LaurentMatrix.identity(2))))
    code, out, _ = run(capsys, monkeypatch, [
        "verify-witness", "--left", str(fp), "--right", str(fp), "--witness", str(wp)])
    assert code == 0
    assert json.loads(out) == {"valid": True}

    other = tmp_path / "g.json"
    _, factor2, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "0.5"])
    other.write_text(factor2)
    code, out, _ = run(capsys, monkeypatch, [
        "verify-witness", "--left", str(fp), "--right", str(other), "--witness", str(wp)])
    assert code == 0
    assert json.loads(out) == {"valid": False}


# ---------------------------------------------------------------------------
# formats and failure modes
# ---------------------------------------------------------------------------

def test_table_format(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1",
        "--format", "table"])
    assert code == 0
    assert "tau: 0+1i" in out
    assert "A (2 x 2):" in out


# one valid invocation per subcommand: its arguments, where {factor} and
# {witness} stand for files, and the document piped to stdin, if any
_INVOCATIONS = {
    "normal-form": (["--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1"], None),
    "deg0-form": (["--tau", "0+1i", "-r", "2", "-a", "0.5"], None),
    "tensor": (["--left", "{factor}", "--right", "{factor}"], None),
    "sym": (["-n", "2"], "factor"),
    "wedge": (["-k", "2"], "factor"),
    "dual": ([], "factor"),
    "pullback": (["-r", "2"], "factor"),
    "pushforward": (["-r", "2"], "factor"),
    "roundtrip": (["-r", "2"], "factor"),
    "iterate": (["-m", "2"], "factor"),
    "degree": ([], "factor"),
    "rank": ([], "factor"),
    "recognize": ([], "deg0"),
    "trivial-check": ([], "unipotent"),
    "cg-table": (["-p", "3", "-q", "2"], None),
    "theta-check": (["--tau", "0+1i", "--samples", "4"], None),
    "verify-witness": (["--left", "{factor}", "--right", "{factor}", "--witness", "{witness}"], None),
}


def _subcommands():
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


def test_every_subcommand_has_an_invocation():
    assert _subcommands() == sorted(_INVOCATIONS)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command", _subcommands())
def test_subcommand_prints_its_document_once(command, fmt, capsys, monkeypatch, tmp_path):
    t = Torus(1j)
    unipotent = LaurentMatrix([[1, LaurentPoly({1: 0.4, -2: 1.0})], [0, 1]])
    docs = {
        "factor": factor_to_json(normal_form(t, 2, 1, 1)),
        "deg0": factor_to_json(normal_form_deg0(t, 2, 0.5)),
        "unipotent": factor_to_json(FactorOfAutomorphy(t, unipotent)),
        "witness": matrix_to_json(LaurentMatrix.identity(2)),
    }
    files = {}
    for name in ("factor", "witness"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(docs[name]))
    args, stdin = _INVOCATIONS[command]
    argv = [command, *(a.format(**files) for a in args)]
    stdin = None if stdin is None else json.dumps(docs[stdin])
    code, out, err = run(capsys, monkeypatch, [*argv, "--format", "json"], stdin=stdin)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    if fmt == "table":
        code, out, err = run(capsys, monkeypatch, [*argv, "--format", "table"], stdin=stdin)
        assert (code, err) == (0, "")
        assert out == _table(doc) + "\n"


def test_bad_tau_is_domain_error(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, [
        "normal-form", "--tau", "1-1i", "-r", "2", "-d", "1", "-a", "1"])
    assert code == 1
    assert "ValueError" in err


def test_a_tau_whose_nome_rounds_to_one_is_domain_error(capsys, monkeypatch):
    # deg0-form --tau 0+1e-20i | recognize once divided by log|q| = 0
    code, out, err = run(capsys, monkeypatch, ["deg0-form", "--tau", "0+1e-20i", "-r", "2", "--param=0.5"])
    assert (code, out) == (1, "")
    assert err.splitlines() == ["ValueError: tau = 1e-20j gives |q| = 1.0 in doubles; "
                                "|q| must be below 1 (Im tau above about 1.8e-17)"]


def test_zero_isogeny_degree_is_domain_error(capsys, monkeypatch):
    _, factor, _ = run(capsys, monkeypatch, [
        "normal-form", "--tau", "0+1i", "-r", "2", "-d", "1", "-a", "1"])
    for command in ("pushforward", "roundtrip"):
        code, out, err = run(capsys, monkeypatch, [command, "-r", "0"], stdin=factor)
        assert code == 1 and out == ""
        assert err.splitlines() == ["ValueError: isogeny degree must be a positive integer, got 0"]


def test_non_integer_exponent_is_domain_error(capsys, monkeypatch):
    bad = {"torus": {"tau": [0.0, 1.0]},
           "A": {"n": 1, "entries": [[{"k": 0.5, "re": 1.0, "im": 0.0}]]}}
    code, out, err = run(capsys, monkeypatch, ["degree"], stdin=json.dumps(bad))
    assert code == 1 and out == ""
    assert "exponent must be an integer" in err


def test_non_integer_size_is_domain_error(capsys, monkeypatch):
    # 1e400 parses as inf; the others used to be read as n = 1
    for n in ("1e400", "1.5", "true", '"1"'):
        stdin = '{"torus": {"tau": [0, 1]}, "A": {"n": %s, "entries": [[{"k": 0, "re": 1, "im": 0}]]}}' % n
        code, out, err = run(capsys, monkeypatch, ["degree"], stdin=stdin)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "size n must be an integer" in err


def test_wide_exponent_window_is_a_one_line_error(capsys, monkeypatch):
    # det would sample a window of 200001 points
    wide = {"torus": {"tau": [0, 1]},
            "A": {"n": 1, "entries": [[{"k": k, "re": 1.0, "im": 0.0} for k in (-100000, 100000)]]}}
    code, out, err = run(capsys, monkeypatch, ["degree"], stdin=json.dumps(wide))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("ValueError: sampling window of width 200001 ")


def test_wide_inputs_are_refused_before_allocation(capsys, monkeypatch):
    # [[u^-1e6, u^1e6], [0, 1]] would hold 2000001 x 4 coefficients, past
    # the budget.  u^-2e6 + 3 u^2e6 holds 4000001 (64 MB, within it); the
    # 16-point invertibility sample folds it into 16 slices and passes, and
    # degree's sampled det of it would need a 4000001-point window.  The
    # peak is bounded by the largest coefficient
    # array the budget admits, 16 bytes x SAMPLE_BUDGET = 64 MiB, plus a
    # quarter for masks of its slices.  The companion of u^-100 for r = 300
    # would hold 101 x 300^2 coefficients, which degree could not read back.
    def term(k, re):
        return {"k": k, "re": re, "im": 0.0}

    cases = (
        (["degree"], 2, [[term(-10 ** 6, 1.0)], [term(10 ** 6, 1.0)], [], [term(0, 1.0)]],
         "exponent window of width 2000001 needs 8000004 elements"),
        (["degree"], 1, [[term(-2 * 10 ** 6, 1.0), term(2 * 10 ** 6, 3.0)]],
         "sampling window of width 4000001 needs 16000008000001 elements"),
        (["pushforward", "-r", "300"], 1, [[term(-100, 1.0)]],
         "exponent window of width 101 needs 9090000 elements"),
    )
    for argv, n, entries, message in cases:
        stdin = json.dumps({"torus": {"tau": [0, 1]}, "A": {"n": n, "entries": entries}})
        tracemalloc.start()
        try:
            code, out, err = run(capsys, monkeypatch, argv, stdin=stdin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == f"ValueError: {message}, more than SAMPLE_BUDGET = {SAMPLE_BUDGET}\n"
        assert peak < 16 * SAMPLE_BUDGET * 5 // 4


def test_malformed_json_is_domain_error(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["degree"], stdin="{not json")
    assert code == 1
    assert err != ""


def test_unknown_command_is_usage_error(capsys, monkeypatch):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_required_argument_is_usage_error(capsys, monkeypatch):
    assert main(["normal-form", "--tau", "0+1i"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzing the JSON readers
# ---------------------------------------------------------------------------

# Exponents are in [-3, 3] or beyond any array size (1e308, 10^400): a
# LaurentMatrix is dense over its exponent window, so two exponents 10^9
# apart would ask for 16 GB before det's SAMPLE_BUDGET is consulted, a
# limit of the representation and not of the readers.
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.sampled_from([0.5, -1.0, 1e308, 10 ** 400, float("inf"), float("nan")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["k", "re", "x"]), inner, max_size=2),
    max_leaves=4,
)
_number = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-(10 ** 400), 10 ** 400) | _junk
_term = st.fixed_dictionaries({"k": st.integers(-3, 3) | _junk, "re": _number, "im": _number}) | _junk
_entry = st.lists(_term, max_size=3) | _junk
_matrix = st.fixed_dictionaries({"n": st.integers(-1, 3) | _junk, "entries": st.lists(_entry, max_size=10) | _junk}) | _junk
_factor = st.fixed_dictionaries({"torus": st.fixed_dictionaries({"tau": st.lists(_number, max_size=3)}) | _junk,
                                 "A": _matrix}) | _junk


def _big(entries):
    return {"torus": {"tau": [0, 1]}, "A": {"n": 2, "entries": [[{"k": k, "re": 1e300, "im": 1e300} for k in e] for e in entries]}}


@settings(max_examples=200, deadline=None)
@given(data=_factor)
@example(data=_big([[0], [0], [1], []]))  # det overflows, one exponent per row
@example(data=_big([[0, 1], [1], [0], [0]]))  # det overflows in the sampled path
def test_fuzzed_factor_json_is_a_result_or_a_one_line_error(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed-factor.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    # numpy warnings become errors, so a warning printed to stderr fails too
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["degree", "-i", str(path)])
    if code == 0:
        assert err.getvalue() == "" and isinstance(json.loads(out.getvalue())["degree"], int)
    else:
        assert code == 1 and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("argv", [["roundtrip", "-r", "4"], ["iterate", "-m", "3"]], ids=["roundtrip", "iterate"])
def test_arithmetic_failure_is_a_one_line_error(argv, capsys, monkeypatch):
    # the weight c^-50 of a translate underflows: Python's complex power divides by 0
    data = {"torus": {"tau": [0.0, 4.0]}, "A": {"n": 1, "entries": [[{"k": -50, "re": 1.0, "im": 0.0}]]}}
    code, out, err = run(capsys, monkeypatch, argv, stdin=json.dumps(data))
    assert (code, out, err) == (1, "", "ZeroDivisionError: 0.0 to a negative or complex power\n")


def test_twist_past_the_double_range_is_a_one_line_error(capsys, monkeypatch):
    argv = ["normal-form", "--tau", "0+5i", "-r", "11", "-d", "48", "-a", "0.6+0.2i"]
    code, out, err = run(capsys, monkeypatch, argv)
    assert (code, out) == (1, "")
    assert err == "ValueError: twist s^-d' is past the double range: d' = 48, |s| = 1.50702e-07\n"


def test_overflow_prints_no_numpy_warning(capsys, monkeypatch):
    # the suite turns RuntimeWarning into an error, so a warning would escape main
    _, factor, _ = run(capsys, monkeypatch, ["normal-form", "--tau", "0+1i", "-r", "1", "-d", "8", "-a", "1"])
    code, out, err = run(capsys, monkeypatch, ["iterate", "-m", "20"], stdin=factor)
    assert (code, out, err) == (1, "", "ValueError: non-finite coefficient in a 1 x 1 matrix\n")


def test_iterate_keeps_the_small_entries_of_a_widely_scaled_product(capsys, monkeypatch):
    # A(3, u) has one term in each of 4 entries, from 1 to 2.7e20
    _, factor, _ = run(capsys, monkeypatch, ["normal-form", "--tau", "0+1i", "-r", "4", "-d", "3", "-a", "0.94"])
    code, out, _ = run(capsys, monkeypatch, ["iterate", "-m", "3"], stdin=factor)
    assert code == 0
    assert sum(1 for terms in json.loads(out)["A"]["entries"] if terms) == 4


def test_iterate_that_underflows_is_a_one_line_error(capsys, monkeypatch):
    # A(101, u) of this normal form has coefficients near |q|^5050, below the double range
    _, factor, _ = run(capsys, monkeypatch, ["normal-form", "--tau", "0+1i", "-r", "3", "-d", "-2", "-a", "0.6+0.2i"])
    code, out, err = run(capsys, monkeypatch, ["iterate", "-m", "101"], stdin=factor)
    assert (code, out, err) == (1, "", "ValueError: A(m, u) underflows to the zero matrix at m = 101\n")


def test_failed_invertibility_check_reports_the_dets_it_took(capsys, monkeypatch):
    # the Laurent det of the overflowing generators has non-finite
    # coefficients, so the message gives the determinants the check took;
    # eliminating the last one leaves an entry whose modulus overflows
    singular = {"torus": {"tau": [0, 1]}, "A": {"n": 2, "entries": [[{"k": 0, "re": 1, "im": 0}]] * 4}}
    huge = {"torus": {"tau": [0, 1]}, "A": {"n": 2, "entries": [
        [{"k": 0, "re": 1e308, "im": 0.0}], [{"k": 0, "re": 0.5e308, "im": 0.5e308}],
        [{"k": 1, "re": -1e308, "im": 0.0}], [{"k": 1, "re": 1e308, "im": 1e308}]]}}
    for data, taken in (
        (_big([[0], [0], [1], []]), "|det A(1)| = inf"),
        (_big([[0, 1], [1], [0], [0]]), "|det A| from inf to inf at 16 points of |u| = 1"),
        (singular, "|det A(1)| = 0"),
        (huge, "|det A(1)| = inf"),
    ):
        code, out, err = run(capsys, monkeypatch, ["degree"], stdin=json.dumps(data))
        assert (code, out) == (1, "")
        assert err == f"ValueError: generator fails the sampled invertibility check ({taken})\n"


def test_subnormal_pivot_gives_the_degree(capsys, monkeypatch):
    # det A(1) = -1e-313, a subnormal pivot, which elimination keeps
    one, tiny = [{"k": 0, "re": 1.0, "im": 0.0}], [{"k": 0, "re": 1e-313, "im": 0.0}]
    data = {"torus": {"tau": [0.3, 1.1]}, "A": {"n": 2, "entries": [[], one, tiny, []]}}
    assert run(capsys, monkeypatch, ["degree"], stdin=json.dumps(data)) == (0, '{"degree": 0}\n', "")


def test_degree_of_a_normal_form_takes_one_elimination(capsys, monkeypatch):
    # read from JSON the factor carries no det: its check takes the one
    # elimination of A(1), and degree reads the det the check kept
    from torusbundles import laurent

    argv = ["normal-form", "--tau", "0.3+1.1i", "-r", "12", "-d", "8", "-a", "0.6+0.2i"]
    _, factor, _ = run(capsys, monkeypatch, argv)
    dets, eliminations = [], []
    det, pivot_det = np.linalg.det, laurent._pivot_det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a.shape) or det(a))
    monkeypatch.setattr(laurent, "_pivot_det", lambda m: eliminations.append(len(m)) or pivot_det(m))
    assert run(capsys, monkeypatch, ["degree"], stdin=factor) == (0, '{"degree": 8}\n', "")
    assert (dets, eliminations) == ([], [12])
