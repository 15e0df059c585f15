"""Command line interface.

Factors of automorphy travel between commands as JSON on stdin/stdout,
so constructions compose by piping:

    torusbundles normal-form --tau 0+1i -r 2 -d 1 -a 1+0i | torusbundles degree

Complex numbers on the command line use the compact a+bi form with no
spaces, for example 0.3+1.1i or 2i or -0.5.  Exit codes: 0 on success,
1 on a domain error (bad torus, non invertible matrix, malformed JSON)
or an arithmetic failure, 2 on a usage error.

Each subcommand handler returns its output document and prints nothing;
main alone renders the document (--format json or table) and maps the
outcome to the exit code, so a domain error prints one stderr line and
no stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

import numpy as np

from .laurent import (
    LaurentMatrix,
    Torus,
    TorusBundleError,
    matrix_from_json,
    matrix_to_json,
    terms_from_json,
    terms_to_json,
    torus_to_json,
)
from .cocycle import (
    EquivalenceWitness,
    FactorOfAutomorphy,
    check_witness,
    factor_from_json,
    factor_to_json,
    is_trivial_rank1_constant,
    is_trivial_unipotent2,
    iterate,
)
from .functors import clebsch_gordan_F, dual, sym_power, tensor, wedge_power
from .isogeny import IsogenyContext, _check_degree, pullback, pushforward, roundtrip_diag
from .classify import (
    degree,
    descriptor_to_json,
    normal_form,
    rank,
    recognize_deg0,
)
from .theta import ThetaCharacteristic, e_factor, theta_eval, verify_theta_function

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"


def parse_complex(text: str) -> complex:
    """Parse the a+bi command line form (no spaces)."""
    t = text.strip()
    m = re.fullmatch(f"([+-]?{_NUM})([+-]{_NUM})i", t)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = re.fullmatch(f"([+-]?{_NUM})i", t)
    if m:
        return complex(0.0, float(m.group(1)))
    if re.fullmatch(f"[+-]?{_NUM}", t):
        return complex(float(t), 0.0)
    raise ValueError(f"cannot parse complex number {text!r}; expected forms like 1.5, 2i, 0.3+1.1i")


def format_complex(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}i"


def _load_json(path: Optional[str]):
    if path is None or path == "-":
        raw = sys.stdin.read()
    else:
        with open(path) as fh:
            raw = fh.read()
    return json.loads(raw)


def _input_factor(args) -> FactorOfAutomorphy:
    return factor_from_json(_load_json(args.input))


def _table(obj, indent: str = "") -> str:
    lines = []
    for k, v in obj.items():
        if k == "A" and isinstance(v, dict) and "entries" in v:
            mat = matrix_from_json(v)
            lines.append(f"{indent}A ({mat.n} x {mat.n}):")
            for row in mat.rows():
                lines.append(indent + "  " + " | ".join(str(e) for e in row))
        elif k == "torus" and isinstance(v, dict):
            lines.append(f"{indent}tau: {format_complex(complex(*v['tau']))}")
        elif k == "param" and isinstance(v, list):
            lines.append(f"{indent}param: {format_complex(complex(*v))}")
        elif k == "blocks" and isinstance(v, list):
            for i, b in enumerate(v):
                lines.append(f"{indent}block {i}:")
                lines.append(_table(b, indent + "  "))
        elif k == "b" and isinstance(v, list):
            lines.append(f"{indent}b: {terms_from_json(v)}")
        elif isinstance(v, dict):
            lines.append(f"{indent}{k}:")
            lines.append(_table(v, indent + "  "))
        elif isinstance(v, list):
            lines.append(f"{indent}{k}: " + " ".join(str(x) for x in v))
        else:
            lines.append(f"{indent}{k}: {v}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# handlers: each returns its output document, which main renders
# ---------------------------------------------------------------------------


def _cmd_normal_form(args) -> dict:
    t = Torus(parse_complex(args.tau))
    return factor_to_json(normal_form(t, args.rank, args.degree, parse_complex(args.param)))


def _cmd_tensor(args) -> dict:
    f = factor_from_json(_load_json(args.left))
    g = factor_from_json(_load_json(args.right))
    return factor_to_json(tensor(f, g))


def _cmd_sym(args) -> dict:
    return factor_to_json(sym_power(_input_factor(args), args.n))


def _cmd_wedge(args) -> dict:
    return factor_to_json(wedge_power(_input_factor(args), args.k))


def _cmd_dual(args) -> dict:
    return factor_to_json(dual(_input_factor(args)))


def _cmd_pullback(args) -> dict:
    f = _input_factor(args)
    return factor_to_json(pullback(IsogenyContext.for_degree(f.torus, args.r), f))


def _ctx_from_cover(cover: Torus, r: int) -> IsogenyContext:
    _check_degree(r)
    return IsogenyContext(Torus(cover.tau / r), cover, r)


def _cmd_pushforward(args) -> dict:
    f = _input_factor(args)
    return factor_to_json(pushforward(_ctx_from_cover(f.torus, args.r), f))


def _cmd_roundtrip(args) -> dict:
    f = _input_factor(args)
    blocks = roundtrip_diag(_ctx_from_cover(f.torus, args.r), f)
    return {"blocks": [factor_to_json(b) for b in blocks]}


def _cmd_iterate(args) -> dict:
    f = _input_factor(args)
    return {"torus": torus_to_json(f.torus), "A": matrix_to_json(iterate(f, args.m))}


def _cmd_degree(args) -> dict:
    return {"degree": degree(_input_factor(args))}


def _cmd_rank(args) -> dict:
    return {"rank": rank(_input_factor(args))}


def _cmd_recognize(args) -> dict:
    d = recognize_deg0(_input_factor(args), nu_range=args.nu_range)
    return {"recognized": d is not None, "descriptor": None if d is None else descriptor_to_json(d)}


def _cmd_trivial_check(args) -> dict:
    f = _input_factor(args)
    if f.A.n == 1:
        nu = is_trivial_rank1_constant(f, nu_range=args.nu_range)
        return {"family": "rank1-constant", "trivial": nu is not None, "nu": nu}
    if f.A.n == 2:
        b = is_trivial_unipotent2(f)
        return {"family": "unipotent2", "trivial": b is not None, "b": None if b is None else terms_to_json(b.terms())}
    raise ValueError(f"trivial-check handles sizes 1 and 2, got {f.A.n}")


def _cmd_cg_table(args) -> dict:
    return {"p": args.p, "q": args.q, "indices": clebsch_gordan_F(args.p, args.q)}


def _cmd_theta_check(args) -> dict:
    t = Torus(parse_complex(args.tau))
    xi = ThetaCharacteristic(args.a, args.b)

    def s(z: complex) -> complex:
        return theta_eval(t, xi, z, terms=args.terms)

    def f(p: int, n: int, z: complex) -> complex:
        return e_factor(t, xi, p, n, z)

    rng = np.random.default_rng(args.seed)
    return verify_theta_function(t, f, s, args.samples, rng=rng, tolerance=args.tolerance).to_json_dict()


def _cmd_verify_witness(args) -> dict:
    f = factor_from_json(_load_json(args.left))
    g = factor_from_json(_load_json(args.right))
    w = EquivalenceWitness(matrix_from_json(_load_json(args.witness)))
    return {"valid": check_witness(f, g, w)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusbundles",
        description="vector bundles on C*/<q> via matrix factors of automorphy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")

    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("-i", "--input", default=None, help="factor JSON file, default stdin")

    p = sub.add_parser("normal-form", parents=[common], help="indecomposable of given rank, degree, parameter")
    p.add_argument("--tau", required=True)
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("-a", "--param", required=True)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("deg0-form", parents=[common], help="degree zero Jordan block factor")
    p.add_argument("--tau", required=True)
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("-a", "--param", required=True)
    p.set_defaults(func=_cmd_normal_form, degree=0)

    p = sub.add_parser("tensor", parents=[common], help="Kronecker product of two factors")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("sym", parents=[common, reads], help="symmetric power")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_sym)

    p = sub.add_parser("wedge", parents=[common, reads], help="exterior power")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_wedge)

    p = sub.add_parser("dual", parents=[common, reads], help="inverse transpose")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("pullback", parents=[common, reads], help="pull back along the degree r isogeny")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("pushforward", parents=[common, reads], help="push forward along the degree r isogeny")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(func=_cmd_pushforward)

    p = sub.add_parser("roundtrip", parents=[common, reads], help="diagonal blocks of pullback of pushforward")
    p.add_argument("-r", type=int, required=True)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("iterate", parents=[common, reads], help="iterated cocycle value A(m, u)")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("degree", parents=[common, reads], help="minus the winding number of det")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("rank", parents=[common, reads], help="matrix size")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("recognize", parents=[common, reads], help="recognize a degree zero Jordan block factor")
    p.add_argument("--nu-range", type=int, default=64)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("trivial-check", parents=[common, reads], help="triviality in the two solvable families")
    p.add_argument("--nu-range", type=int, default=10)
    p.set_defaults(func=_cmd_trivial_check)

    p = sub.add_parser("cg-table", parents=[common], help="Clebsch-Gordan indices for F_p tensor F_q")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=_cmd_cg_table)

    p = sub.add_parser("theta-check", parents=[common], help="sample the theta functional equation")
    p.add_argument("--tau", required=True)
    p.add_argument("--a", type=float, default=0.0, help="characteristic coefficient of tau")
    p.add_argument("--b", type=float, default=0.0, help="characteristic constant part")
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=_cmd_theta_check)

    p = sub.add_parser("verify-witness", parents=[common], help="check the intertwining identity for a witness")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--witness", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_verify_witness)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        # no numpy warning on stderr: the constructors reject the inf and nan left behind
        with np.errstate(over="ignore", invalid="ignore"):
            doc = args.func(args)
        print(_table(doc) if args.format == "table" else json.dumps(doc))
    except (TorusBundleError, ValueError, TypeError, KeyError, ArithmeticError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
