"""Command line front end.

Subcommands: weights, rank, aggregate, check, falsify, lemmas, repro,
proof-chain.  Machine output goes to stdout (deterministic for a fixed
argv and input set), diagnostics to stderr.  Exit codes: 0 success, 1
registry mismatch in ``repro``, 2 usage or input errors.  Alternatives
are numbered 1-based on the command line and in human-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .axioms import (
    AxiomId,
    SearchConfig,
    _run_check,
    check_implications,
    falsify,
    witness_json_dict,
)
from .core import (
    DEFAULT_RECIPROCITY_TOL,
    DEFAULT_TIE_TOL,
    PCM,
    PcmError,
    csv_rows,
    pcm_parse_rows,
    pcm_to_csv,
    ranking_json_dict,
)
from .proofchain import build_proof_chain, chain_json_dict, equalize_pair, verify_proof_identities
from .registry import CASE_IDS, run_all, run_case
from .transforms import aggregate
from .weighting import EmOptions, MethodId, em_weights, method_rank, method_weights, weights_json_dict

MAX_CLI_N = 64

ALL_METHOD_TOKENS = tuple(m.value for m in MethodId)
WEIGHT_METHOD_TOKENS = tuple(
    m.value for m in MethodId if m not in (MethodId.FLAT, MethodId.INDEX_ORDER)
)
AXIOM_TOKENS = tuple(a.value for a in AxiomId)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like any other error."""

    def error(self, message):
        raise PcmError(f"{self.prog}: {message}")


@functools.cache  # one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pcmrank",
        description="Weights, rankings and axiom audits for pairwise comparison matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group():
        return argparse.ArgumentParser(add_help=False)

    # option groups, each given to the subcommands that read its options
    recip = group()
    recip.add_argument("--reciprocity-tol", type=float, default=DEFAULT_RECIPROCITY_TOL,
                       help="allowed |a_ij*a_ji - 1| when parsing (default 1e-6)")
    tie = group()
    tie.add_argument("--tie-tol", type=float, default=None,
                     help="relative tie tolerance on weights (default 1e-9; "
                          "env PCMRANK_TIE_TOL overrides the default, the flag beats both)")
    em = group()
    em.add_argument("--em-max-iterations", type=int, default=10_000,
                    help="power iteration budget (default 10000)")
    em.add_argument("--em-tol", type=float, default=1e-12,
                    help="power iteration stopping tolerance (default 1e-12)")
    fmt = group()
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    method = group()
    method.add_argument("--method", choices=ALL_METHOD_TOKENS, required=True)
    source = group()
    source.add_argument("--input", required=True, help="matrix CSV file")
    axiom = group()
    axiom.add_argument("--axiom", choices=AXIOM_TOKENS, required=True)
    search = group()
    search.add_argument("--trials", type=int, required=True)
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--n-min", type=int, default=2)
    search.add_argument("--n-max", type=int, default=6)

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("weights", _cmd_weights, [source, recip, em, fmt],
                "derive a weight vector from one matrix")
    p.add_argument("--method", choices=WEIGHT_METHOD_TOKENS, required=True)

    command("rank", _cmd_rank, [method, source, recip, tie, em, fmt],
            "rank the alternatives of one matrix")

    p = command("aggregate", _cmd_aggregate, [recip], "geometric-mean aggregate of several matrices")
    p.add_argument("--input", action="append", required=True,
                   help="matrix CSV file (repeat for each judge)")
    p.add_argument("-o", "--output", default=None, help="write the CSV here instead of stdout")

    p = command("check", _cmd_check, [method, axiom, source, recip, tie, em, fmt],
                "check one axiom on explicit inputs")
    p.add_argument("--perm", default=None,
                   help='ANO: image of each alternative, 1-based, e.g. "2,1,3"')
    p.add_argument("--input2", action="append", default=None,
                   help="AI: further matrices (repeatable)")
    p.add_argument("--kappa", default=None, help='RSI: exponent "p/q"')
    p.add_argument("--cell", default=None, help='IIC: rewritten cell "k,l" (1-based)')
    p.add_argument("--value", type=float, default=None, help="IIC: replacement value")
    p.add_argument("--pair", default=None, help='IIC/RES: observed pair "i,j" (1-based)')
    p.add_argument("--increase", type=float, default=None, help="RES: raised a_ij value")

    command("falsify", _cmd_falsify, [method, axiom, search, tie, em, fmt],
            "randomized counterexample search")
    command("lemmas", _cmd_lemmas, [method, search, tie, em, fmt],
            "audit the implications between the axioms empirically")

    p = command("repro", _cmd_repro, [fmt], "replay the fixed counterexample registry")
    cases = p.add_mutually_exclusive_group(required=True)
    cases.add_argument("--case", default=None, choices=CASE_IDS, metavar="ID",
                       help=f"one of: {', '.join(CASE_IDS)}")
    cases.add_argument("--all", action="store_true")

    p = command("proof-chain", _cmd_proof_chain, [source, recip, fmt],
                "build the constructive chain and verify its identities")
    p.add_argument("--equalize", action="store_true",
                   help="first rescale a_12 so rows 1 and 2 share their product")
    return parser


def _tie_tol(args) -> float:
    if args.tie_tol is not None:
        return args.tie_tol
    env = os.environ.get("PCMRANK_TIE_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise PcmError(f"PCMRANK_TIE_TOL={env!r} is not a number") from None
    return DEFAULT_TIE_TOL


def _em_opts(args) -> EmOptions:
    return EmOptions(max_iterations=args.em_max_iterations, convergence_tol=args.em_tol)


def _load(path: str, reciprocity_tol: float) -> PCM:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PcmError(f"cannot read {path}: {exc}") from None
    rows = csv_rows(text)  # counted before any field is converted
    if len(rows) > MAX_CLI_N:
        raise PcmError(f"{path}: {len(rows)} alternatives exceed the CLI limit of {MAX_CLI_N}")
    return pcm_parse_rows(rows, reciprocity_tol)


def _indices(text: str, count: int, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(f.strip()) for f in text.split(","))
    except ValueError:
        raise PcmError(f"bad {what} {text!r}: expected {count} comma-separated integers") from None
    if len(values) != count or any(v < 1 for v in values):
        raise PcmError(f"bad {what} {text!r}: expected {count} 1-based indices")
    return tuple(v - 1 for v in values)


def _cmd_weights(args) -> int:
    a = _load(args.input, args.reciprocity_tol)
    method = MethodId(args.method)
    if method is MethodId.EM:
        w, lambda_max = em_weights(a, _em_opts(args))
    else:
        w, lambda_max = method_weights(method, a, _em_opts(args)), None
    if args.format == "json":
        print(json.dumps(weights_json_dict(method, w, lambda_max)))
    else:
        print(f"method: {method.value}")
        print(f"n: {a.n}")
        for i, x in enumerate(w.w):
            print(f"w[{i + 1}] = {x:.12g}")
        if lambda_max is not None:
            print(f"lambda_max = {lambda_max:.12g}")
    return 0


def _cmd_rank(args) -> int:
    a = _load(args.input, args.reciprocity_tol)
    ranking = method_rank(MethodId(args.method), a, _tie_tol(args), _em_opts(args))
    if args.format == "json":
        print(json.dumps(ranking_json_dict(ranking)))
    else:
        human = " > ".join(
            " ~ ".join(str(i + 1) for i in group) for group in ranking.groups()
        )
        print(f"method: {args.method}")
        print(f"ranking (best first): {human}")
        print("rank labels: " + " ".join(str(int(x)) for x in ranking.rank))
    return 0


def _cmd_aggregate(args) -> int:
    mats = [_load(path, args.reciprocity_tol) for path in args.input]
    csv = pcm_to_csv(aggregate(mats))
    if args.output:
        try:
            Path(args.output).write_text(csv)
        except OSError as exc:
            raise PcmError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(csv)
    return 0


#: per axiom: the flags ``check`` requires, the error when one is missing,
#: and the matrices and auxiliary values (as a witness records them) that
#: the flags and the loaded matrix ``a`` give
_CHECK_ARGS = {
    AxiomId.ANO: (("perm",), 'ANO needs --perm "i1,i2,..." (1-based images)',
                  lambda args, a: ([a], {"permutation": _indices(args.perm, a.n, "--perm")})),
    AxiomId.AI: (("input2",), "AI needs at least one --input2 FILE",
                 lambda args, a: ([a] + [_load(path, args.reciprocity_tol)
                                         for path in args.input2], {})),
    AxiomId.INV: ((), None, lambda args, a: ([a], {})),
    AxiomId.RSI: (("kappa",), 'RSI needs --kappa "p/q"',
                  lambda args, a: ([a], {"kappa": args.kappa})),
    AxiomId.IIC: (("cell", "value", "pair"), "IIC needs --cell k,l --value V --pair i,j",
                  lambda args, a: ([a], {"cell": _indices(args.cell, 2, "--cell"),
                                         "value": args.value,
                                         "pair": _indices(args.pair, 2, "--pair")})),
    AxiomId.RES: (("pair", "increase"), "RES needs --pair i,j --increase V",
                  lambda args, a: ([a], {"pair": _indices(args.pair, 2, "--pair"),
                                         "increase": args.increase})),
}


def _cmd_check(args) -> int:
    method = MethodId(args.method)
    axiom = AxiomId(args.axiom)
    a = _load(args.input, args.reciprocity_tol)
    tie, em = _tie_tol(args), _em_opts(args)

    required, missing, inputs = _CHECK_ARGS[axiom]
    if any(getattr(args, flag) is None for flag in required):
        raise PcmError(missing)
    matrices, aux = inputs(args, a)
    verdict = _run_check(method, axiom, matrices, {**aux, "tie_tol": tie}, em)

    if args.format == "json":
        payload = {
            "axiom": axiom.value,
            "method": method.value,
            "holds": verdict.holds,
            "witness": witness_json_dict(verdict.witness) if verdict.witness else None,
        }
        print(json.dumps(payload))
    else:
        state = "holds" if verdict.holds else "VIOLATED"
        print(f"axiom {axiom.value} for method {method.value}: {state}")
        if verdict.witness is not None:
            _print_witness(verdict.witness)
    return 0


def _print_witness(witness) -> None:
    """The witness's narrative, then its JSON on a ``witness:`` line."""
    print(witness.narrative)
    print("witness: " + json.dumps(witness_json_dict(witness)))


def _search_config(args) -> SearchConfig:
    return SearchConfig(seed=args.seed, trials=args.trials, n_range=(args.n_min, args.n_max))


def _cmd_falsify(args) -> int:
    method, axiom = MethodId(args.method), AxiomId(args.axiom)
    witness = falsify(method, axiom, _search_config(args), _tie_tol(args), _em_opts(args))
    if args.format == "json":
        payload = {
            "method": method.value,
            "axiom": axiom.value,
            "trials": args.trials,
            "seed": args.seed,
            "witness": witness_json_dict(witness) if witness else None,
        }
        print(json.dumps(payload))
    elif witness is None:
        print(f"falsify {method.value}/{axiom.value}: no witness found "
              f"in {args.trials} trials (seed {args.seed})")
    else:
        print(f"falsify {method.value}/{axiom.value}: witness found (seed {args.seed})")
        _print_witness(witness)
    return 0


def _cmd_lemmas(args) -> int:
    report = check_implications(
        MethodId(args.method), _search_config(args), _tie_tol(args), _em_opts(args)
    )
    if args.format == "json":
        payload = {
            "method": report["method"],
            "premise": {
                "ano_holds": report["premise"]["ano_witness"] is None,
                "ai_holds": report["premise"]["ai_witness"] is None,
            },
            "implications": {
                name: {"status": entry["status"], "vacuous": entry["vacuous"]}
                for name, entry in report["implications"].items()
            },
        }
        print(json.dumps(payload))
    else:
        premise = report["premise"]
        print(f"method: {report['method']}")
        print(f"ANO: {'holds' if premise['ano_witness'] is None else 'violated'}   "
              f"AI: {'holds' if premise['ai_witness'] is None else 'violated'}")
        for name, entry in report["implications"].items():
            suffix = " (vacuous)" if entry["vacuous"] else ""
            print(f"ANO & AI => {name}: {entry['status']}{suffix}")
    return 0


def _cmd_repro(args) -> int:
    reports = run_all() if args.all else [run_case(args.case)]
    if args.format == "json":
        print(json.dumps(reports))
    else:
        for r in reports:
            state = "ok" if r["ok"] else "MISMATCH"
            print(f"{r['id']:<22} expected {r['expected']:<4} observed {r['observed']:<4} {state}")
        good = sum(r["ok"] for r in reports)
        print(f"{good}/{len(reports)} cases reproduce")
    return 0 if all(r["ok"] for r in reports) else 1


def _cmd_proof_chain(args) -> int:
    a = _load(args.input, args.reciprocity_tol)
    if args.equalize:
        a = equalize_pair(a, 0, 1)
    chain = build_proof_chain(a)
    identities = verify_proof_identities(chain)
    if args.format == "json":
        print(json.dumps(chain_json_dict(chain, identities)))
    else:
        print(f"alpha = {chain.alpha:.12g}")
        for name, ok in identities.items():
            state = "n/a" if ok is None else ("pass" if ok else "FAIL")
            print(f"identity {name}: {state}")
        print("E:")
        line = "  " + "  ".join(["%.6g"] * chain.e.n)  # the bytes of f"{x:.6g}"
        for row in chain.e.entries.tolist():
            print(line % tuple(row))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # an overflow is reported once, as the rejected value it leads to
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as exc:  # argparse printed the help already
        return int(exc.code or 0)
    except PcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
