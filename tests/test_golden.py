"""Byte-for-byte CLI transcripts.

Each transcript in ``tests/golden`` pins the exit code and stdout of
``pcmrank`` for a fixed argv on the matrix files in
``tests/golden/inputs``: ``check`` for every method and axiom in text and
JSON, ``falsify`` for every method and axiom, ``lemmas`` for every
method at 500 trials and at the acceptance budget of 10 000 trials,
``repro --all``, ``rank`` on a 64-alternative near-tie file, and
``weights --format json``, ``aggregate`` and ``proof-chain`` on a 6- and
a 64-alternative file, the latter mixing rationals and 17-digit decimals
as hand-written CSV files do, the same three on a 64-alternative file of
Saaty-scale rationals only, a few literals each repeated many times, and
EM's ``rank`` and ``weights --format json`` on a 3-alternative file whose
power iteration first converges at step 485.  An argument ``@name``
stands for the input file ``name``.

Rewrite the transcripts (and the inputs) only when a change of output is
intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pcmrank import PCM, equalize_pair, pcm_to_csv
from pcmrank.cli import ALL_METHOD_TOKENS, AXIOM_TOKENS, WEIGHT_METHOD_TOKENS, main
from pcmrank.registry import (
    ARITH_AI_A1,
    ARITH_AI_A2,
    FAVPROD_AI_A1,
    FAVPROD_AI_A2,
    IIC4,
    KENDALL6,
)

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CHECK_ARGS = {
    "ANO": [["--input", "@a6.csv", "--perm", "2,3,1,5,4,6"]],
    "AI": [
        ["--input", "@ai_arith1.csv", "--input2", "@ai_arith2.csv"],
        ["--input", "@ai_fav1.csv", "--input2", "@ai_fav2.csv", "--input2", "@ai_arith1.csv"],
    ],
    "INV": [["--input", "@a6.csv"], ["--input", "@a6.csv", "--tie-tol", "0.3"]],
    "RSI": [
        ["--input", "@kendall6.csv", "--kappa", "2/1"],
        ["--input", "@a6.csv", "--kappa", "3/2"],
    ],
    "IIC": [["--input", "@iic4.csv", "--cell", "3,4", "--value", "4", "--pair", "1,2"]],
    "RES": [["--input", "@a6.csv", "--pair", "2,3", "--increase", "9"]],
}


def _check_argvs():
    for axiom in AXIOM_TOKENS:
        for method in ALL_METHOD_TOKENS:
            for tail in CHECK_ARGS[axiom]:
                for fmt in ("text", "json"):
                    yield ["check", "--method", method, "--axiom", axiom, *tail, "--format", fmt]


def _falsify_argvs():
    for method in ALL_METHOD_TOKENS:
        for axiom in AXIOM_TOKENS:
            yield ["falsify", "--method", method, "--axiom", axiom,
                   "--trials", "200", "--seed", "42"]


def _rank_argvs():
    for method in ALL_METHOD_TOKENS:
        for tail in ([], ["--format", "json"], ["--tie-tol", "0.05"], ["--tie-tol", "0"]):
            yield ["rank", "--method", method, "--input", "@near_tie64.csv", *tail]
    yield ["rank", "--method", "em", "--input", LATE_EM]


#: one small and one large input
MATRIX_INPUTS = ("@a6.csv", "@mixed64.csv")
#: its entries are a random draw's to the fifth power: EM mixes slowly and
#: first moves by at most its tolerance at step 485, inside a block
LATE_EM = "@em_late3.csv"
#: every field a rational p/q of the 1-9 scale, so most repeat an earlier one
SAATY = "@saaty64.csv"


def _proof_chain_argvs():
    # equal6.csv is a6.csv with rows 1 and 2 brought to one product, so
    # its chain runs without --equalize
    for path in (*MATRIX_INPUTS, "@equal6.csv"):
        for tail in ([], ["--equalize"]):
            for fmt in ("text", "json"):
                yield ["proof-chain", "--input", path, *tail, "--format", fmt]
    yield ["proof-chain", "--input", SAATY, "--equalize", "--format", "json"]


def _aggregate_argvs():
    for paths in (["@a6.csv"], ["@a6.csv", "@kendall6.csv"],
                  ["@mixed64.csv"], ["@mixed64.csv", "@near_tie64.csv"], [SAATY, "@mixed64.csv"]):
        yield ["aggregate", *(arg for p in paths for arg in ("--input", p))]


def _weights_argvs():
    for path in MATRIX_INPUTS:
        for method in WEIGHT_METHOD_TOKENS:
            yield ["weights", "--method", method, "--input", path, "--format", "json"]
    yield ["weights", "--method", "em", "--input", LATE_EM, "--format", "json"]
    yield ["weights", "--method", "rgm", "--input", SAATY, "--format", "json"]


TRANSCRIPTS = {
    "check": _check_argvs,
    "falsify": _falsify_argvs,
    "lemmas": lambda: (
        ["lemmas", "--method", m, "--trials", trials, "--seed", "42"]
        for trials in ("500", "10000") for m in ALL_METHOD_TOKENS
    ),
    "repro": lambda: [["repro", "--all", "--format", "json"]],
    "rank": _rank_argvs,
    "weights": _weights_argvs,
    "aggregate": _aggregate_argvs,
    "proof-chain": _proof_chain_argvs,
}


def run(argv):
    argv = [str(INPUTS / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _cases():
    for name in TRANSCRIPTS:
        path = GOLDEN / f"{name}.json"
        if not path.exists():  # being written; the coverage test fails meanwhile
            continue
        for k, entry in enumerate(json.loads(path.read_text())):
            yield pytest.param(entry, id=f"{name}-{k}")


@pytest.mark.parametrize("entry", list(_cases()))
def test_stdout_matches_transcript(entry):
    code, out = run(entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


def test_transcripts_cover_every_argv():
    for name, argvs in TRANSCRIPTS.items():
        recorded = [e["argv"] for e in json.loads((GOLDEN / f"{name}.json").read_text())]
        assert recorded == list(argvs()), name


def _near_tie_weights() -> np.ndarray:
    # relative gaps cycle through near-ties at 1e-9, chains that only
    # close transitively, and clear gaps, so every tolerance groups
    # differently
    gaps = np.resize([0.4e-9, 0.9e-9, 3e-9, 0.03, 0.045, 0.2, 0.0, 1e-12], 63)
    return np.concatenate([[1.0], np.cumprod(1.0 + gaps)])[::-1].copy()


def _mixed_csv(rng: np.random.Generator, n: int) -> str:
    """A reciprocal matrix as a hand-written file holds it: each upper cell
    a rational p/q or a 17-digit decimal, its lower cell the reciprocal in
    the same form."""
    text = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                p, q = (int(x) for x in rng.integers(1, 10, size=2))
                text[i][j], text[j][i] = f"{p}/{q}", f"{q}/{p}"
            else:
                x = float(np.exp(rng.uniform(-np.log(9.0), np.log(9.0))))
                text[i][j], text[j][i] = f"{x:.17g}", f"{1.0 / x:.17g}"
    return "\n".join(",".join(row) for row in text) + "\n"


def _saaty_csv(rng: np.random.Generator, n: int) -> str:
    """A reciprocal matrix on Saaty's 1-9 scale, every field a rational:
    each upper cell k/1 or 1/k for k in 1..9, its lower cell the literal
    turned over, and 1/1 on the diagonal."""
    text = [["1/1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = int(rng.integers(1, 10))
            p, q = (k, 1) if rng.random() < 0.5 else (1, k)
            text[i][j], text[j][i] = f"{p}/{q}", f"{q}/{p}"
    return "\n".join(",".join(row) for row in text) + "\n"


def write_inputs() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    a6 = np.exp(np.random.default_rng(0).uniform(-2.2, 2.2, (6, 6)))
    w = _near_tie_weights()
    mats = {
        "a6": PCM.from_upper(a6),
        "kendall6": KENDALL6,
        "iic4": IIC4,
        "ai_arith1": ARITH_AI_A1,
        "ai_arith2": ARITH_AI_A2,
        "ai_fav1": FAVPROD_AI_A1,
        "ai_fav2": FAVPROD_AI_A2,
        "near_tie64": PCM.from_upper(w[:, None] / w[None, :]),
        "equal6": equalize_pair(PCM.from_upper(a6), 0, 1),
        "em_late3": PCM.from_upper(
            np.exp(5.0 * np.random.default_rng(7).uniform(-np.log(9.0), np.log(9.0), (3, 3)))
        ),
    }
    for name, m in mats.items():
        (INPUTS / f"{name}.csv").write_text(pcm_to_csv(m))
    (INPUTS / "mixed64.csv").write_text(_mixed_csv(np.random.default_rng(64), 64))
    (INPUTS / "saaty64.csv").write_text(_saaty_csv(np.random.default_rng(9), 64))


def write_transcripts() -> None:
    for name, argvs in TRANSCRIPTS.items():
        entries = []
        for argv in argvs():
            code, out = run(argv)
            entries.append({"argv": argv, "exit": code, "stdout": out})
        (GOLDEN / f"{name}.json").write_text(json.dumps(entries, indent=1) + "\n")
        print(f"{name}: {len(entries)} transcripts", file=sys.stderr)


if __name__ == "__main__":
    write_inputs()
    write_transcripts()
