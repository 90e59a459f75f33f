"""The benchmark's three workloads.

Each workload turns a seed into a fixed op list (``build``), runs one op
(``run``, the only timed call) and checks the op's output (``check``,
untimed).  Every run of a seed executes the same list, so two runs differ
only in timing.

- ``audit_rgm``: one op audits the row geometric mean against all six
  axioms with the falsifier (the acceptance distribution: n 2-6, IIC 4-6,
  entries up to 9).  By the paper's theorem no op may find a witness.
  Trial draw, PCM construction, transforms, RGM ranking and the checks'
  pair loops do all the work; EM, shrinking, parsing and argparse none.
- ``hunt_witness``: one op is one falsify call on one of 13 failing
  (method, axiom) pairs, taken in a fixed cycle.  Violations come within
  the first few trials, so witness shrinking and EM power iteration
  dominate.  Every witness must replay as a violation.  Op costs are
  heavy-tailed (1 ms to 1 s), so the falsify seeds are a fixed pool and
  the workload seed only orders the rounds: with falsify seeds drawn from
  the workload seed, ops/s moved by a quarter from one seed to the next.
- ``cli_session``: one op is one in-process ``pcmrank.cli.main`` call on
  matrix files with n in {3, 6, 16, 64}.  Argparse, CSV parsing, ranking
  and file I/O do the work; the falsifier does none.  Weights printed as
  JSON for rgm and em are checked against an independent numpy oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pcmrank
from pcmrank import AxiomId, MethodId, NoConvergence, SearchConfig, replay, witness_json_dict

# ops call pcmrank.falsify and pcmrank.cli.main through their modules, so
# the tracing shim, which rebinds module attributes, sees those calls

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    index: int
    label: str
    args: tuple


@dataclass(frozen=True)
class Outcome:
    """What ``check`` made of one op's output.

    ``failure`` names why the op failed, or is None.  ``correct`` is False
    only for output that is wrong; an op may fail with ``correct`` True
    when it raised the documented EM budget error (``NoConvergence``),
    which counts against the error ratio but is not a wrong answer.
    """

    digest: str
    failure: str | None = None
    correct: bool = True


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _raised(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**31, size=count)]


class AuditRgm:
    name = "audit_rgm"
    trials = 12  # per axiom and op
    ops = 160
    tail_pct = 98
    min_passes = 4  # 640 samples: 12 beyond p98

    def build(self, seed: int, workdir: Path) -> list[Op]:
        return [Op(k, f"rgm/all seed={s}", (s,)) for k, s in enumerate(_seeds(seed, self.ops))]

    def run(self, op: Op):
        cfg = SearchConfig(seed=op.args[0], trials=self.trials)
        return [pcmrank.falsify(MethodId.RGM, axiom, cfg) for axiom in AxiomId]

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, BaseException):
            return Outcome(_sha(_raised(result)), _raised(result), False)
        found = [w for w in result if w is not None]
        digest = _sha(json.dumps([w and witness_json_dict(w) for w in result]))
        if found:
            return Outcome(digest, f"rgm witness for {found[0].axiom.value}", False)
        return Outcome(digest)


HUNT_PAIRS = (
    ("em", "AI"), ("em", "INV"), ("em", "RSI"), ("em", "IIC"),
    ("arith", "AI"), ("arith", "INV"), ("arith", "RSI"),
    ("col1", "ANO"), ("favprod", "AI"), ("favprod", "INV"),
    ("flat", "RES"), ("index", "ANO"), ("index", "INV"),
)


class HuntWitness:
    name = "hunt_witness"
    trials = 2000  # budget; violations come within the first few hundred trials
    rounds = 20  # falsify seeds 0..rounds-1 for every pair
    tail_pct = 99
    min_passes = 5  # 1300 samples: 13 beyond p99

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rounds = np.random.default_rng(seed).permutation(self.rounds)
        calls = [(m, a, int(r)) for r in rounds for m, a in HUNT_PAIRS]
        return [Op(k, f"{m}/{a} seed={s}", (m, a, s)) for k, (m, a, s) in enumerate(calls)]

    def run(self, op: Op):
        m, a, s = op.args
        return pcmrank.falsify(MethodId(m), AxiomId(a), SearchConfig(seed=s, trials=self.trials))

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, NoConvergence) and op.args[0] == "em":
            return Outcome(_sha(_raised(result)), _raised(result), True)
        if isinstance(result, BaseException):
            return Outcome(_sha(_raised(result)), _raised(result), False)
        if result is None:
            return Outcome(_sha("None"), f"no witness in {self.trials} trials", False)
        digest = _sha(json.dumps(witness_json_dict(result)))
        try:
            replayed = replay(result)
        except Exception as exc:  # a witness that cannot be replayed is wrong
            return Outcome(digest, f"replay {_raised(exc)}", False)
        if replayed.holds:
            return Outcome(digest, "witness does not replay", False)
        return Outcome(digest)


CLI_SIZES = (3, 6, 16, 64)
WEIGHT_METHODS = ("rgm", "em", "arith", "col1", "favprod")


def _write_matrix(rng: np.random.Generator, n: int, path: Path) -> np.ndarray:
    """Write a random reciprocal matrix in the CSV format and return the
    matrix pcm_parse must produce from it.  Each upper cell is either a
    rational p/q or a 17-digit decimal; the lower cell is its reciprocal
    in the same form."""
    a = np.ones((n, n))
    text = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                p, q = (int(x) for x in rng.integers(1, 10, size=2))
                text[i][j], text[j][i] = f"{p}/{q}", f"{q}/{p}"
                a[i, j] = p / q
            else:
                x = float(np.exp(rng.uniform(-math.log(9.0), math.log(9.0))))
                text[i][j], text[j][i] = f"{x:.17g}", f"{1.0 / x:.17g}"
                a[i, j] = float(f"{x:.17g}")
            a[j, i] = 1.0 / a[i, j]
    path.write_text("\n".join(",".join(row) for row in text) + "\n")
    return a


def _oracle(method: str, a: np.ndarray) -> np.ndarray:
    if method == "rgm":
        g = np.exp(np.log(a).mean(axis=1))
        return g / g.sum()
    values, vectors = np.linalg.eig(a)
    v = np.abs(np.real(vectors[:, int(np.argmax(np.real(values)))]))
    return v / v.sum()


class CliSession:
    name = "cli_session"
    tail_pct = 99
    min_passes = 20  # 1160 samples: 11 beyond p99

    def build(self, seed: int, workdir: Path) -> list[Op]:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []

        def add(argv, oracle=None, output=None):
            ops.append((argv, oracle, output))

        for n in CLI_SIZES:
            a_path, b_path = workdir / f"m{n}a.csv", workdir / f"m{n}b.csv"
            a = _write_matrix(rng, n, a_path)
            _write_matrix(rng, n, b_path)
            fa, fb = os.path.relpath(a_path), os.path.relpath(b_path)
            for m in WEIGHT_METHODS:
                oracle = _oracle(m, a) if m in ("rgm", "em") else None
                add(["weights", "--method", m, "--input", fa, "--format", "json"], oracle)
                add(["rank", "--method", m, "--input", fa])
            add(["check", "--method", "em", "--axiom", "INV", "--input", fa])
            add(["check", "--method", "rgm", "--input", fa] + _rgm_check_args(rng, n, a))
            if n == 16:
                add(["check", "--method", "arith", "--axiom", "AI", "--input", fa, "--input2", fb])
            out = os.path.relpath(workdir / f"agg{n}.csv")
            add(["aggregate", "--input", fa, "--input", fb, "-o", out], output=out)
            add(["proof-chain", "--input", fa, "--equalize"])
        add(["repro", "--all"])
        order = rng.permutation(len(ops))
        return [
            Op(k, " ".join(ops[i][0][:3]), ops[i])
            for k, i in enumerate(int(x) for x in order)
        ]

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pcmrank.cli.main(list(op.args[0]))
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, BaseException):
            return Outcome(_sha(_raised(result)), _raised(result), False)
        argv, oracle, output = op.args
        code, stdout, stderr = result
        written = Path(output).read_text() if output and code == 0 else ""
        digest = _sha(json.dumps([code, stdout, stderr, written]))
        if code != 0:
            return Outcome(digest, f"exit {code}: {stderr.strip()}", False)
        if oracle is not None:
            try:
                got = np.asarray(json.loads(stdout)["weights"], dtype=float)
            except (ValueError, KeyError, TypeError):
                return Outcome(digest, "weights output is not the JSON shape", False)
            if got.shape != oracle.shape:
                return Outcome(digest, f"{got.size} weights for n = {oracle.size}", False)
            gap = float(np.max(np.abs(got - oracle)))
            if not gap <= ORACLE_TOL:
                return Outcome(digest, f"weights off the numpy oracle by {gap:.3g}", False)
        return Outcome(digest)


def _rgm_check_args(rng: np.random.Generator, n: int, a: np.ndarray) -> list[str]:
    """An RGM axiom check with inputs drawn from ``rng``: RSI at n = 3,
    ANO at 6, IIC at 16 and RES at 64."""
    if n == 3:
        p, q = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        return ["--axiom", "RSI", "--kappa", f"{p}/{q}"]
    if n == 6:
        perm = rng.permutation(n) + 1
        return ["--axiom", "ANO", "--perm", ",".join(str(int(x)) for x in perm)]
    picks = [int(x) + 1 for x in rng.permutation(n)[:4]]
    if n == 16:
        value = float(np.exp(rng.uniform(-2.0, 2.0)))
        return ["--axiom", "IIC", "--pair", f"{picks[0]},{picks[1]}",
                "--cell", f"{picks[2]},{picks[3]}", "--value", f"{value:.17g}"]
    i, j = picks[0], picks[1]
    raised = a[i - 1, j - 1] * float(np.exp(rng.uniform(0.1, 2.0)))
    return ["--axiom", "RES", "--pair", f"{i},{j}", "--increase", f"{raised:.17g}"]


WORKLOADS = {w.name: w for w in (AuditRgm(), HuntWitness(), CliSession())}
