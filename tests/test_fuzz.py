"""Fuzz test of the command line's error contract.

For any CSV text and any argv, ``pcmrank`` either exits 0, or exits 2 with
empty stdout and exactly one stderr line starting ``error: ``; a numpy
warning would be more stderr lines, so none may be raised.  Running the
same argv twice gives the same stdout.
"""

import contextlib
import io
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcmrank.cli import ALL_METHOD_TOKENS, AXIOM_TOKENS, main
from pcmrank.registry import CASE_IDS

INPUTS = Path(__file__).parent / "golden" / "inputs"
FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return {"tmp": tmp, "csv": tmp / "fuzz.csv"}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_contract(argv):
    code, out, err, caught = run(argv)
    assert not caught, (argv, caught)
    if code != 0:
        assert code == 2, (argv, code, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert run(argv)[:2] == (code, out), argv
    return code


# --- CSV text ------------------------------------------------------------

def _decimal():
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(min_value=1e-3, max_value=1e3).map(lambda x: f"{x:.6g}"),
        st.sampled_from(["1", "2", "0.5", "1e308", "1e-308", "5e-324", "-1", "0", "inf",
                         "nan", "1e400", "0x10", "1_0", " 3 "]),
    )


def _rational():
    big = st.integers(-3, 10**400)
    return st.builds(lambda p, q: f"{p}/{q}", big, big)


FIELD = st.one_of(_decimal(), _rational(), st.sampled_from(["", " ", "/", "1/", "a", "1/2/3"]),
                  st.text(alphabet="0123456789./-+eE ", max_size=6))


def _reciprocal(field: str) -> str:
    num, slash, den = field.partition("/")
    if slash:
        return f"{den}/{num}"
    try:
        return repr(1.0 / float(field))
    except (ValueError, ZeroDivisionError):
        return field


@st.composite
def csv_text(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):  # reciprocal, so that parsing gets past the grid checks
        up = [[draw(st.one_of(_decimal(), _rational())) for _ in range(n)] for _ in range(n)]
        rows = [["1" if i == j else up[i][j] if i < j else _reciprocal(up[j][i])
                 for j in range(n)] for i in range(n)]
    else:
        rows = [draw(st.lists(FIELD, min_size=max(n - 1, 0), max_size=n + 1)) for _ in range(n)]
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return sep.join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))


@FUZZ
@given(text=csv_text(), command=st.sampled_from([
    ["weights", "--method", "rgm"], ["weights", "--method", "em", "--format", "json"],
    ["rank", "--method", "favprod"], ["rank", "--method", "arith", "--format", "json"],
    ["check", "--method", "col1", "--axiom", "INV"], ["proof-chain", "--equalize"],
    ["aggregate", "--input", str(INPUTS / "ai_arith1.csv")],
]))
def test_any_csv_text_keeps_the_contract(files, text, command):
    files["csv"].write_text(text)
    assert_contract(command + ["--input", str(files["csv"])])


# --- argv ------------------------------------------------------------------

BAD_NUMBERS = ["-1", "0", "abc", "inf", "-inf", "nan", "1e400", ""]
FILES = ["a6.csv", "iic4.csv", "kendall6.csv", "ai_arith1.csv", "near_tie64.csv", "missing.csv"]


def _value(good):
    return st.one_of(st.sampled_from(good), st.sampled_from(BAD_NUMBERS))


def _input():
    return st.sampled_from(FILES).map(lambda name: str(INPUTS / name))


def _options(draw, spec):
    argv = []
    for flag, values in spec.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


TOL = {
    "--tie-tol": _value(["1e-9", "0", "0.05", "10"]),
    "--reciprocity-tol": _value(["1e-6", "1"]),
    "--em-max-iterations": _value(["1", "50", "10000"]),
    "--em-tol": _value(["1e-12", "1e-3"]),
    "--format": st.sampled_from(["text", "json", "xml"]),
}
#: the options of TOL that each subcommand reads; any other exits 2
TAKES = {
    "weights": {"--reciprocity-tol", "--em-max-iterations", "--em-tol", "--format"},
    "rank": set(TOL),
    "aggregate": {"--reciprocity-tol"},
    "check": set(TOL),
    "falsify": {"--tie-tol", "--em-max-iterations", "--em-tol", "--format"},
    "lemmas": {"--tie-tol", "--em-max-iterations", "--em-tol", "--format"},
    "repro": {"--format"},
    "proof-chain": {"--reciprocity-tol", "--format"},
}
SEARCH = {
    "--trials": _value(["1", "3", "12"]),
    "--seed": _value(["0", "42", "-7", str(2**70)]),
    "--n-min": _value(["2", "3", "4", "65"]),
    "--n-max": _value(["2", "5", "16", "64", "100"]),
}
CHECK = {
    "--perm": st.sampled_from(["2,1,3", "2,3,1,5,4,6", "1,1,2", "0,1,2", "x", "2,1,4,3"]),
    "--input2": _input(),
    "--kappa": st.sampled_from(["2/1", "1/3", "0/1", "1/0", "abc", str(10**400), "10000/1"]),
    "--cell": st.sampled_from(["3,4", "1,1", "0,2", "5,9", "1,2,3", "x"]),
    "--value": _value(["4", "0.25", "1e300", "5e-324"]),
    "--pair": st.sampled_from(["1,2", "2,3", "1,1", "0,1", "7,1"]),
    "--increase": _value(["9", "1e308", "5e-324"]),
}

NEEDS = {"ANO": ["--perm"], "AI": ["--input2"], "RSI": ["--kappa"],
         "IIC": ["--cell", "--value", "--pair"], "RES": ["--pair", "--increase"]}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["weights", "rank", "aggregate", "check", "falsify", "lemmas", "repro", "proof-chain"]))
    method = ["--method", draw(st.sampled_from(ALL_METHOD_TOKENS + ("mean",)))]
    argv = [command]
    if command in ("weights", "rank", "check", "proof-chain", "aggregate"):
        argv += ["--input", draw(_input())]
    if command in ("weights", "rank"):
        argv += method
    elif command == "aggregate":
        argv += ["--input", draw(_input())]
        if draw(st.booleans()):
            tmp = draw(st.sampled_from(["out.csv", "missing/out.csv", "."]))
            argv += ["-o", f"{{tmp}}/{tmp}"]
    elif command == "check":
        axiom = draw(st.sampled_from(AXIOM_TOKENS + ("XYZ",)))
        argv += method + ["--axiom", axiom]
        for flag in NEEDS.get(axiom, ()):  # mostly given, then perhaps overridden
            if draw(st.integers(0, 9)):
                argv += [flag, draw(CHECK[flag])]
        argv += _options(draw, CHECK)
    elif command in ("falsify", "lemmas"):
        argv += method + _options(draw, SEARCH)
        if command == "falsify":
            argv += ["--axiom", draw(st.sampled_from(AXIOM_TOKENS))]
        for flag in ("--trials", "--seed"):  # required, so mostly present
            if flag not in argv and draw(st.integers(0, 9)):
                argv += [flag, "3" if flag == "--trials" else "1"]
    elif command == "repro":
        argv += draw(st.sampled_from([["--all"], ["--case", CASE_IDS[0]], ["--case", "nope"], []]))
    elif command == "proof-chain" and draw(st.booleans()):
        argv += ["--equalize"]
    argv += _options(draw, {flag: TOL[flag] for flag in TOL if flag in TAKES[command]})
    foreign = [flag for flag in TOL if flag not in TAKES[command]]
    if foreign and draw(st.integers(0, 9)) == 9:  # now and then one the subcommand does not take
        flag = draw(st.sampled_from(foreign))
        argv += [flag, draw(TOL[flag])]
    return argv


@FUZZ
@given(argv=argvs())
@example(argv=["check", "--input", str(INPUTS / "a6.csv"), "--method", "rgm", "--axiom", "RSI",
               "--kappa", str(10**400)])
@example(argv=["aggregate", "--input", str(INPUTS / "a6.csv"), "--tie-tol", "1e-9"])
def test_any_argv_keeps_the_contract(files, argv):
    code = assert_contract([arg.format(tmp=files["tmp"]) for arg in argv])
    if any(flag in argv for flag in TOL if flag not in TAKES[argv[0]]):
        assert code == 2, argv
