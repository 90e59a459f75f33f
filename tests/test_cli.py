import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcmrank
from pcmrank.cli import main

KENDALL_CSV = (
    "1,2,2,1/2,2,2\n"
    "1/2,1,1/2,2,2,1/2\n"
    "1/2,2,1,2,2,2\n"
    "2,1/2,1/2,1,1/2,1/2\n"
    "1/2,1/2,1/2,2,1,2\n"
    "1/2,2,1/2,2,1/2,1\n"
)

CONSISTENT_CSV = "1,2,4\n1/2,1,2\n1/4,1/2,1\n"
IIC4_CSV = "1,1,1,3\n1,1,2,1\n1,1/2,1,1\n1/3,1,1,1\n"


@pytest.fixture
def kendall(tmp_path):
    path = tmp_path / "kendall6.csv"
    path.write_text(KENDALL_CSV)
    return str(path)


@pytest.fixture
def consistent(tmp_path):
    path = tmp_path / "consistent.csv"
    path.write_text(CONSISTENT_CSV)
    return str(path)


@pytest.fixture
def iic4(tmp_path):
    path = tmp_path / "iic4.csv"
    path.write_text(IIC4_CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeights:
    def test_em_json_matches_published(self, capsys, kendall):
        code, out, _ = run(capsys, "weights", "--method", "em", "--input", kendall,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "em" and payload["n"] == 6
        assert np.allclose(payload["weights"],
                           [0.2286, 0.1430, 0.2102, 0.1321, 0.1430, 0.1430], atol=5e-5)
        assert payload["lambda_max"] > 6

    def test_rgm_text(self, capsys, consistent):
        code, out, _ = run(capsys, "weights", "--method", "rgm", "--input", consistent)
        assert code == 0
        assert "method: rgm" in out and "w[1] =" in out and "lambda_max" not in out

    def test_em_text_reports_lambda_max(self, capsys, consistent):
        code, out, _ = run(capsys, "weights", "--method", "em", "--input", consistent)
        assert code == 0
        assert out.splitlines()[-1] == "lambda_max = 3"

    def test_rejects_rank_only_method(self, capsys, consistent):
        code, _, _ = run(capsys, "weights", "--method", "flat", "--input", consistent)
        assert code == 2


class TestRank:
    def test_text_order(self, capsys, kendall):
        code, out, _ = run(capsys, "rank", "--method", "em", "--input", kendall)
        assert code == 0
        assert "ranking (best first): 1 > 3 > 2 ~ 5 ~ 6 > 4" in out

    def test_json_fragment(self, capsys, kendall):
        code, out, _ = run(capsys, "rank", "--method", "em", "--input", kendall,
                           "--format", "json")
        payload = json.loads(out)
        assert list(payload) == ["rank", "groups"]
        assert payload["rank"] == [0, 2, 1, 3, 2, 2]

    def test_index_order(self, capsys, consistent):
        _, out, _ = run(capsys, "rank", "--method", "index", "--input", consistent)
        assert "1 > 2 > 3" in out


class TestAggregate:
    def test_aggregate_with_opposite_yields_ones(self, capsys, tmp_path, consistent):
        flipped = tmp_path / "opposite.csv"
        rows = CONSISTENT_CSV.strip().split("\n")
        grid = [r.split(",") for r in rows]
        transposed = "\n".join(",".join(grid[j][i] for j in range(3)) for i in range(3))
        flipped.write_text(transposed + "\n")
        code, out, _ = run(capsys, "aggregate", "--input", consistent,
                           "--input", str(flipped))
        assert code == 0
        values = [float(x) for line in out.strip().split("\n") for x in line.split(",")]
        assert np.max(np.abs(np.array(values) - 1.0)) <= 1e-12

    def test_output_file(self, capsys, tmp_path, consistent):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "aggregate", "--input", consistent,
                           "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("1,")


class TestCheck:
    def test_ano_holds(self, capsys, consistent):
        code, out, _ = run(capsys, "check", "--method", "rgm", "--axiom", "ANO",
                           "--input", consistent, "--perm", "2,1,3")
        assert code == 0 and "holds" in out

    def test_iic_violated(self, capsys, iic4):
        code, out, _ = run(capsys, "check", "--method", "em", "--axiom", "IIC",
                           "--input", iic4, "--cell", "3,4", "--value", "4",
                           "--pair", "1,2")
        assert code == 0 and "VIOLATED" in out

    def test_rsi_with_kappa(self, capsys, kendall):
        code, out, _ = run(capsys, "check", "--method", "em", "--axiom", "RSI",
                           "--input", kendall, "--kappa", "2/1", "--format", "json")
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["witness"]["aux"]["pair"] == [1, 3]

    def test_res_needs_flags(self, capsys, consistent):
        code, _, err = run(capsys, "check", "--method", "rgm", "--axiom", "RES",
                           "--input", consistent)
        assert code == 2 and "RES needs" in err

    def test_res_not_an_increase_quotes_the_entry_as_a_number(self, capsys, consistent):
        # numpy 2 quoted the entry as np.float64(2.0), numpy 1 as 2.0
        code, out, err = run(capsys, "check", "--method", "rgm", "--axiom", "RES",
                             "--pair", "1,2", "--increase", "1", "--input", consistent)
        assert (code, out, err) == (2, "", "error: 1.0 does not exceed a[1][2] = 2.0\n")

    def test_a_pair_that_is_not_integers(self, capsys, consistent):
        code, out, err = run(capsys, "check", "--method", "rgm", "--axiom", "RES",
                             "--pair", "1,x", "--increase", "3", "--input", consistent)
        assert (code, out) == (2, "")
        assert err == "error: bad --pair '1,x': expected 2 comma-separated integers\n"

    def test_bad_perm_length(self, capsys, consistent):
        code, _, _ = run(capsys, "check", "--method", "rgm", "--axiom", "ANO",
                         "--input", consistent, "--perm", "2,1")
        assert code == 2


class TestFalsify:
    def test_rgm_clean(self, capsys):
        code, out, _ = run(capsys, "falsify", "--method", "rgm", "--axiom", "AI",
                           "--trials", "100", "--seed", "7")
        assert code == 0 and "no witness found" in out

    def test_deterministic_stdout(self, capsys):
        args = ("falsify", "--method", "col1", "--axiom", "ANO",
                "--trials", "2000", "--seed", "7", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["witness"] is not None

    def test_em_inv_witness_found(self, capsys):
        code, out, _ = run(capsys, "falsify", "--method", "em", "--axiom", "INV",
                           "--trials", "2000", "--seed", "42")
        assert code == 0 and "witness found" in out


class TestLemmas:
    def test_first_column_vacuous(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--method", "col1",
                           "--trials", "1500", "--seed", "42")
        assert code == 0
        assert "ANO: violated" in out and "(vacuous)" in out

    def test_rgm_consistent_json(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--method", "rgm",
                           "--trials", "200", "--seed", "42", "--format", "json")
        payload = json.loads(out)
        assert payload["premise"] == {"ano_holds": True, "ai_holds": True}
        assert all(v["status"] == "consistent" for v in payload["implications"].values())


class TestRepro:
    def test_all_cases_pass(self, capsys):
        code, out, _ = run(capsys, "repro", "--all")
        assert code == 0
        assert "8/8 cases reproduce" in out

    def test_single_case(self, capsys):
        code, out, _ = run(capsys, "repro", "--case", "prop51-rsi-kendall")
        assert code == 0 and "ok" in out

    def test_unknown_case_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "repro", "--case", "bogus")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "repro", "--all", "--format", "json")
        reports = json.loads(out)
        assert len(reports) == 8 and all(r["ok"] for r in reports)


class TestProofChain:
    def test_requires_equal_rows(self, capsys, kendall):
        code, _, err = run(capsys, "proof-chain", "--input", kendall)
        assert code == 2 and "row products" in err

    def test_equalize_then_build(self, capsys, kendall):
        code, out, _ = run(capsys, "proof-chain", "--input", kendall,
                           "--equalize", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["alpha", "B", "C", "D", "E", "identities"]
        assert payload["identities"]["inv_swap"] is True
        assert payload["identities"]["swap_power_aggregate"] is True

    def test_text_output(self, capsys, consistent):
        code, out, _ = run(capsys, "proof-chain", "--input", consistent, "--equalize")
        assert code == 0 and "identity inv_swap: pass" in out


class TestUsageAndLimits:
    def test_unknown_method(self, capsys, consistent):
        code, _, _ = run(capsys, "rank", "--method", "borda", "--input", consistent)
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_oversized_matrix_rejected(self, capsys, tmp_path):
        n = 65
        path = tmp_path / "big.csv"
        path.write_text("\n".join(",".join("1" for _ in range(n)) for _ in range(n)))
        code, _, err = run(capsys, "rank", "--method", "rgm", "--input", str(path))
        assert code == 2 and "65" in err

    def test_oversized_file_rejected_before_its_fields_are_read(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("\n".join([",".join(["1"] * 1000)] * 1000) + "\n")
        code, out, err = run(capsys, "rank", "--method", "rgm", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: 1000 alternatives exceed the CLI limit of 64\n"

    def test_oversized_and_malformed_file_reports_the_limit(self, capsys, tmp_path):
        # rows are counted as the parser counts them: blank lines do not count
        path = tmp_path / "big.csv"
        path.write_text("\n\n".join(["1,abc"] + ["1"] * 64) + "\n  \n")
        code, _, err = run(capsys, "weights", "--method", "rgm", "--input", str(path))
        assert code == 2
        assert err == f"error: {path}: 65 alternatives exceed the CLI limit of 64\n"

    def test_reciprocity_error_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,4\n0.3,1\n")
        code, _, err = run(capsys, "rank", "--method", "rgm", "--input", str(path))
        assert code == 2 and "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "rank", "--method", "rgm", "--input", "no-such.csv")
        assert code == 2 and "cannot read" in err


class TestTieTolEnv:
    def test_env_var_applies(self, capsys, monkeypatch, consistent):
        monkeypatch.setenv("PCMRANK_TIE_TOL", "10.0")
        _, out, _ = run(capsys, "rank", "--method", "rgm", "--input", consistent)
        assert "1 ~ 2 ~ 3" in out  # everything ties under a huge tolerance

    def test_flag_beats_env(self, capsys, monkeypatch, consistent):
        monkeypatch.setenv("PCMRANK_TIE_TOL", "10.0")
        _, out, _ = run(capsys, "rank", "--method", "rgm", "--input", consistent,
                        "--tie-tol", "1e-9")
        assert "1 > 2 > 3" in out

    def test_bad_env_value(self, capsys, monkeypatch, consistent):
        monkeypatch.setenv("PCMRANK_TIE_TOL", "soft")
        code, _, err = run(capsys, "rank", "--method", "rgm", "--input", consistent)
        assert code == 2 and "PCMRANK_TIE_TOL" in err


BIG = "1" + "0" * 399


class TestErrorContract:
    """Bad settings and inputs exit 2 with one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["falsify", "--method", "rgm", "--axiom", "INV", "--trials", "0", "--seed", "1"],
        ["falsify", "--method", "rgm", "--axiom", "INV", "--trials", "5", "--seed", "1",
         "--n-max", "100"],
        ["falsify", "--method", "rgm", "--axiom", "INV", "--trials", "5", "--seed", "1",
         "--tie-tol", "-1"],
        ["rank", "--method", "rgm", "--input", "{kendall}", "--tie-tol", "nan"],
        ["weights", "--method", "em", "--input", "{kendall}", "--em-max-iterations", "0"],
        ["check", "--method", "em", "--axiom", "RSI", "--input", "{kendall}", "--kappa", "abc"],
        ["check", "--method", "rgm", "--axiom", "ANO", "--input", "{consistent}",
         "--perm", "1,1,2"],
        # an index beyond numpy's integer range once ended in an OverflowError traceback
        ["check", "--method", "rgm", "--axiom", "ANO", "--input", "{consistent}",
         "--perm", "1,2,99999999999999999999"],
        ["check", "--method", "rgm", "--axiom", "IIC", "--input", "{iic4}", "--cell", "3,4",
         "--value", "1", "--pair", "1,2"],
        ["rank", "--method", "rgm", "--input", "{consistent}", "--reciprocity-tol", "0"],
        ["rank", "--method", "rgm", "--input", "{huge}"],
        ["rank", "--method", "flat", "--input", "{consistent}", "--tie-tol", "-1"],
        ["rank", "--method", "index", "--input", "{consistent}", "--tie-tol", "nan"],
        ["check", "--method", "flat", "--axiom", "INV", "--input", "{consistent}",
         "--tie-tol", "-1"],
        ["check", "--method", "index", "--axiom", "INV", "--input", "{consistent}",
         "--tie-tol", "nan"],
        ["falsify", "--method", "index", "--axiom", "ANO", "--trials", "5", "--seed", "0",
         "--tie-tol", "-1"],
        ["falsify", "--method", "flat", "--axiom", "RES", "--trials", "5", "--seed", "0",
         "--tie-tol", "nan"],
        ["lemmas", "--method", "flat", "--trials", "5", "--seed", "0", "--tie-tol", "-1"],
        ["lemmas", "--method", "index", "--trials", "5", "--seed", "0", "--tie-tol", "nan"],
        ["PCMRANK_TIE_TOL=-1", "rank", "--method", "flat", "--input", "{consistent}"],
        ["PCMRANK_TIE_TOL=-1", "falsify", "--method", "index", "--axiom", "INV",
         "--trials", "5", "--seed", "0"],
        ["aggregate", "--input", "{consistent}", "-o", "{tmp}/missing/out.csv"],
        ["aggregate", "--input", "{consistent}", "-o", "{tmp}"],
        ["falsify", "--method", "rgm", "--axiom", "INV", "--trials", "abc", "--seed", "1"],
        ["check", "--method", "rgm", "--axiom", "RSI", "--input", "{kendall}",
         "--kappa", f"{BIG}/1"],
        ["proof-chain", "--equalize", "--input", "{lopsided}"],
        ["weights", "--method", "rgm", "--input", "{consistent}", "--tie-tol", "1e-9"],
        ["aggregate", "--input", "{consistent}", "--tie-tol", "1e-9"],
        ["aggregate", "--input", "{consistent}", "--em-max-iterations", "50"],
        ["aggregate", "--input", "{consistent}", "--em-tol", "1e-12"],
        ["falsify", "--method", "rgm", "--axiom", "INV", "--trials", "5", "--seed", "1",
         "--reciprocity-tol", "1e-6"],
        ["lemmas", "--method", "rgm", "--trials", "5", "--seed", "1",
         "--reciprocity-tol", "1e-6"],
        ["proof-chain", "--input", "{consistent}", "--equalize", "--tie-tol", "1e-9"],
        ["proof-chain", "--input", "{consistent}", "--equalize", "--em-max-iterations", "50"],
        ["proof-chain", "--input", "{consistent}", "--equalize", "--em-tol", "1e-12"],
    ], ids=["trials-0", "n-max-100", "tie-tol-negative", "tie-tol-nan", "em-iterations-0",
            "kappa-abc", "perm-repeats", "perm-beyond-int64", "iic-unchanged-value",
            "reciprocity-tol-0",
            "400-digit-rational", "rank-flat-tie-tol-negative", "rank-index-tie-tol-nan",
            "check-flat-tie-tol-negative", "check-index-tie-tol-nan",
            "falsify-index-tie-tol-negative", "falsify-flat-tie-tol-nan",
            "lemmas-flat-tie-tol-negative", "lemmas-index-tie-tol-nan",
            "env-tie-tol-negative-flat", "env-tie-tol-negative-index",
            "aggregate-output-in-missing-dir", "aggregate-output-is-a-dir",
            "trials-not-a-number", "kappa-too-large", "equalize-overflows",
            "weights-tie-tol", "aggregate-tie-tol", "aggregate-em-max-iterations",
            "aggregate-em-tol", "falsify-reciprocity-tol", "lemmas-reciprocity-tol",
            "proof-chain-tie-tol", "proof-chain-em-max-iterations", "proof-chain-em-tol"])
    def test_exits_2_with_one_error_line(self, capsys, monkeypatch, tmp_path, kendall,
                                         consistent, iic4, argv):
        huge = tmp_path / "huge.csv"
        huge.write_text(f"1,{BIG}/3\n3/{BIG},1\n")
        # rows 1 and 2 differ by a factor 1e1200, whose square root overflows
        lopsided = tmp_path / "lopsided.csv"
        lopsided.write_text("1,1e-300,1e-300\n1e300,1,1e300\n1e300,1e-300,1\n")
        files = {"kendall": kendall, "consistent": consistent, "iic4": iic4, "huge": str(huge),
                 "lopsided": str(lopsided), "tmp": str(tmp_path)}
        while "=" in argv[0]:  # leading NAME=VALUE items set the environment
            name, _, value = argv[0].partition("=")
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        code, out, err = run(capsys, *[arg.format(**files) for arg in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOneParser:
    """``main`` reuses one parser: no call's options leak into the next."""

    def test_input2_does_not_carry_over(self, capsys, consistent):
        head = ("check", "--method", "rgm", "--axiom", "AI", "--input", consistent)
        code, out, _ = run(capsys, *head, "--input2", consistent)
        assert code == 0 and "holds" in out
        code, out, err = run(capsys, *head)
        assert code == 2 and out == ""
        assert err == "error: AI needs at least one --input2 FILE\n"

    def test_identical_calls_print_identical_stdout(self, capsys, kendall):
        argv = ("check", "--method", "em", "--axiom", "RSI", "--input", kendall, "--kappa", "2/1")
        assert run(capsys, *argv) == run(capsys, *argv)


SEARCH_OPTIONS = {"--method", "--trials", "--seed", "--n-min", "--n-max", "--tie-tol",
          "--em-max-iterations", "--em-tol", "--format"}


class TestHelp:
    """Each subcommand lists exactly the options it reads."""

    @pytest.mark.parametrize("command, options", [
        ("weights", {"--method", "--input", "--reciprocity-tol", "--em-max-iterations",
                     "--em-tol", "--format"}),
        ("rank", {"--method", "--input", "--reciprocity-tol", "--tie-tol",
                  "--em-max-iterations", "--em-tol", "--format"}),
        ("aggregate", {"--input", "--output", "--reciprocity-tol"}),
        ("check", {"--method", "--axiom", "--input", "--perm", "--input2", "--kappa", "--cell",
                   "--value", "--pair", "--increase", "--reciprocity-tol", "--tie-tol",
                   "--em-max-iterations", "--em-tol", "--format"}),
        ("falsify", SEARCH_OPTIONS | {"--axiom"}),
        ("lemmas", SEARCH_OPTIONS),
        ("repro", {"--case", "--all", "--format"}),
        ("proof-chain", {"--input", "--equalize", "--reciprocity-tol", "--format"}),
    ])
    def test_lists_exactly_its_options(self, capsys, command, options):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        listed = {flag for line in out.splitlines() if line.startswith("  -")
                  for flag in re.findall(r"--[a-z0-9-]+", line)}
        assert listed == options | {"--help"}


def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path):
    # the witness of 64 alternatives, 85 kB, outgrows a pipe, so the check
    # is still writing when its reader closes the pipe after ten bytes;
    # the index order breaks inversion on any matrix
    grid = np.exp(np.random.default_rng(0).uniform(-20.0, 20.0, (64, 64)))
    path = tmp_path / "long64.csv"
    path.write_text(pcmrank.pcm_to_csv(pcmrank.PCM.from_upper(grid)))
    src = str(Path(pcmrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["check", "--method", "index", "--axiom", "INV", "--input", str(path)]
    proc = subprocess.Popen([sys.executable, "-m", "pcmrank.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc.stderr:
        assert proc.stdout.read(10) == b"axiom INV "
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""
