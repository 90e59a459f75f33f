"""The differential gate, ``gate.py``, which pytest does not collect, run
in-process at a small budget: every pair passes, one line each."""

import gate


def test_the_gate_passes_every_pair_at_twenty_trials(capsys):
    assert gate.main(["--trials", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 43
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1] == "0 of 42 pairs mismatched"


def test_the_gate_passes_every_pair_at_a_starved_em_budget(capsys):
    assert gate.main(["--trials", "20", "--em-max-iterations", "100"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 42 pairs mismatched"
