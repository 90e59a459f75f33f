"""The differential gate, ``gate.py``, which pytest does not collect, run
in-process at a small budget: every pair passes, one line each."""

from pcmrank import axioms

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


def test_the_gate_passes_every_pair_just_above_the_short_em_pass(capsys):
    # shrinking judges EM stacks within _SHORT_EM_STEPS first, then the
    # rows that did not converge there under a full budget barely above it
    budget = axioms._SHORT_EM_STEPS + 44
    assert gate.main(["--trials", "20", "--em-max-iterations", str(budget)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 42 pairs mismatched"


def _gate_schedules(capsys, monkeypatch, trials):
    """Run the gate at ``trials`` trials, check that every pair passes, and
    return the chunk sizes of each search that it runs."""
    chunks, schedules = axioms._chunks, []

    def recorded(n, cap):
        schedules.append([len(c) for c in chunks(n, cap)])
        return chunks(n, cap)

    monkeypatch.setattr(axioms, "_chunks", recorded)
    assert gate.main(["--trials", str(trials)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 42 pairs mismatched"
    return schedules


def test_the_gate_passes_every_pair_at_the_audit_budget(capsys, monkeypatch):
    # audit_rgm's budget, at which every pair's search runs as one chunk
    assert _gate_schedules(capsys, monkeypatch, 12) == [[12]] * 42


def test_the_gate_passes_every_pair_just_above_the_one_chunk_bound(capsys, monkeypatch):
    # the smallest budget that still splits off a one-trial first chunk
    assert _gate_schedules(capsys, monkeypatch, 17) == [[1, 2, 14]] * 42


def test_the_gate_passes_every_pair_across_the_padding_bound(capsys):
    # sizes 5 to 7 share one padded stack, and 8 to 10 keep one stack each
    assert gate.main(["--trials", "20", "--n-min", "5", "--n-max", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 42 pairs mismatched"
