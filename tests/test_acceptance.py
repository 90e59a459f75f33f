"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them)."""

import time

import numpy as np

from pcmrank import (
    PCM,
    AxiomId,
    MethodId,
    PairRelation,
    RationalExponent,
    SearchConfig,
    aggregate,
    build_proof_chain,
    em_weights,
    equalize_pair,
    falsify,
    method_rank,
    opposite,
    pair_relation,
    power,
    replay,
    rgm_weights,
    run_all,
    verify_proof_identities,
    witness_json_dict,
)
from pcmrank.cli import main as cli_main
from pcmrank.registry import IIC4, KENDALL6

from harness import random_pcm


def _conclude(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_kendall_weights_and_rsi_flip():
    start = time.perf_counter()
    w1, _ = em_weights(KENDALL6)
    squared = power(KENDALL6, RationalExponent(2, 1))
    w2, _ = em_weights(squared)
    r1 = method_rank(MethodId.EM, KENDALL6)
    r2 = method_rank(MethodId.EM, squared)
    elapsed = time.perf_counter() - start

    ok = (
        np.max(np.abs(w1.w - [0.2286, 0.1430, 0.2102, 0.1321, 0.1430, 0.1430])) <= 5e-4
        and np.max(np.abs(w2.w - [0.2640, 0.1267, 0.2261, 0.1297, 0.1267, 0.1267])) <= 5e-4
        and pair_relation(r1, 1, 3) is PairRelation.STRICTLY_ABOVE
        and pair_relation(r2, 1, 3) is PairRelation.STRICTLY_BELOW
        and elapsed < 1.0
    )
    _conclude("criterion 1 (6x6 eigenvector weights, squared-scale flip)", ok,
              f"{elapsed:.3f}s")


def test_criterion_2_4x4_weights_and_iic_flip():
    start = time.perf_counter()
    modified = IIC4.with_entry(2, 3, 4.0)
    w1, _ = em_weights(IIC4)
    w2, _ = em_weights(modified)
    r1 = method_rank(MethodId.EM, IIC4)
    r2 = method_rank(MethodId.EM, modified)
    elapsed = time.perf_counter() - start

    ok = (
        np.max(np.abs(w1.w - [0.3254, 0.2855, 0.2034, 0.1858])) <= 5e-4
        and np.max(np.abs(w2.w - [0.2880, 0.2917, 0.2855, 0.1347])) <= 5e-4
        and pair_relation(r1, 0, 1) is PairRelation.STRICTLY_ABOVE
        and pair_relation(r2, 0, 1) is PairRelation.STRICTLY_BELOW
        and elapsed < 1.0
    )
    _conclude("criterion 2 (4x4 eigenvector weights, remote-cell flip)", ok,
              f"{elapsed:.3f}s")


def test_criterion_3_registry_reproduces(capsys):
    reports = run_all()
    all_ok = all(r["ok"] for r in reports) and len(reports) == 8

    arith = next(r for r in reports if r["id"] == "ex41-ai-arith")
    favprod = next(r for r in reports if r["id"] == "ex43-ai-favprod")
    scores_ok = (
        arith["details"]["scores_per_matrix"] == [[9.0, 10.25], [5.25, 6.0]]
        and np.allclose(arith["details"]["scores_aggregate"], [6.0, 5.0], rtol=1e-9)
        and favprod["details"]["scores_per_matrix"] == [[2.0, 1.0], [9.0, 8.0]]
        and np.allclose(favprod["details"]["scores_aggregate"], [1.0, 2.0], rtol=1e-9)
    )

    exit_code = cli_main(["repro", "--all"])
    capsys.readouterr()
    with capsys.disabled():
        _conclude("criterion 3 (registry: 8 fixed cases)",
                  all_ok and scores_ok and exit_code == 0,
                  f"{sum(r['ok'] for r in reports)}/8 ok, exit {exit_code}")


def test_criterion_4_rgm_survives_every_axiom_search():
    start = time.perf_counter()
    clean = True
    for axiom in AxiomId:
        n_range = (4, 6) if axiom is AxiomId.IIC else (2, 6)
        cfg = SearchConfig(seed=42, trials=10_000, n_range=n_range)
        witness = falsify(MethodId.RGM, axiom, cfg)
        clean = clean and witness is None
    elapsed = time.perf_counter() - start
    _conclude("criterion 4 (geometric-mean ranking passes all six searches)",
              clean and elapsed < 60.0, f"6 x 10000 trials in {elapsed:.1f}s")


def test_criterion_5_known_violations_are_found():
    targets = [
        (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI, (2, 6)),
        (MethodId.FAVOURABLE_PRODUCT, AxiomId.AI, (2, 6)),
        (MethodId.FIRST_COLUMN, AxiomId.ANO, (2, 6)),
        (MethodId.EM, AxiomId.INV, (2, 6)),
        (MethodId.EM, AxiomId.IIC, (4, 6)),
    ]
    ok = True
    found = []
    for method, axiom, n_range in targets:
        cfg = SearchConfig(seed=42, trials=10_000, n_range=n_range)
        witness = falsify(method, axiom, cfg)
        again = falsify(method, axiom, cfg)
        this_ok = (
            witness is not None
            and not replay(witness).holds
            and witness_json_dict(witness) == witness_json_dict(again)
        )
        ok = ok and this_ok
        found.append(f"{method.value}/{axiom.value}:{'hit' if this_ok else 'MISS'}")
    _conclude("criterion 5 (known violations found and replayed)", ok, ", ".join(found))


def test_criterion_6_em_equals_rgm_rank_for_n3():
    rng = np.random.default_rng(606)
    agree = True
    for _ in range(1000):
        a = random_pcm(rng, 3)
        agree = agree and np.array_equal(
            method_rank(MethodId.EM, a).rank, method_rank(MethodId.RGM, a).rank
        )
    _conclude("criterion 6 (eigenvector = geometric mean ranking at n=3)", agree,
              "1000 instances")


def test_criterion_7_consistent_case_oracle():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        a = PCM.from_upper(w[:, None] / w[None, :])
        wr = rgm_weights(a)
        we, lam = em_weights(a)
        ok = ok and np.max(np.abs(wr.w - w)) <= 1e-9
        ok = ok and np.max(np.abs(we.w - w)) <= 1e-9
        ok = ok and abs(lam - n) <= 1e-9
    _conclude("criterion 7 (consistent matrices recover their generator)", ok,
              "200 instances")


def test_criterion_8_construction_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    for n in (3, 4, 5, 6):
        for _ in range(100):
            a = equalize_pair(random_pcm(rng, n), 0, 1)
            report = verify_proof_identities(build_proof_chain(a), tol=1e-12)
            ok = ok and report["inv_swap"] and report["unit_row_geomeans"]
            ok = ok and report["alpha_sqrt"]
            if n >= 4:
                ok = ok and report["swap_power_aggregate"]
    elapsed = time.perf_counter() - start
    _conclude("criterion 8 (constructive chain identities)",
              ok and elapsed < 10.0, f"400 chains in {elapsed:.1f}s")


def test_criterion_9_transform_algebra():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = random_pcm(rng, n)
        pooled = aggregate([a, opposite(a)])
        ok = ok and np.max(np.abs(pooled.entries - 1.0)) <= 1e-12
        p = int(rng.integers(1, 6))
        q = int(rng.integers(p, 6))
        kappa = RationalExponent(p, q)
        lhs = power(a, kappa)
        rhs = aggregate([a] * kappa.p + [PCM.ones(n)] * (kappa.q - kappa.p))
        rel = np.abs(lhs.entries - rhs.entries) / np.maximum(lhs.entries, rhs.entries)
        ok = ok and float(np.max(rel)) <= 1e-12
    _conclude("criterion 9 (opposite pooling and power-as-pooling)", ok,
              "1000 instances")
