import numpy as np
import pytest

from pcmrank import UnknownCase, run_all, run_case
from pcmrank.registry import CASE_IDS


def test_every_case_reproduces():
    reports = run_all()
    assert [r["id"] for r in reports] == list(CASE_IDS)
    assert all(r["ok"] for r in reports), [r["id"] for r in reports if not r["ok"]]


def test_arith_ai_case_scores():
    r = run_case("ex41-ai-arith")
    assert r["expected"] == "fail" and r["observed"] == "fail"
    # row sums for the pair, per judge, then in the aggregate
    assert r["details"]["scores_per_matrix"] == [[9.0, 10.25], [5.25, 6.0]]
    agg = r["details"]["scores_aggregate"]
    assert np.allclose(agg, [6.0, 5.0], rtol=1e-9)


def test_favprod_ai_case_scores():
    r = run_case("ex43-ai-favprod")
    assert r["observed"] == "fail"
    assert r["details"]["scores_per_matrix"] == [[2.0, 1.0], [9.0, 8.0]]
    assert np.allclose(r["details"]["scores_aggregate"], [1.0, 2.0], rtol=1e-9)


def test_arith_iic_spot_check_holds():
    r = run_case("ex45-iic-arith-note")
    assert r["expected"] == "hold" and r["observed"] == "hold" and r["ok"]


def test_kendall_rsi_case_pair():
    r = run_case("prop51-rsi-kendall")
    assert r["observed"] == "fail"
    assert r["details"]["pair"] == [1, 3]
    assert np.allclose(r["details"]["weights"],
                       [0.2286, 0.1430, 0.2102, 0.1321, 0.1430, 0.1430], atol=5e-5)
    assert np.allclose(r["details"]["weights_squared"],
                       [0.2640, 0.1267, 0.2261, 0.1297, 0.1267, 0.1267], atol=5e-5)


def test_iic_4x4_case_weights():
    r = run_case("prop51-iic-4x4")
    assert r["observed"] == "fail"
    assert np.allclose(r["details"]["weights"], [0.3254, 0.2855, 0.2034, 0.1858], atol=5e-5)
    assert np.allclose(r["details"]["weights_modified"],
                       [0.2880, 0.2917, 0.2855, 0.1347], atol=5e-5)


def test_independence_witnesses():
    assert run_case("prop61-flat-res")["observed"] == "fail"
    assert run_case("prop61-arith-ai")["observed"] == "fail"
    assert run_case("prop61-index-ano")["observed"] == "fail"


def test_unknown_case():
    with pytest.raises(UnknownCase):
        run_case("nope")


@pytest.mark.parametrize("case_id, shown", [
    (None, "None"), (b"x", "b'x'"), (np.ones(3), "array([1., 1., 1.])"),
    (np.ones((2, 2)), "ndarray"), (3, "3"),
])
def test_a_case_id_that_is_not_a_str_is_unknown(case_id, shown):
    # an array raised a bare ValueError from the membership test
    with pytest.raises(UnknownCase) as exc:
        run_case(case_id)
    assert exc.value.args == (f"no registry case {shown}; known: {', '.join(CASE_IDS)}",)
