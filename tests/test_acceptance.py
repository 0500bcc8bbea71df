"""End-to-end acceptance sweep: each test runs one of the library's nine
verification criteria at full depth and asserts the stated time budget
where one applies."""

import time

from lenscalc import verify
from lenscalc.farey import Slope, is_farey_edge


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_criterion_1_q_triple_sweep():
    result, elapsed = _timed(verify.crit1_q_sweep, 8)
    assert result.passed, result.detail
    assert elapsed < 10.0


def test_criterion_2_cp2_recognition():
    result = verify.crit2_cp2_recognition(8)
    assert result.passed, result.detail


def test_criterion_3_two_curve_boundary():
    result = verify.crit3_two_curve_boundary(8)
    assert result.passed, result.detail


def test_criterion_4_surgery_splitting():
    result = verify.crit4_surgery(6)
    assert result.passed, result.detail


def test_criterion_5_decorated_path_classification():
    # the per-path timing budget (< 1 ms) is asserted inside the criterion
    result = verify.crit5_decorated_paths()
    assert result.passed, result.detail


def test_criterion_6_mutation_slide():
    result = verify.crit6_mutation_slide(8)
    assert result.passed, result.detail


def test_criterion_7_farey_path_oracle():
    result, elapsed = _timed(verify.crit7_farey_oracle, 20)
    assert result.passed, result.detail
    assert result.detail == "32896 pairs checked"
    assert elapsed < 30.0


def test_criterion_7_oracle_graph_matches_pair_scan():
    # the Stern-Brocot graph against every pair of slopes in [-2, 0]
    for den_limit in list(range(1, 21)) + [40]:
        verts = []
        for den in range(1, den_limit + 1):
            for num in range(-2 * den, 1):
                s = Slope(num, den)
                if s.den == den:
                    verts.append(s)
        verts.sort(key=Slope.as_fraction)
        succ = [
            [j for j in range(i + 1, len(verts)) if is_farey_edge(verts[i], verts[j])]
            for i in range(len(verts))
        ]
        assert verify._oracle_graph(den_limit) == (verts, succ), den_limit


def test_criterion_8_atf_pipeline():
    result = verify.crit8_atf_pipeline(8)
    assert result.passed, result.detail


def test_criterion_9_boundary_cross_check():
    result = verify.crit9_boundary_cross_check(30)
    assert result.passed, result.detail


def test_run_all_reports_nine_passes():
    results = verify.run_all(4)
    assert [r.number for r in results] == list(range(1, 10))
    assert all(r.passed for r in results)
