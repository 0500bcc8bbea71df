"""End-to-end acceptance sweep: each test runs one of the library's nine
verification criteria at full depth and asserts the stated time budget
where one applies."""

import time
from fractions import Fraction

import pytest

from atf_reference import rational_diagram
from lenscalc import atf, farey, handles, lens, markov, verify
from lenscalc.errors import InvariantError
from lenscalc.farey import Slope, is_farey_edge


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _one(number, depth):
    [result] = verify.run([number], depth)
    return result


def test_criterion_1_q_triple_sweep():
    result, elapsed = _timed(_one, 1, 8)
    assert result.passed, result.detail
    assert elapsed < 10.0


def test_criterion_2_cp2_recognition():
    result = _one(2, 8)
    assert result.passed, result.detail


def test_criterion_3_two_curve_boundary():
    result = _one(3, 8)
    assert result.passed, result.detail


def test_criterion_4_surgery_splitting():
    result = _one(4, 8)
    assert result.passed, result.detail


def test_criterion_5_decorated_path_classification():
    # the per-path timing budget (< 1 ms) is asserted inside the criterion
    result = _one(5, 0)
    assert result.passed, result.detail


def test_criterion_6_mutation_slide():
    result = _one(6, 8)
    assert result.passed, result.detail


def test_criterion_7_farey_path_oracle():
    result, elapsed = _timed(_one, 7, 0)
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
        verts.sort(key=lambda s: Fraction(s.num, s.den))
        succ = [
            [j for j in range(i + 1, len(verts)) if is_farey_edge(verts[i], verts[j])]
            for i in range(len(verts))
        ]
        assert verify._oracle_graph(den_limit) == (verts, succ), den_limit


def _drop_interior_vertex(path):
    return path[:1] + path[2:] if len(path) > 2 else path


def _wrong_first_vertex(path):
    return [Slope(-2, 1), *path[1:]]


def _mediant_detour(path):
    if len(path) != 2:
        return path
    u, v = path
    return [u, Slope(u.num + v.num, u.den + v.den), v]


@pytest.mark.parametrize(
    "mutate, failure",
    [
        (_drop_interior_vertex, ": length "),
        (_wrong_first_vertex, " is off the oracle geodesic"),
        (_mediant_detour, ": length "),
    ],
    ids=["dropped-vertex", "wrong-first-vertex", "mediant-detour"],
)
def test_criterion_7_reports_a_bad_path(monkeypatch, mutate, failure):
    # a wrong path is a failed criterion, not an exception
    real = farey.minimal_path
    monkeypatch.setattr(farey, "minimal_path", lambda src, dst: mutate(real(src, dst)))
    result = _one(7, 0)
    assert not result.passed
    # every pair of denominator <= 20 runs, 32 896 of them, where denominators
    # <= 8 would give 990
    assert result.detail.startswith("32896 pairs checked; failures: ")
    assert failure in result.detail


def test_criterion_8_atf_pipeline():
    result = _one(8, 8)
    assert result.passed, result.detail


def _mirror_each(readouts):
    # L(p^2, pq - 1) is never its own mirror for p >= 2
    return [lens.LensSpace(l.r, -l.s) if abs(l.r) >= 4 else l for l in readouts]


def _sphere_at_largest(readouts):
    i = max(range(len(readouts)), key=lambda j: abs(readouts[j].r))
    return [lens.S3 if j == i else l for j, l in enumerate(readouts)]


@pytest.mark.parametrize("mutate", [_mirror_each, _sphere_at_largest], ids=["mirror", "sphere"])
def test_criterion_8_reports_wrong_readouts(monkeypatch, mutate):
    # a wrong readout is a failed criterion, not an exception; the mirror
    # case keeps the comparison orientation-sensitive
    real = atf.node_boundary_lens

    def readout(d, i):
        return mutate([real(d, j) for j in range(len(d.nodes))])[i]

    monkeypatch.setattr(atf, "node_boundary_lens", readout)
    result = _one(8, 4)
    assert not result.passed
    for t, _ in markov.enumerate_tree(4):
        # only (1, 1, 1) reads S^3 at every corner
        assert (f"{t}: readouts " in result.detail) == (t.entries() != (1, 1, 1)), t
    assert "(1,1,2): traded corner reads" in result.detail


def test_criterion_8_reports_a_missing_node(monkeypatch):
    # the readouts are taken for the diagram's own nodes, so a diagram with
    # two of its three nodes is a failed criterion, not an exception
    real = atf.atf_for_markov

    def two_nodes(t):
        d = real(t)
        return rational_diagram(d.vertices, d.nodes[:2])

    monkeypatch.setattr(atf, "atf_for_markov", two_nodes)
    result = _one(8, 3)
    assert not result.passed
    for t, _ in markov.enumerate_tree(3):
        assert f"{t}: readouts " in result.detail, t


def test_criterion_9_boundary_cross_check():
    result = _one(9, 0)
    assert result.passed, result.detail


def test_lens_criteria_compute_no_normal_form(monkeypatch):
    # every criterion compares lens spaces by the residue rule alone
    def no_normal_forms(r, s):
        raise AssertionError("a normal form was computed")

    monkeypatch.setattr(lens, "_normal_forms", no_normal_forms)
    results = verify.run_all(8)
    assert [r.number for r in results] == list(range(1, 10))
    assert all(r.passed for r in results), results


def test_criterion_4_reports_mirrored_splitting_summands(monkeypatch):
    # the splitting is compared with its orientation: mirroring the two
    # summands read against the longitude 0 fails every triple with a
    # summand of order >= 4.  The worked example is not under test here.
    real = lens.lens_from_meridian_slopes

    def readout(m1, m2):
        l = real(m1, m2)
        return _mirror_each([l])[0] if farey.ZERO in (m1, m2) else l

    monkeypatch.setattr(lens, "lens_from_meridian_slopes", readout)
    monkeypatch.setattr(verify, "_surgery_example", lambda: [])
    result = _one(4, 3)
    assert not result.passed
    for t, _ in markov.enumerate_tree(3):
        assert (f"{t}: " in result.detail) == (max(t.p1, t.p2) >= 2), t


def test_criterion_6_reports_a_mirrored_slid_boundary(monkeypatch):
    # the boundary is compared with its orientation: mirroring the boundary
    # of each slid diagram fails every triple but the root, whose boundary
    # is S^3
    slid = []
    real_slide, real_boundary = handles.slide_mutation, handles.boundary_of_diagram

    def slide(d, slot):
        slid.append(real_slide(d, slot))
        return slid[-1]

    def boundary(d):
        m = real_boundary(d)
        if any(d is s for s in slid):
            return lens.ThreeManifold(tuple(_mirror_each(m.summands)))
        return m

    monkeypatch.setattr(handles, "slide_mutation", slide)
    monkeypatch.setattr(handles, "boundary_of_diagram", boundary)
    result = _one(6, 3)
    assert not result.passed
    for t, _ in markov.enumerate_tree(3):
        assert (f"{t}: boundary " in result.detail) == (t.entries() != (1, 1, 1)), t


def _branch(mutation, depth):
    t = markov.MarkovTriple(1, 1, 1)
    for _ in range(depth):
        t = markov.mutate(t, mutation)
    return t


@pytest.mark.parametrize(
    "mutation, depth, budget",
    [(markov.Mutation.LEFT, 20, 10.0), (markov.Mutation.RIGHT, 2000, 2.0)],
    ids=["fastest-depth-20", "slowest-depth-2000"],
)
def test_triple_checks_pass_deep_on_both_extreme_branches(mutation, depth, budget):
    # LEFT keeps the two largest entries every time (22 876-bit entries at
    # depth 20); RIGHT keeps p1 = 1 and grows slowest
    checks = [c.check for c in verify.CRITERIA if c.per_triple]
    assert len(checks) == 6
    record = verify.TripleRecord(_branch(mutation, depth))
    start = time.perf_counter()
    bad = [f for check in checks for f in getattr(verify, check)(record)]
    elapsed = time.perf_counter() - start
    assert bad == []
    assert elapsed < budget


def test_tree_criteria_derive_each_q_triple_once(monkeypatch):
    calls = []
    real = markov.derive_q

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(markov, "derive_q", counted)
    results = verify.run([1, 2, 3, 4, 6], 4)
    assert all(r.passed for r in results), results
    assert calls == [t for t, _ in markov.enumerate_tree(4)]


def test_run_all_reports_nine_passes():
    results = verify.run_all(4)
    assert [r.number for r in results] == list(range(1, 10))
    assert all(r.passed for r in results)


def test_the_table_holds_every_row():
    # nine rows, numbered in order, each with its title and count noun;
    # criteria 5, 7 and 9 run whole
    assert [c.number for c in verify.CRITERIA] == list(range(1, 10))
    assert all(c.title and c.noun for c in verify.CRITERIA)
    assert [c.number for c in verify.CRITERIA if not c.per_triple] == [5, 7, 9]
    assert all(callable(getattr(verify, c.check)) for c in verify.CRITERIA)


def test_run_makes_a_whole_row_from_the_table(monkeypatch):
    # a whole check returns its count and failures; run adds the title,
    # the count noun and the failure list
    monkeypatch.setattr(verify, "crit5_decorated_paths", lambda: (2, ["x"]))
    assert _one(5, 0) == verify.CriterionResult(
        5,
        "decorated-path classifications of the figure paths",
        False,
        "2 paths classified; failures: ['x']",
    )


@pytest.mark.parametrize(
    "number, title",
    [
        (5, "decorated-path classifications of the figure paths"),
        (7, "minimal_path vs BFS oracle, denominators <= 20"),
        (9, "one-curve boundary cross-check, p <= 30"),
    ],
)
def test_typed_error_in_a_whole_check_fails_its_row(monkeypatch, number, title):
    # the row keeps its table title; the detail is the error alone
    check = verify.CRITERIA[number - 1].check

    def boom():
        raise InvariantError("boom")

    monkeypatch.setattr(verify, check, boom)
    results = verify.run_all(1)
    assert [r.number for r in results] == list(range(1, 10))
    assert [r.number for r in results if not r.passed] == [number]
    assert results[number - 1] == verify.CriterionResult(
        number, title, False, "invariant-violated: boom"
    )


@pytest.mark.parametrize("depth", range(7))
def test_run_all_matches_single_criterion_runs(depth):
    shared = verify.run_all(depth)
    alone = [_one(n, depth) for n in range(1, 10)]
    assert shared == alone


def test_run_all_times_each_row():
    # the rows' times are disjoint spans inside the call
    results, elapsed = _timed(verify.run_all, 4)
    assert all(r.wall_s >= 0 for r in results)
    tree = {c.number for c in verify.CRITERIA if c.per_triple}
    assert len(tree) == 6
    assert all(r.wall_s <= elapsed for r in results if r.number in tree)
    assert sum(r.wall_s for r in results) <= elapsed


def test_a_shared_value_is_charged_to_its_first_check(monkeypatch):
    # criterion 1 is the first check to read the q-triple of each triple
    real = markov.derive_q

    def slow(t):
        time.sleep(0.002)
        return real(t)

    monkeypatch.setattr(markov, "derive_q", slow)
    results = verify.run([1, 2], 3)
    assert all(r.passed for r in results)
    triples = len(markov.enumerate_tree(3))
    assert results[0].wall_s >= 0.002 * triples


@pytest.mark.parametrize("number", [3, 5, 7, 9])
def test_a_raising_check_is_timed(monkeypatch, number):
    check = verify.CRITERIA[number - 1].check

    def boom(*args):
        time.sleep(0.002)
        raise InvariantError("boom")

    monkeypatch.setattr(verify, check, boom)
    [result] = verify.run([number], 3)
    assert not result.passed
    calls = len(markov.enumerate_tree(3)) if number == 3 else 1
    assert result.wall_s >= 0.002 * calls


def test_run_all_walks_the_tree_once(monkeypatch):
    # one walk for all six tree criteria, one q-triple per triple
    calls = {"enumerate_tree": 0, "derive_q": []}
    real_tree, real_q = markov.enumerate_tree, markov.derive_q

    def enumerate_tree(depth):
        calls["enumerate_tree"] += 1
        return real_tree(depth)

    def derive_q(t):
        calls["derive_q"].append(t)
        return real_q(t)

    monkeypatch.setattr(markov, "enumerate_tree", enumerate_tree)
    monkeypatch.setattr(markov, "derive_q", derive_q)
    results = verify.run_all(6)
    assert all(r.passed for r in results)
    triples = [t for t, _ in real_tree(6)]
    assert calls["enumerate_tree"] == 1
    assert calls["derive_q"] == triples


def test_run_calls_each_check_through_the_module(monkeypatch):
    # a wrapper installed on the module, as bench/tracer.py installs one,
    # sees every triple
    seen = []
    real = verify.crit3_two_curve_boundary
    monkeypatch.setattr(verify, "crit3_two_curve_boundary", lambda r: seen.append(r.t) or real(r))
    [result] = verify.run([3], 4)
    assert result.passed
    assert seen == [t for t, _ in markov.enumerate_tree(4)]


def test_worked_examples_run_with_the_root_triple(monkeypatch):
    # criterion 4's T(5,-8) surgery and criterion 8's double transfer run
    # once each, on the root's record, and criterion 8 transfers the root's
    # own diagram: one atf_for_markov call per triple
    built = []
    real_build = atf.atf_for_markov
    monkeypatch.setattr(atf, "atf_for_markov", lambda t: built.append(t) or real_build(t))
    monkeypatch.setattr(lens, "nonloose_surgery_result", lambda knot: lens.ThreeManifold((lens.S3,)))
    monkeypatch.setattr(atf, "affinely_equivalent", lambda d1, d2: False)
    surgery, pipeline = verify.run([4, 8], 3)
    triples = [t for t, _ in markov.enumerate_tree(3)]
    assert built == triples
    assert surgery.detail == (
        f"{len(triples)} splittings checked; failures: "
        "['T_(5,-8) in L(3,1): S3 != L(8,5) # L(7,3)']"
    )
    assert pipeline.detail == (
        f"{len(triples)} diagrams generated; failures: "
        "['double transfer is not the identity up to integral-affine maps']"
    )
