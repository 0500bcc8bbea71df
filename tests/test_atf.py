import dataclasses
import fractions
import hashlib
import importlib
import json
import pkgutil
import re
from fractions import Fraction
from math import gcd

import pytest

import lenscalc
from atf_reference import rational_diagram
from lenscalc import atf, cli, verify
from lenscalc.atf import (
    AtfDiagram,
    AtfNode,
    NodeReport,
    affinely_equivalent,
    atf_for_markov,
    check_consistency,
    is_consistent,
    nodal_slide,
    nodal_trade,
    node_boundary_lens,
    standard_cp2,
    transfer_cut,
)
from lenscalc.errors import (
    InternalConsistencyError,
    InvariantError,
    LenscalcError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from lenscalc.farey import IntMat2, det
from lenscalc.lens import LensSpace, boundary_Bpq
from lenscalc.markov import MarkovTriple, derive_q, enumerate_tree
from lenscalc.svg import render_svg

# the depth-6 triples whose diagrams the mutation replay could not build
REPLAY_FAILURES = [
    (433, 37666, 48928105),
    (29, 37666, 3276509),
    (169, 14701, 7453378),
    (29, 14701, 1278818),
]

# the sha256 of `TestTransferCut.test_moves_golden`'s 783 lines
MOVES_GOLDEN = "83a96e8a9de8da4264e0f1c224ebe0fcde3e6a5955153a1b55cbbff86140d9e5"
# the sha256 of `TestTransferCut.test_svg_golden`'s 260 pictures
SVG_GOLDEN = "5da52af9aed740563c38933880a0337c7b48b48227f5ca59901189bfac6eb2c2"

# polygons that turn left at every vertex but wind twice round: a
# pentagram, and the {7/2} heptagram on the convex heptagon (0, 0), (4, 0),
# (7, 2), (7, 5), (4, 7), (0, 6), (-2, 3), which takes every second vertex
STARS = {
    "pentagram": ((0, 0), (3, 2), (-1, 2), (2, 0), (1, 3)),
    "heptagram": ((0, 0), (7, 2), (4, 7), (-2, 3), (4, 0), (7, 5), (0, 6)),
}


def pt(x, y):
    return (Fraction(x), Fraction(y))


def traded_triangle():
    d = standard_cp2()
    for i in range(3):
        d = nodal_trade(d, i)
    return d


def corner_order(d, corner):
    """|det| of the primitive edge directions leaving a vertex."""
    n = len(d.vertices)
    i = d.vertices.index(corner)

    def primitive(q):
        x, y = q[0] - corner[0], q[1] - corner[1]
        scale = x.denominator * y.denominator
        a, b = int(x * scale), int(y * scale)
        g = gcd(a, b)
        return a // g, b // g

    u = primitive(d.vertices[i - 1])
    w = primitive(d.vertices[(i + 1) % n])
    return abs(u[0] * w[1] - u[1] * w[0])


class TestMonodromy:
    def test_checks_and_transfers_build_no_matrix(self, monkeypatch, tmp_path, capsys):
        # the sweep, the node reports, the transfers, the normal forms and the
        # CLI's moves apply each twist, monodromy and map to vectors: with
        # every `IntMat2` made to raise, they all still run
        diagrams = [atf_for_markov(t) for t, _ in enumerate_tree(6)]

        def refuse(*args):
            raise AssertionError("a matrix on the vector path")

        monkeypatch.setattr(IntMat2, "__init__", refuse)
        results = verify.run_all(6)
        assert [r.number for r in results if not r.passed] == []
        for d in diagrams:
            assert is_consistent(d)
            for i in range(3):
                there = transfer_cut(d, i)
                assert is_consistent(there)
                assert affinely_equivalent(transfer_cut(there, i), d)
        diagram, handle = tmp_path / "d.json", tmp_path / "h.json"
        for argv, f in [
            (["atf", "build", "2", "5", "29"], diagram),
            (["atf", "move", str(diagram), "--slide", "0", "1/2"], None),
            (["handle", "build-x", "2", "5", "29", "--json"], handle),
            (["handle", "mutate", str(handle), "--slot", "first"], None),
        ]:
            assert cli.main(argv) == 0
            out, err = capsys.readouterr()
            assert err == "" and json.loads(out)
            if f is not None:
                f.write_text(out)


class TestDiagramBasics:
    def test_standard_triangle(self):
        d = standard_cp2()
        assert d.vertices == (pt(0, 0), pt(3, 0), pt(0, 3))
        assert d.nodes == ()
        assert is_consistent(d)

    def test_nonconvex_rejected(self):
        with pytest.raises(InvariantError):
            rational_diagram((pt(0, 0), pt(0, 3), pt(3, 0)))  # clockwise

    def test_json_round_trip(self):
        d = traded_triangle()
        assert AtfDiagram.from_json_obj(d.to_json_obj()) == d

    @pytest.mark.parametrize("star", STARS.values(), ids=list(STARS))
    def test_star_polygon_rejected(self, star, tmp_path, capsys):
        n = len(star)
        edges = [(star[i][0] - star[i - 1][0], star[i][1] - star[i - 1][1]) for i in range(n)]
        assert all(det(edges[i - 1], edges[i]) > 0 for i in range(n))  # left turns only
        message = "vertices must be strictly convex counterclockwise"
        doc = {"vertices": [[x, y] for x, y in star], "nodes": []}
        with pytest.raises(InvariantError, match=f"^{message}$"):
            rational_diagram(star)
        with pytest.raises(InvariantError, match=f"^{message}$"):
            AtfDiagram.from_json_obj(doc)
        f = tmp_path / "star.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["atf", "move", str(f), "--transfer", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "invariant-violated", "message": message}


def doubled(obj: dict) -> dict:
    """The JSON document with every "n/d" written "2n/2d"."""
    def twice(m: re.Match) -> str:
        return f'"{2 * int(m[1])}/{2 * int(m[2])}"'

    return json.loads(re.sub(r'"(-?[0-9]+)/([0-9]+)"', twice, json.dumps(obj)))


class TestJsonReader:
    """The reader takes each coordinate as an integer pair (n, d > 0) and
    makes no Fraction; the frame it stores is in lowest terms."""

    def test_unreduced_coordinates_give_the_same_diagram(self):
        for t in [(1, 1, 1), (1, 2, 5), (5, 13, 194)]:
            obj = atf_for_markov(MarkovTriple(*t)).to_json_obj()
            twice = doubled(obj)
            assert twice != obj
            d, e = AtfDiagram.from_json_obj(obj), AtfDiagram.from_json_obj(twice)
            assert d == e and repr(d) == repr(e) and e.to_json_obj() == obj

    def test_equal_values_in_any_form_give_equal_diagrams(self):
        def triangle(x, y):
            return AtfDiagram.from_json_obj({"vertices": [[0, "0"], [x, "0"], ["0", y]]})

        assert triangle("2/4", "1/2") == triangle("1/2", "1/2") == triangle("1/2", "3/6")
        assert triangle(3, "3") == triangle("3", 3) == triangle("6/2", "3/1")
        assert triangle(3, "3").frame.den == 1 and triangle("2/4", "1/2").frame.den == 2

    @pytest.mark.parametrize("where", ["vertex", "position", "cut_end"])
    @pytest.mark.parametrize(
        "value",
        [1.5, "1e3", "1/0", "1_0", "\u0663", True, "1" * 5000, "1/" + "1" * 5000],
        ids=["float", "exponent", "zero-denominator", "underscore", "arabic-digit", "bool",
             "long-numerator", "long-denominator"],
    )
    def test_malformed_coordinate_keeps_its_error(self, tmp_path, capsys, where, value):
        obj = atf_for_markov(MarkovTriple(1, 1, 1)).to_json_obj()
        if where == "vertex":
            obj["vertices"][1][0] = value
        else:
            obj["nodes"][2][where][1] = value
        message = "not a rational: " + repr(value)[:40]
        with pytest.raises(InvariantError) as info:
            AtfDiagram.from_json_obj(obj)
        assert str(info.value) == message
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(obj))
        assert cli.main(["atf", "move", str(f), "--transfer", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "invariant-violated", "message": message}


class TestNodalTrade:
    def test_three_trades_give_root_picture(self):
        d = traded_triangle()
        assert len(d.nodes) == 3
        assert is_consistent(d)

    def test_all_readouts_are_spheres(self):
        d = traded_triangle()
        for i in range(3):
            assert node_boundary_lens(d, i).is_s3()

    def test_double_trade_rejected(self):
        d = nodal_trade(standard_cp2(), 0)
        with pytest.raises(PreconditionError):
            nodal_trade(d, 0)

    def test_consistency_after_each_trade(self):
        d = standard_cp2()
        for i in range(3):
            d = nodal_trade(d, i)
            assert is_consistent(d)


class TestNodalSlide:
    def test_slide_and_back(self):
        d = traded_triangle()
        node = d.nodes[0]
        halfway = (
            node.cut_end[0] + (node.position[0] - node.cut_end[0]) / 2,
            node.cut_end[1] + (node.position[1] - node.cut_end[1]) / 2,
        )
        moved = nodal_slide(d, 0, 1, 2)
        assert moved.nodes[0].position == halfway
        assert nodal_slide(moved, 0, 2, 1) == d

    def test_readout_unchanged(self):
        d = traded_triangle()
        before = [node_boundary_lens(d, i) for i in range(3)]
        node = d.nodes[1]
        target = (
            node.cut_end[0] + (node.position[0] - node.cut_end[0]) * Fraction(3, 4),
            node.cut_end[1] + (node.position[1] - node.cut_end[1]) * Fraction(3, 4),
        )
        moved = nodal_slide(d, 1, 3, 4)
        assert moved.nodes[1].position == target
        assert [node_boundary_lens(moved, i) for i in range(3)] == before

    def test_negative_index_counts_from_the_end(self):
        d = traded_triangle()
        node = d.nodes[2]
        halfway = tuple((e + p) / 2 for e, p in zip(node.cut_end, node.position))
        moved = nodal_slide(d, -1, 1, 2)
        assert moved == nodal_slide(d, 2, 1, 2) and len(moved.nodes) == 3
        assert moved.nodes[2].position == halfway

    def test_ratio_in_any_terms_gives_the_same_diagram(self):
        d = traded_triangle()
        assert nodal_slide(d, 0, 2, 4) == nodal_slide(d, 0, 1, 2) == nodal_slide(d, 0, 50, 100)

    @pytest.mark.parametrize("n, m", [(0, 1), (-1, 2), (1, 0), (1, -2), (-1, -2)])
    def test_ratio_not_positive_rejected(self, n, m):
        with pytest.raises(PreconditionError, match="^slide parameter must be positive$"):
            nodal_slide(traded_triangle(), 0, n, m)

    def test_off_eigenline_rejected(self):
        # node 0 with an eigenvector that is not along its cut: a slide by
        # any ratio but 1 leaves the eigenline
        den, verts, positions, ends, eigens = traded_triangle().frame
        d = AtfDiagram(den, verts, positions, ends, ((1, 0),) + eigens[1:])
        assert det((ends[0][0] - positions[0][0], ends[0][1] - positions[0][1]), (1, 0)) != 0
        with pytest.raises(PreconditionError, match="^target is off the node's eigenline$"):
            nodal_slide(d, 0, 1, 2)


class TestTransferCut:
    def test_produces_next_markov_picture(self):
        d = transfer_cut(traded_triangle(), 0)
        assert is_consistent(d)
        assert len(d.nodes) == 3
        readouts = sorted(
            node_boundary_lens(d, i).canonical for i in range(3)
        )
        assert readouts == [(1, 0), (1, 0), (4, 1)]

    def test_traded_corner_reads_l41(self):
        d = atf_for_markov(MarkovTriple(1, 1, 2))
        hits = [
            node_boundary_lens(d, i)
            for i in range(3)
            if not node_boundary_lens(d, i).is_s3()
        ]
        assert hits == [LensSpace(4, 1)]

    def test_double_transfer_is_identity_up_to_affine_maps(self):
        d = traded_triangle()
        twice = transfer_cut(transfer_cut(d, 0), 0)
        assert affinely_equivalent(d, twice)

    def test_node_count_invariant(self):
        d = traded_triangle()
        for _ in range(3):
            d = transfer_cut(d, 0)
            assert len(d.nodes) == 3 and is_consistent(d)

    def test_negative_index_counts_from_the_end(self):
        d = traded_triangle()
        assert transfer_cut(d, -1) == transfer_cut(d, 2)

    def test_inconsistent_node_rejected(self):
        d = traded_triangle()
        moved = rational_diagram((pt(1, 1),) + d.vertices[1:], d.nodes)
        assert not check_consistency(moved)[0].passed
        with pytest.raises(PreconditionError):
            transfer_cut(moved, 0)

    def test_moves_golden(self):
        """One sha256 over the JSON, or the typed error, of every first and
        second transfer from each diagram to depth 7, then of the three
        trades of the standard triangle."""
        digest = hashlib.sha256()
        counts = {"moved": 0, "raised": 0}

        def line(move, d, i):
            try:
                out = move(d, i)
            except LenscalcError as exc:  # hashed, not swallowed
                counts["raised"] += 1
                digest.update(f"{exc.code} {exc}\n".encode())
                return None
            counts["moved"] += 1
            digest.update((json.dumps(out.to_json_obj(), separators=(",", ":")) + "\n").encode())
            return out

        for t, _ in enumerate_tree(7):
            d = atf_for_markov(t)
            for i in range(3):
                once = line(transfer_cut, d, i)
                if once is not None:
                    for j in range(3):
                        line(transfer_cut, once, j)
        d = standard_cp2()
        for k in range(3):
            d = line(nodal_trade, d, k)
        assert counts == {"moved": 390 + 3, "raised": 390}  # 390 transfers, 3 trades
        assert digest.hexdigest() == MOVES_GOLDEN

    def test_svg_golden(self):
        """One sha256 over `render_svg` of every diagram to depth 7 and of
        each of its first transfers, or the transfer's typed error."""
        digest = hashlib.sha256()
        counts = {"drawn": 0, "raised": 0}

        def draw(make):
            try:
                picture = render_svg(make())
            except LenscalcError as exc:  # hashed, not swallowed
                counts["raised"] += 1
                digest.update(f"{exc.code} {exc}\n".encode())
                return
            counts["drawn"] += 1
            digest.update(picture.encode())

        for t, _ in enumerate_tree(7):
            d = atf_for_markov(t)
            draw(lambda: d)
            for i in range(3):
                draw(lambda: transfer_cut(d, i))
        assert counts == {"drawn": 65 * 4, "raised": 0}
        assert digest.hexdigest() == SVG_GOLDEN


def shortest_edges(d):
    """The number of edges of d of the least lattice length."""
    verts = d.frame.vertices
    lengths = [gcd(p[0] - q[0], p[1] - q[1]) for p, q in zip(verts, verts[1:] + verts[:1])]
    return lengths.count(min(lengths))


class TestConsistencyChecker:
    def test_perturbed_eigenvector_fails(self):
        d = traded_triangle()
        node = d.nodes[0]
        a, b = node.eigenvector
        while gcd(a, b + 1) != 1:
            b += 1
        bad = AtfNode(node.position, (a, b + 1), node.cut_end)
        broken = rational_diagram(d.vertices, (bad,) + d.nodes[1:])
        reports = check_consistency(broken)
        assert not reports[0].passed
        assert all(r.passed for r in reports[1:])

    @pytest.mark.parametrize("eigenvector", [["2", "2"], ["0", "0"]])
    def test_non_primitive_eigenvector_fails_its_node(self, eigenvector):
        # a JSON document can hold a vector with no monodromy: its node fails
        # the check, the others pass, and no report raises
        obj = atf_for_markov(MarkovTriple(1, 1, 1)).to_json_obj()
        obj["nodes"][1]["eigenvector"] = eigenvector
        d = AtfDiagram.from_json_obj(obj)
        reports = check_consistency(d)
        assert [r.passed for r in reports] == [True, False, True]
        bad = reports[1]
        assert not (bad.eigen_fixed or bad.cut_parallel or bad.edges_match)
        assert bad.cut_on_boundary and bad.position_interior and bad.cut_disjoint
        with pytest.raises(PreconditionError, match="node fails the consistency check"):
            transfer_cut(d, 1)
        with pytest.raises(UnsupportedConfigurationError, match="re-glued diagram is inconsistent"):
            transfer_cut(d, 2)

    @pytest.mark.parametrize("target", range(3))
    @pytest.mark.parametrize("node", range(3))
    @pytest.mark.parametrize("eigenvector", [["0", "0"], ["2", "2"]])
    def test_bad_eigenvector_ends_every_transfer_in_a_typed_error(self, eigenvector, node, target):
        # the re-glue carries a vector as it is: a (0, 0) vector does not
        # raise unnamed and a (2, 2) one is not repaired, so the node's own
        # transfer fails its check and any other transfer's result does
        obj = atf_for_markov(MarkovTriple(1, 1, 1)).to_json_obj()
        obj["nodes"][node]["eigenvector"] = eigenvector
        d = AtfDiagram.from_json_obj(obj)
        if node == target:
            error, message = PreconditionError, "node fails the consistency check"
        else:
            error, message = UnsupportedConfigurationError, "re-glued diagram is inconsistent"
        with pytest.raises(error, match=message):
            transfer_cut(d, target)

    def test_reports_are_computed_once(self, monkeypatch):
        calls = []
        real = atf._node_report

        def counted(d, i):
            calls.append(i)
            return real(d, i)

        monkeypatch.setattr(atf, "_node_report", counted)
        d = atf_for_markov(MarkovTriple(1, 2, 5))
        reports = check_consistency(d)
        assert is_consistent(d)
        readouts = [node_boundary_lens(d, i) for i in range(3)]
        assert calls == [0, 1, 2]
        # a caller's list is a copy, so changing it leaves the diagram's own
        reports.clear()
        assert len(check_consistency(d)) == 3 and calls == [0, 1, 2]
        assert [node_boundary_lens(d, i) for i in range(3)] == readouts

    def test_reports_are_computed_once_per_diagram_and_node(self, monkeypatch):
        calls = []
        real = atf._node_report

        def counted(d, i):
            calls.append((id(d), i))
            return real(d, i)

        monkeypatch.setattr(atf, "_node_report", counted)
        d = atf_for_markov(MarkovTriple(1, 2, 5))
        assert len(check_consistency(d)) == 3
        assert sorted(node_boundary_lens(d, i).r for i in range(3)) == [1, 4, 25]
        moved = transfer_cut(d, 2)
        assert sorted(calls) == sorted((id(x), i) for x in (d, moved) for i in range(3))

    def test_each_readout_is_derived_once(self, monkeypatch, tmp_path, capsys):
        # the CLI's labels, `render_svg` and any later call share one object
        calls = []
        real = atf.lens_from_meridian_slopes
        monkeypatch.setattr(atf, "lens_from_meridian_slopes", lambda *m: calls.append(m) or real(*m))
        d = atf_for_markov(MarkovTriple(2, 5, 29))
        first = [node_boundary_lens(d, i) for i in range(3)]
        picture = render_svg(d)
        assert len(calls) == 3
        assert all(node_boundary_lens(d, i) is first[i] for i in range(-3, 3))
        assert len(calls) == 3 and all(str(l) in picture for l in first)
        del calls[:]
        assert cli.main(["atf", "build", "2", "5", "29", "--svg", str(tmp_path / "d.svg")]) == 0
        assert len(calls) == 3
        assert (tmp_path / "d.svg").read_text() == picture
        assert json.loads(capsys.readouterr().out) == d.to_json_obj()

    def test_failing_node_raises_on_every_readout(self):
        obj = atf_for_markov(MarkovTriple(1, 2, 5)).to_json_obj()
        obj["nodes"][1]["eigenvector"] = ["2", "2"]
        d = AtfDiagram.from_json_obj(obj)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="node fails the consistency check"):
                node_boundary_lens(d, 1)
        picture = render_svg(d)
        assert picture.count("<text ") == 2
        assert str(node_boundary_lens(d, 2)) in picture
        with pytest.raises(PreconditionError, match="node fails the consistency check"):
            node_boundary_lens(d, -2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
    def test_each_pair_of_cuts_is_tested_once(self, monkeypatch, n):
        # n short cuts from the corners of a hexagon towards its centre
        corners = ((0, 0), (2, 0), (4, 2), (4, 4), (2, 4), (0, 2))
        nodes = tuple(
            AtfNode((x + (2 - x) // 2, y + (2 - y) // 2), atf._primitive((2 - x, 2 - y)), (x, y))
            for x, y in corners[:n]
        )
        d = rational_diagram(corners, nodes)
        calls = []
        real = atf._segments_intersect
        monkeypatch.setattr(atf, "_segments_intersect", lambda *s: calls.append(s) or real(*s))
        assert len(check_consistency(d)) == n
        assert len(calls) == n * (n - 1) // 2
        assert len({frozenset((s[:2], s[2:])) for s in calls}) == len(calls)
        check_consistency(d)
        assert len(calls) == n * (n - 1) // 2

    def test_frame_is_built_once_when_the_diagram_is_made(self, monkeypatch):
        calls = []
        real = atf.IntegralFrame
        monkeypatch.setattr(atf, "IntegralFrame", lambda *f: calls.append(f) or real(*f))
        d = atf_for_markov(MarkovTriple(1, 2, 5))
        moved = transfer_cut(d, 0)
        assert len(calls) == 2  # one frame for each diagram made
        d = AtfDiagram(*d.frame)
        assert len(calls) == 3
        assert d.frame is d.frame
        check_consistency(d)
        node_boundary_lens(d, 0)
        d.to_json_obj()
        assert len(calls) == 3
        assert transfer_cut(d, 0) == moved
        assert len(calls) == 4
        # the Fraction views are made on the first read, and only then
        want = (d.vertices, d.nodes)
        made = []

        def fraction(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(atf, "Fraction", fraction)
        fresh = AtfDiagram.from_json_obj(d.to_json_obj())
        assert made == []
        assert fresh.vertices is fresh.vertices and fresh.nodes is fresh.nodes
        assert len(made) == 2 * 3 + 4 * 3
        assert (fresh.vertices, fresh.nodes) == want
        assert len(made) == 2 * 3 + 4 * 3

    def test_normal_form_is_computed_once_per_diagram(self, monkeypatch):
        calls = []
        real = atf._bezout

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        d = atf_for_markov(MarkovTriple(1, 2, 5))
        other = transfer_cut(d, 0)
        monkeypatch.setattr(atf, "_bezout", counted)
        for _ in range(3):
            assert affinely_equivalent(d, d) and not affinely_equivalent(d, other)
        # one Bezout solve for each shortest edge of each, which serves the
        # two labellings that start along it; each has one shortest edge
        assert len(calls) == shortest_edges(d) + shortest_edges(other) == 2
        assert d.normal_form is d.normal_form

    def test_cached_values_are_not_fields(self):
        d = atf_for_markov(MarkovTriple(1, 2, 5))
        assert is_consistent(d)
        assert [f.name for f in dataclasses.fields(d)] == ["frame"]
        for name in ("frame", "vertices", "nodes", "normal_form"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        for fresh in (AtfDiagram(*d.frame), rational_diagram(d.vertices, d.nodes)):
            assert d == fresh and repr(d) == repr(fresh) and hash(d) == hash(fresh)
            assert d.normal_form == fresh.normal_form
        # the stored frame, in lowest terms, is all that repr shows
        assert repr(d) == (
            "AtfDiagram(frame=IntegralFrame(den=40, "
            "vertices=((0, -120), (48, 24), (0, 180)), "
            "positions=((30, 0), (42, 36), (30, 75)), "
            "cut_ends=((0, -120), (48, 24), (0, 180)), "
            "eigenvectors=((1, 4), (-1, 2), (2, -7))))"
        )
        _, verts, positions, ends, _ = d.frame
        assert gcd(d.frame.den, *(c for p in verts + positions + ends for c in p)) == 1

    @pytest.mark.parametrize(
        "move", [node_boundary_lens, transfer_cut], ids=["node_boundary_lens", "transfer_cut"]
    )
    def test_cut_end_off_the_vertices_is_an_internal_error(self, monkeypatch, move):
        # no node passes the check with its cut end inside an edge, so force
        # the check to pass and see that neither the readout nor the
        # transfer guesses
        d = traded_triangle()
        node = d.nodes[0]
        edge_point = (Fraction(1), Fraction(0))
        odd = rational_diagram(d.vertices, (AtfNode(node.position, node.eigenvector, edge_point),))
        passing = NodeReport(0, True, True, True, True, True, True)
        monkeypatch.setattr(atf, "_node_report", lambda d, i: passing)
        with pytest.raises(InternalConsistencyError, match="is not a polygon vertex"):
            move(odd, 0)


class TestFractionEdges:
    """The build, check, readout, transfer, slide, JSON and SVG paths run on
    the integral frame: with `Fraction` made to raise in `atf`, the one
    module that binds it, they still run, and only the Fraction views
    raise."""

    @staticmethod
    def refuse_fractions(monkeypatch):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} made on the integral path")

        monkeypatch.setattr(atf, "Fraction", refuse)

    def test_only_atf_binds_fraction(self):
        names = [m.name for m in pkgutil.iter_modules(lenscalc.__path__)]
        assert "atf" in names and "cli" in names
        binding = []
        for name in names:
            values = vars(importlib.import_module(f"lenscalc.{name}")).values()
            if any(v is Fraction or v is fractions for v in values):
                binding.append(name)
        assert binding == ["atf"]

    def test_library_makes_no_fraction(self, monkeypatch):
        triples = [t for t, _ in enumerate_tree(6)]
        self.refuse_fractions(monkeypatch)
        for t in triples:
            d = atf_for_markov(t)
            assert is_consistent(d)
            assert sorted(node_boundary_lens(d, i).r for i in range(3)) == sorted(
                p * p for p in t.entries()
            )
            for i in range(3):
                assert affinely_equivalent(transfer_cut(transfer_cut(d, i), i), d)
            d.to_json_obj()
            render_svg(d)
            repr(d)
        with pytest.raises(AssertionError, match="integral path"):
            d.vertices

    def test_cli_build_and_transfer_make_no_fraction(self, monkeypatch, tmp_path, capsys):
        # the JSON reader reads integer pairs and `--slide` reads its ratio
        # as two integers, so `atf move` makes no Fraction either
        self.refuse_fractions(monkeypatch)
        picture, first = tmp_path / "d.svg", tmp_path / "d.json"
        d = atf_for_markov(MarkovTriple(5, 13, 194))
        assert cli.main(["atf", "build", "5", "13", "194", "--svg", str(picture)]) == 0
        first.write_text(capsys.readouterr().out)
        moves = [
            (["--transfer", "0"], transfer_cut(d, 0)),
            (["--slide", "0", "1/2"], nodal_slide(d, 0, 1, 2)),
            (["--slide", "0", "2/4"], nodal_slide(d, 0, 1, 2)),
        ]
        for move, want in moves:
            assert cli.main(["atf", "move", str(first), *move]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert AtfDiagram.from_json_obj(json.loads(out)) == want
        assert picture.read_text() == render_svg(d)


class TestMarkovPictures:
    def test_root_is_the_traded_triangle(self):
        assert atf_for_markov(MarkovTriple(1, 1, 1)) == traded_triangle()

    def test_one_two_five_readout_families(self):
        d = atf_for_markov(MarkovTriple(1, 2, 5))
        orders = sorted(node_boundary_lens(d, i).canonical[0] for i in range(3))
        assert orders == [1, 4, 25]

    def test_readouts_match_ball_boundaries(self):
        # each readout is L(p^2, s) with s congruent to a valid ball
        # boundary coefficient; checked through the shared Bezout family
        for p in [(1, 2, 5), (2, 5, 29), (1, 5, 13)]:
            t = MarkovTriple(*p)
            d = atf_for_markov(t)
            orders = sorted(node_boundary_lens(d, i).canonical[0] for i in range(3))
            assert orders == sorted(x * x for x in t.entries())

    def test_affine_equivalence_detects_relabeling(self):
        d = atf_for_markov(MarkovTriple(1, 1, 2))
        mat = IntMat2(1, 1, 0, 1)

        def image(p):
            return (mat.a * p[0] + mat.b * p[1] + 5, mat.c * p[0] + mat.d * p[1] - 2)

        moved = rational_diagram(
            tuple(image(v) for v in d.vertices),
            tuple(
                AtfNode(
                    image(n.position),
                    (mat.a * n.eigenvector[0] + mat.b * n.eigenvector[1],
                     mat.c * n.eigenvector[0] + mat.d * n.eigenvector[1]),
                    image(n.cut_end),
                )
                for n in d.nodes
            ),
        )
        assert affinely_equivalent(d, moved)
        assert not affinely_equivalent(d, atf_for_markov(MarkovTriple(1, 2, 5)))

    def test_every_triple_to_depth_10(self):
        for t, _ in enumerate_tree(10):
            d = atf_for_markov(t)
            assert is_consistent(d), t
            readouts = sorted(node_boundary_lens(d, i).canonical for i in range(3))
            want = sorted(
                LensSpace(p * p, p * q - 1).canonical
                for p, q in zip(t.entries(), derive_q(t).entries())
            )
            assert readouts == want, t
            assert sorted(corner_order(d, n.cut_end) for n in d.nodes) == sorted(
                p * p for p in t.entries()
            ), t
            for axis in (0, 1):
                coords = [v[axis] for v in d.vertices]
                assert max(coords) - min(coords) <= 9, t

    @pytest.mark.parametrize("p", REPLAY_FAILURES, ids=str)
    def test_replay_failures_are_built(self, p):
        t = MarkovTriple(*p)
        d = atf_for_markov(t)
        assert is_consistent(d)
        assert sorted(node_boundary_lens(d, i).canonical[0] for i in range(3)) == sorted(
            x * x for x in p
        )

