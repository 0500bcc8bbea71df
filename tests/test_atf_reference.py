"""Differential tests against the reference copies kept in `atf_reference`.

The closed-form almost toric diagrams are compared with the mutation
replay.  The replay shrinks cuts while it runs, so node positions differ;
the polygons must agree up to an integral affine map and the corners must
give the same lens readouts.

The closed-form construction, read off the q-triple, must give the same
JSON as its Fraction original, built from the weights (p1^2, p2^2, p3^2)
alone, with no q, whose Lagrange reduction steps the Fraction corners: to
depth 13 and on deeper words.

The integer consistency checker, `node_boundary_lens` and the convexity
test of `AtfDiagram` are compared with their Fraction originals, on the
generated diagrams after transfers of their cuts, on traded triangles, on
slid diagrams, on perturbed diagrams, and on all of these read back from
JSON; and on JSON documents made to test the unreduced edges: scaled so
that every edge at a cut end has lattice length > 1, with a cut end inside
an edge, and with an eigenvector (0, 0) or (2, 2).  Both must give equal
reports and lens spaces, or raise the same exception type.  Each of these
diagrams must also hold the integral frame of its own points.

`affinely_equivalent`, which compares integer normal forms, must give the
verdict of the original map search on these diagrams paired with their
images under random integral affine maps, with near misses of those
images, and with each other.  `transfer_cut`, which applies one re-gluing,
must give the diagram, or the error, of the original four-candidate search.

The chord end, one sign change of an integer `det` on the integral frame,
must give the point and the vertex or edge where the original Fraction ray
search leaves the polygon.

The monodromy images of `transfer_cut`, computed on the integral frame,
must give the diagram, or the error, of the Fraction re-gluing: with the
other nodes slid to either side of the eigenline, at eigenlines that end
at a vertex and inside an edge, and on the depth-16 triple of the
fastest-growing branch, where a transfer and its undo must come back to
the start up to an integral affine map.

`AtfDiagram.normal_form`, which maps only the labellings along a shortest
edge and the nodes only under the labellings that tie on the least ring,
must give the key of the full minimum over all 2n labellings: on every
diagram to depth 6 after no, one and two transfers, on the traded standard
triangle, where all six labellings tie, on the standard triangle with one
corner traded, where the rings tie and the nodes break the tie, and on a
square, a parallelogram, a hexagon and the triangle, where several edges
tie for shortest, bare and with corners traded.

`_segments_intersect` must agree with the original on every pair of
segments with ends on a small grid, in both argument orders.

The matrix monodromy kept in `atf_reference`, the oracle of the vector
transvection, fixes its primitive vector, has det 1 and rejects an
imprimitive one.

"""

import json
import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import atf_reference as ref
from atf_reference import rational_diagram
from farey_reference import identity, matmul
from lenscalc import atf
from lenscalc.atf import (
    AtfDiagram,
    AtfNode,
    _chord_end,
    _reducing_frame,
    affinely_equivalent,
    atf_for_markov,
    check_consistency,
    nodal_slide,
    nodal_trade,
    node_boundary_lens,
    standard_cp2,
    transfer_cut,
)
from lenscalc.errors import LenscalcError, PreconditionError, UnsupportedConfigurationError
from lenscalc.farey import IntMat2
from lenscalc.markov import enumerate_tree, replay

DEPTH = 5
TRIPLES_TO_6 = [t for t, _ in enumerate_tree(6)]
SMALL_TRIPLES = [t for t, _ in enumerate_tree(3)]


def from_json(d):
    return AtfDiagram.from_json_obj(json.loads(json.dumps(d.to_json_obj())))


def readouts(d):
    return sorted(node_boundary_lens(d, i).canonical for i in range(len(d.nodes)))


class TestMonodromy:
    """The matrix monodromy kept in `atf_reference`, the oracle of the
    transvection the library applies to vectors."""

    def test_one_one(self):
        assert ref.monodromy(1, 1) == IntMat2(0, 1, -1, 2)
        assert ref.monodromy(1, 1).apply_vec(1, 1) == (1, 1)

    def test_two_one(self):
        assert ref.monodromy(2, 1) == IntMat2(-1, 4, -1, 3)

    def test_imprimitive_rejected(self):
        with pytest.raises(PreconditionError):
            ref.monodromy(2, 4)

    @given(
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)).filter(
            lambda t: t != (0, 0) and gcd(t[0], t[1]) == 1
        )
    )
    def test_determinant_and_fixed_vector(self, ab):
        a, b = ab
        m = ref.monodromy(a, b)
        assert m.det() == 1
        assert m.apply_vec(a, b) == (a, b)


@pytest.mark.parametrize("t", [t for t, _ in enumerate_tree(DEPTH)], ids=str)
def test_matches_replay(t):
    got = atf_for_markov(t)
    want = ref.atf_for_markov(t)
    assert affinely_equivalent(rational_diagram(got.vertices), rational_diagram(want.vertices))
    assert readouts(got) == readouts(want)


def test_closed_form_matches_fraction_construction():
    # every triple to depth 13, the fastest-growing branch at depths 16 and
    # 19, the slowest-growing at depth 300, and seeded words of 14 to 20
    # letters: the triangle read off the q-triple is the one of the weights
    rng = random.Random(11)
    words = ["L" * 16, "L" * 19, "R" * 300]
    words += ["".join(rng.choice("LR") for _ in range(rng.randint(14, 20))) for _ in range(20)]
    for t in [t for t, _ in enumerate_tree(13)] + [replay(w) for w in words]:
        assert atf_for_markov(t).to_json_obj() == ref.fraction_atf_for_markov(t).to_json_obj(), t


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 2**40),
)
def test_reducing_frame_matches_fraction_reduction(vectors, scale):
    want = ref._reduced([(Fraction(x), Fraction(y)) for x, y in vectors])
    m = m00, m01, m10, m11 = _reducing_frame(vectors)
    assert [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in vectors] == want
    assert abs(m00 * m11 - m01 * m10) == 1
    assert _reducing_frame([(x * scale, y * scale) for x, y in vectors]) == m


def expected_frame(d):
    """d's vertices, node positions and cut ends times the lcm of their
    denominators, by Fraction arithmetic, and its eigenvectors."""
    points = list(d.vertices) + [p for nd in d.nodes for p in (nd.position, nd.cut_end)]
    den = lcm(*(Fraction(c).denominator for p in points for c in p))
    scaled = [(int(x * den), int(y * den)) for x, y in points]
    n = len(d.vertices)
    eigens = tuple(nd.eigenvector for nd in d.nodes)
    return (den, tuple(scaled[:n]), tuple(scaled[n::2]), tuple(scaled[n + 1 :: 2]), eigens)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except LenscalcError as exc:  # compared, not swallowed
        return ("raised", type(exc))


def assert_checkers_agree(d):
    assert tuple(d.frame) == expected_frame(d)
    assert outcome(check_consistency, d) == outcome(ref.check_consistency, d)
    for i in range(len(d.nodes)):
        assert outcome(node_boundary_lens, d, i) == outcome(ref.node_boundary_lens, d, i)


def transferred(t):
    """The diagram of t after no transfer, after one transfer of each cut,
    and after every two transfers in a row."""
    d = atf_for_markov(t)
    out = [d]
    for i in range(3):
        once = transfer_cut(d, i)
        out.append(once)
        for j in range(3):
            try:
                out.append(transfer_cut(once, j))
            except LenscalcError:
                pass
    return out


@pytest.mark.parametrize("t", TRIPLES_TO_6, ids=str)
def test_checker_matches_fraction_checker_after_transfers(t):
    for d in transferred(t):
        assert_checkers_agree(d)
        assert all(r.passed for r in check_consistency(d))
        read_back = from_json(d)
        assert read_back == d
        assert_checkers_agree(read_back)


def moved(fn, d, i):
    """The JSON of fn(d, i), or the type and message of its error."""
    try:
        return fn(d, i).to_json_obj()
    except LenscalcError as exc:  # compared, not swallowed
        return (type(exc), str(exc))


@pytest.mark.parametrize("t", TRIPLES_TO_6, ids=str)
def test_transfer_matches_search_after_transfers(t):
    for d in transferred(t):
        for i in range(3):
            assert moved(transfer_cut, d, i) == moved(ref.transfer_cut_search, d, i)


def sides(d, i):
    """The signs of det(eigenvector, position - node i's position) of the
    other nodes: the sides of node i's eigenline they lie on."""
    x0, ev = d.nodes[i].position, d.nodes[i].eigenvector
    crosses = [ref._cross(ev, ref._sub(nd.position, x0)) for j, nd in enumerate(d.nodes) if j != i]
    return tuple(sorted((c > 0) - (c < 0) for c in crosses))


@pytest.mark.parametrize("t", SMALL_TRIPLES, ids=str)
def test_integral_regluing_matches_fraction_images_with_slid_nodes(t):
    # every node but i slid to half its cut
    patterns = set()
    for d in transferred(t):
        for i in range(3):
            x = d
            for j in range(3):
                if j != i:
                    x = slid(x, j, Fraction(1, 2))
            patterns.add(sides(x, i))
            assert moved(transfer_cut, x, i) == moved(ref.fraction_transfer_cut, x, i)
    assert (-1, 1) in patterns  # one slid node on either side of the eigenline


def trades():
    """Every corner trade of the hexagon, of the quadrilateral whose traded
    corner's eigenline ends at its opposite vertex, and of the standard
    triangle."""
    for p in [HEXAGON, rational_diagram(((0, 0), (2, 0), (0, 2), (-1, 1))), standard_cp2()]:
        for k in range(len(p.vertices)):
            try:
                yield nodal_trade(p, k)
            except PreconditionError:  # a corner that is not unimodular
                pass


def test_integral_regluing_matches_fraction_images_at_both_exits(monkeypatch):
    # a transfer whose eigenline ends at a vertex leaves an inconsistent
    # diagram, so the images are compared a second time with the final
    # check forced to pass
    cases = [x for t in SMALL_TRIPLES for x in transferred(t)] + list(trades())
    exits = set()
    for d in cases:
        for i in range(len(d.nodes)):
            f = d.frame
            c, p = f.cut_ends[i], f.positions[i]
            exits.add(_chord_end(f.vertices, c, (p[0] - c[0], p[1] - c[1]))[3])
            assert moved(transfer_cut, d, i) == moved(ref.fraction_transfer_cut, d, i)
    assert exits == {True, False}
    for module in (atf, ref):
        monkeypatch.setattr(module, "is_consistent", lambda d: True)
    for d in trades():
        got = moved(transfer_cut, d, 0)
        assert isinstance(got, dict)
        assert got == moved(ref.fraction_transfer_cut, d, 0)


def test_integral_regluing_matches_fraction_images_at_depth_16():
    # the fastest-growing branch; the golden stops at depth 7
    d = atf_for_markov(replay("L" * 16))
    for i in range(3):
        once = transfer_cut(d, i)
        assert once == ref.fraction_transfer_cut(d, i)
        undone = transfer_cut(once, i)
        assert undone == ref.fraction_transfer_cut(once, i)
        assert affinely_equivalent(undone, d)


# a hexagon, whose chords between vertices two or three apart end at a vertex
HEXAGON = rational_diagram(((1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)))


def chords():
    """(diagram, boundary point c, inward direction e): from each node's cut
    end through the node, on every diagram to depth 8 and on each of them
    after one transfer; along the bisectors of the corners of the standard
    triangle; and from each vertex of the hexagon to every point of the
    boundary that is a vertex or an edge midpoint not next to it."""
    for t, _ in enumerate_tree(8):
        d = atf_for_markov(t)
        for x in [d] + [transfer_cut(d, i) for i in range(3)]:
            for nd in x.nodes:
                yield x, nd.cut_end, ref._sub(nd.position, nd.cut_end)
    d = standard_cp2()
    for i, c in enumerate(d.vertices):
        (a, b), (u, v) = (ref._primitive(ref._sub(d.vertices[j % 3], c)) for j in (i - 1, i + 1))
        yield d, c, (a + u, b + v)
    verts = [(Fraction(x), Fraction(y)) for x, y in HEXAGON.vertices]
    for i, c in enumerate(verts):
        for j in range(2, 5):
            a, b = verts[(i + j) % 6], verts[(i + j + 1) % 6]
            yield HEXAGON, c, ref._sub(a, c)
            yield HEXAGON, c, ref._sub(along(a, b, Fraction(1, 2)), c)


def test_chord_end_matches_ray_search():
    kinds = set()
    for d, c, e in chords():
        den, verts = d.frame.den, d.frame.vertices
        c_int = (int(c[0] * den), int(c[1] * den))
        (x, y), q, k, at_vertex = _chord_end(verts, c_int, ref._primitive(e))
        got = ((Fraction(x, q * den), Fraction(y, q * den)), k, at_vertex)
        _, hit = ref._ray_exit(d, c, e)
        n = len(d.vertices)
        if hit in d.vertices:
            want = (hit, d.vertices.index(hit), True)
        else:
            [edge] = [i for i in range(n) if ref._on_segment(hit, d.vertices[i], d.vertices[(i + 1) % n])]
            want = (hit, edge, False)
        assert got == want, (d, c, e)
        kinds.add(at_vertex)
    assert kinds == {True, False}


@pytest.mark.parametrize("order", list(permutations(range(3))), ids=str)
def test_checker_matches_fraction_checker_after_trades(order):
    d = standard_cp2()
    for k, i in enumerate(order):
        # a trade leaves the vertices in place, so later indices still match
        d = nodal_trade(d, i)
        assert len(d.nodes) == k + 1
        assert_checkers_agree(d)
        assert_checkers_agree(from_json(d))


def rationals(bound=4, den=60):
    return st.fractions(-bound, bound, max_denominator=den)


def along(a, b, s):
    return (a[0] + (b[0] - a[0]) * s, a[1] + (b[1] - a[1]) * s)


PRIMITIVE = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda v: gcd(*v) == 1
)
KINDS = [
    "eigenvector",
    "off-eigenline",
    "position-on-boundary",
    "position-outside",
    "cut-end-edge-interior",
    "cut-end-off-boundary",
    "crossing-cuts",
    "swapped-cut-ends",
]


@st.composite
def perturbed(draw):
    """A generated diagram, after up to two transfers, with one node
    changed in one of the ways `KINDS` names."""
    d = atf_for_markov(draw(st.sampled_from(SMALL_TRIPLES)))
    for i in draw(st.lists(st.integers(0, 2), max_size=2)):
        try:
            d = transfer_cut(d, i)
        except LenscalcError:
            pass
    verts, nodes = d.vertices, list(d.nodes)
    n = len(verts)
    i = draw(st.integers(0, 2))
    j = (i + 1) % 3
    node, other = nodes[i], nodes[j]
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(0, n - 1))
    edge = verts[k], verts[(k + 1) % n]
    centroid = (sum(v[0] for v in verts) / n, sum(v[1] for v in verts) / n)
    if kind == "eigenvector":
        nodes[i] = AtfNode(node.position, draw(PRIMITIVE), node.cut_end)
    elif kind == "off-eigenline":
        shift = (draw(rationals()), draw(rationals()))
        nodes[i] = AtfNode(
            (node.position[0] + shift[0], node.position[1] + shift[1]),
            node.eigenvector,
            node.cut_end,
        )
    elif kind == "position-on-boundary":
        s = draw(st.fractions(0, 1, max_denominator=60))
        nodes[i] = AtfNode(along(*edge, s), node.eigenvector, node.cut_end)
    elif kind == "position-outside":
        s = draw(st.fractions(1, 3, max_denominator=60).filter(lambda s: s > 1))
        nodes[i] = AtfNode(along(centroid, verts[k], s), node.eigenvector, node.cut_end)
    elif kind == "cut-end-edge-interior":
        s = draw(st.fractions(0, 1, max_denominator=60).filter(lambda s: 0 < s < 1))
        nodes[i] = AtfNode(node.position, node.eigenvector, along(*edge, s))
    elif kind == "cut-end-off-boundary":
        s = draw(st.fractions(0, 3, max_denominator=60).filter(lambda s: s != 1))
        nodes[i] = AtfNode(node.position, node.eigenvector, along(centroid, verts[k], s))
    elif kind == "crossing-cuts":
        # a cut for node j through the midpoint of node i's cut, across it
        mid = along(node.position, node.cut_end, Fraction(1, 2))
        a, b = node.eigenvector
        s = draw(st.fractions(0, 1, max_denominator=60).filter(lambda s: s > 0))
        start, end = (mid[0] - b * s, mid[1] + a * s), (mid[0] + b * s, mid[1] - a * s)
        nodes[j] = AtfNode(start, other.eigenvector, end)
    else:
        nodes[i] = AtfNode(node.position, node.eigenvector, other.cut_end)
        nodes[j] = AtfNode(other.position, other.eigenvector, node.cut_end)
    out = rational_diagram(verts, tuple(nodes))
    return from_json(out) if draw(st.booleans()) else out


@settings(max_examples=400, deadline=None)
@given(perturbed())
def test_checker_matches_fraction_checker_on_perturbed_diagrams(d):
    assert_checkers_agree(d)


def lattice_length(v) -> Fraction:
    """t with v = t w, w the primitive integer direction of the rational v."""
    a, b = ref._primitive(v)
    return v[0] / a if a else v[1] / b


def json_variants(t, k: int):
    """The JSON document of t's diagram with every coordinate times k and
    its frame's denominator, so that each edge has lattice length k or more:
    as it is, with node 0's cut end moved into each edge, and with each
    node's eigenvector (0, 0) or (2, 2)."""
    d = atf_for_markov(t)
    scaled = d.to_json_obj()
    points = scaled["vertices"] + [n[key] for n in scaled["nodes"] for key in ("position", "cut_end")]
    for p in points:
        p[:] = [str(Fraction(c) * k * d.frame.den) for c in p]
    yield "scaled", scaled
    verts = scaled["vertices"]
    for j in range(len(verts)):
        doc = json.loads(json.dumps(scaled))
        a, b = verts[j], verts[j - 1]
        doc["nodes"][0]["cut_end"] = [str((Fraction(x) + Fraction(y)) / 2) for x, y in zip(a, b)]
        yield f"cut end inside edge {j}", doc
    for i in range(3):
        for eigenvector in (["0", "0"], ["2", "2"]):
            doc = json.loads(json.dumps(scaled))
            doc["nodes"][i]["eigenvector"] = eigenvector
            yield f"node {i} eigenvector {eigenvector}", doc


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("t", SMALL_TRIPLES[:4], ids=str)
def test_checker_matches_fraction_checker_on_json_edge_cases(t, k):
    # the reports test the flanking edges unreduced: at a corner whose edges
    # have lattice length > 1, inside an edge, and with an eigenvector that
    # has no monodromy, they must still read as the Fraction checker does
    want = readouts(atf_for_markov(t))
    for name, doc in json_variants(t, k):
        d = AtfDiagram.from_json_obj(doc)
        assert_checkers_agree(d)
        reports = check_consistency(d)
        if name == "scaled":
            assert all(r.passed for r in reports) and readouts(d) == want
            for node in d.nodes:
                i = d.vertices.index(node.cut_end)
                for v in (d.vertices[i - 1], d.vertices[(i + 1) % len(d.vertices)]):
                    assert lattice_length(ref._sub(v, node.cut_end)) > 1
        elif name.startswith("cut end"):
            assert not reports[0].passed and reports[0].cut_on_boundary
        else:
            i = int(name.split()[1])
            assert not reports[i].eigen_fixed and not reports[i].edges_match


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SMALL_TRIPLES),
    st.integers(0, 2),
    st.fractions(-2, 2, max_denominator=100),
)
def test_slide_interior_test_matches_reference(t, i, s):
    d = atf_for_markov(t)
    node = d.nodes[i]
    a, b = node.eigenvector
    target = (node.position[0] + a * s, node.position[1] + b * s)
    inside = ref.contains_interior(d, target)
    # the cut p - e is l (a, b), so the target is e + (p - e) r with r = 1 + s/l
    (px, py), (ex, ey) = node.position, node.cut_end
    r = 1 + s / ((px - ex) / a if a else (py - ey) / b)
    try:
        moved = nodal_slide(d, i, r.numerator, r.denominator)
    except PreconditionError:
        assert not inside
    else:
        assert inside and moved.nodes[i].position == target
        assert_checkers_agree(moved)


def slid(d, i, s):
    """d with node i slid so that its cut has s times its length, s > 0 a
    Fraction passed as its ratio of integers."""
    return nodal_slide(d, i, s.numerator, s.denominator)


def over_blocking_cases(test):
    """Run test(k, factors) on node k of the traded triangle, the other two
    nodes to be slid so that their cuts have the given factors of their
    lengths."""
    test = example(0, [Fraction(1), Fraction(4, 3), Fraction(1)])(test)  # a node on the eigenline
    test = example(0, [Fraction(1), Fraction(3, 2), Fraction(1)])(test)  # a cut crosses the eigenline
    test = example(0, [Fraction(1), Fraction(6, 5), Fraction(1)])(test)  # a cut stops short of it
    factors = st.fractions(0, 2, max_denominator=24).filter(lambda s: s > 0)
    test = given(st.integers(0, 2), st.lists(factors, min_size=3, max_size=3))(test)
    return settings(max_examples=200, deadline=None)(test)


def blocking_case(k, factors):
    """The traded triangle with every node but k slid by its factor."""
    d = standard_cp2()
    for i in range(3):
        d = nodal_trade(d, i)
    try:
        for i, s in enumerate(factors):
            if i != k:
                d = slid(d, i, s)
    except LenscalcError:
        assume(False)
    return d


@over_blocking_cases
def test_transfer_blocking_matches_reference(k, factors):
    d = blocking_case(k, factors)
    # in the traded triangle each node halves its eigenline, so the
    # eigenline of node k ends at 2 * position - cut_end, and a slide of
    # the other nodes leaves node k as it was
    n = d.nodes[k]
    c, w = n.cut_end, (2 * n.position[0] - n.cut_end[0], 2 * n.position[1] - n.cut_end[1])
    blocked = any(
        ref._on_segment(o.position, c, w)
        or ref._segments_intersect(c, w, o.position, o.cut_end)
        for j, o in enumerate(d.nodes)
        if j != k
    )
    try:
        transfer_cut(d, k)
    except UnsupportedConfigurationError as exc:
        assert blocked and "meets another node or cut" in str(exc)
    else:
        assert not blocked


@over_blocking_cases
def test_transfer_matches_search_on_blocking_cases(k, factors):
    d = blocking_case(k, factors)
    assert moved(transfer_cut, d, k) == moved(ref.transfer_cut_search, d, k)


POINTS = st.tuples(rationals(3, 3), rationals(3, 3))


@settings(max_examples=400, deadline=None)
@given(st.lists(POINTS, max_size=6))
@example([(0, 0), (1, 1), (2, 2)])  # collinear
@example([(0, 0), (0, 3), (3, 0)])  # clockwise
@example([(0, 0), (3, 0), (3, 0), (0, 3)])  # repeated vertex
@example([(0, 0), (1, 0), (0, 1), (0, 0), (1, 0), (0, 1)])  # wound twice
@example([(0, 0), (3, 2), (-1, 2), (2, 0), (1, 3)])  # pentagram
@example([(0, 0), (7, 2), (4, 7), (-2, 3), (4, 0), (7, 5), (0, 6)])  # {7/2} heptagram
@example([(0, 0), (3, 0), (3, 2), (0, 1)])  # an edge with y = 0
@example([(0, 0), (Fraction(1, 3), 0), (1, 0), (0, 1)])  # straight corner
@example([(0, 0), (1, 0), (0, 1)])
def test_vertex_validation_matches_reference(vertices):
    want = outcome(ref.validate_vertices, vertices)[0]
    got = outcome(rational_diagram, tuple(vertices))[0]
    assert got == want


@cache
def small_transferred():
    return [d for t in SMALL_TRIPLES for d in transferred(t)]


@st.composite
def generated(draw):
    """A diagram of the kinds the tests above generate: transferred, slid,
    perturbed, or the standard triangle with some corners traded."""
    kind = draw(st.sampled_from(["transferred", "slid", "perturbed", "traded"]))
    if kind == "transferred":
        return draw(st.sampled_from(small_transferred()))
    if kind == "perturbed":
        return draw(perturbed())
    if kind == "slid":
        d = atf_for_markov(draw(st.sampled_from(SMALL_TRIPLES)))
        s = draw(st.fractions(0, 2, max_denominator=24).filter(lambda s: s > 0))
        try:
            return slid(d, draw(st.integers(0, 2)), s)
        except LenscalcError:
            return d
    d = standard_cp2()
    for i in draw(st.permutations(range(3)))[: draw(st.integers(0, 3))]:
        d = nodal_trade(d, i)
    return d


ELEMENTARY = st.one_of(
    st.integers(-3, 3).map(lambda k: IntMat2(1, k, 0, 1)),
    st.integers(-3, 3).map(lambda k: IntMat2(1, 0, k, 1)),
    st.just(IntMat2(0, 1, -1, 0)),
    st.just(IntMat2(1, 0, 0, -1)),
)


@st.composite
def images(draw, d):
    """d under a random integral affine map (det +-1, rational translation),
    its vertices relabelled cyclically, its nodes shuffled, and each
    eigenvector times 1, -1, 2 or -3."""
    m = identity()
    for step in draw(st.lists(ELEMENTARY, max_size=5)):
        m = matmul(step, m)
    shift = (draw(rationals(5, 12)), draw(rationals(5, 12)))

    def image(p):
        x, y = m.apply_vec(*p)
        return (x + shift[0], y + shift[1])

    verts = [image(v) for v in d.vertices]
    if m.det() < 0:
        verts.reverse()  # a reflection turns the vertices clockwise
    r = draw(st.integers(0, len(verts) - 1))
    factors = st.lists(st.sampled_from([1, -1, 2, -3]), min_size=len(d.nodes), max_size=len(d.nodes))
    nodes = [
        AtfNode(image(nd.position), tuple(k * c for c in m.apply_vec(*nd.eigenvector)), image(nd.cut_end))
        for nd, k in zip(d.nodes, draw(factors))
    ]
    return rational_diagram(tuple(verts[r:] + verts[:r]), tuple(draw(st.permutations(nodes))))


@st.composite
def near_misses(draw, d):
    """An image of d with one node's position or cut end moved by 1/97."""
    d = draw(images(d))
    if not d.nodes:
        return d
    nodes = list(d.nodes)
    i = draw(st.integers(0, len(nodes) - 1))
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (-1, 1)]))

    def nudged(p):
        return (p[0] + Fraction(dx, 97), p[1] + Fraction(dy, 97))

    node = nodes[i]
    if draw(st.booleans()):
        nodes[i] = AtfNode(nudged(node.position), node.eigenvector, node.cut_end)
    else:
        nodes[i] = AtfNode(node.position, node.eigenvector, nudged(node.cut_end))
    return rational_diagram(d.vertices, tuple(nodes))


@st.composite
def pairs(draw):
    """A generated diagram with its image, a near miss of it, or an image of
    another generated diagram."""
    d = draw(generated())
    kind = draw(st.sampled_from(["image", "near-miss", "other"]))
    if kind == "image":
        return kind, d, draw(images(d))
    if kind == "near-miss":
        return kind, d, draw(near_misses(d))
    return kind, d, draw(images(draw(generated())))


def flatten(key):
    for part in key:
        if isinstance(part, tuple):
            yield from flatten(part)
        else:
            yield part


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_normal_form_matches_map_search(pair):
    kind, d1, d2 = pair
    want = ref.affinely_equivalent(d1, d2)
    assert affinely_equivalent(d1, d2) == want
    assert affinely_equivalent(d2, d1) == want
    if kind == "image":
        assert want
    k1, k2 = d1.normal_form, d2.normal_form
    assert all(type(c) is int for c in flatten(k1))
    assert len({k1, k2}) == (1 if want else 2)
    assert from_json(d1).normal_form == k1


def test_zero_eigenvector_equals_itself_by_normal_form():
    # only a JSON document can hold an eigenvector (0, 0); the map search
    # calls such a diagram unequal even to itself, the key does not
    doc = atf_for_markov(SMALL_TRIPLES[0]).to_json_obj()
    doc["nodes"][0]["eigenvector"] = ["0", "0"]
    d = AtfDiagram.from_json_obj(doc)
    assert d.normal_form == from_json(d).normal_form
    assert affinely_equivalent(d, d)
    assert not ref.affinely_equivalent(d, d)
    assert not affinely_equivalent(d, atf_for_markov(SMALL_TRIPLES[0]))


@pytest.mark.parametrize("t", TRIPLES_TO_6, ids=str)
def test_normal_form_matches_full_minimum_after_transfers(t):
    for d in transferred(t):
        assert d.normal_form == ref.normal_form(d)


def test_normal_form_matches_full_minimum_when_rings_tie():
    d = standard_cp2()
    for k in range(3):
        d = nodal_trade(d, k)
    _, keys = ref.labellings(d)
    assert len({ring for ring, _ in keys}) == 1  # all six rings tie
    assert d.normal_form == ref.normal_form(d)
    for k in range(3):
        # the symmetric triangle with one corner traded: the rings tie, the
        # nodes do not
        d = nodal_trade(standard_cp2(), k)
        _, keys = ref.labellings(d)
        assert len({ring for ring, _ in keys}) == 1
        assert len({nodes for _, nodes in keys}) > 1
        assert d.normal_form == ref.normal_form(d)


# polygons where several edges tie for the least lattice length, so that
# `normal_form` maps more than one shortest edge's pair of labellings
TIED_POLYGONS = {
    "square": ((0, 0), (2, 0), (2, 2), (0, 2)),
    "parallelogram": ((0, 0), (2, 0), (3, 1), (1, 1)),
    "hexagon": ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)),
    "triangle": ((0, 0), (3, 0), (0, 3)),
}


def edge_lengths(d):
    verts = d.frame.vertices
    return [gcd(p[0] - q[0], p[1] - q[1]) for p, q in zip(verts, verts[1:] + verts[:1])]


@pytest.mark.parametrize("name", sorted(TIED_POLYGONS))
def test_normal_form_matches_full_minimum_when_shortest_edges_tie(name, monkeypatch):
    # the bare polygon, each corner traded alone, and the traded standard
    # triangle, whose three corners are all traded
    bare = rational_diagram(TIED_POLYGONS[name])
    diagrams = [bare] + [nodal_trade(bare, k) for k in range(len(bare.vertices))]
    if name == "triangle":
        diagrams.append(nodal_trade(nodal_trade(diagrams[1], 1), 2))
    solves = []
    real = atf._bezout
    monkeypatch.setattr(atf, "_bezout", lambda a, b: solves.append((a, b)) or real(a, b))
    for d in diagrams:
        lengths = edge_lengths(d)
        assert lengths.count(min(lengths)) >= 2
        del solves[:]
        assert d.normal_form == ref.normal_form(d)
        assert len(solves) == lengths.count(min(lengths))  # one per shortest edge


def test_interior_matches_reference_on_a_grid():
    # seeded diagrams, in their frames scaled by 3: a grid over each one's
    # bounding box, its vertices, node positions and cut ends, and the
    # points at thirds of its edges, all integral in that frame
    rng = random.Random(25)
    diagrams = [atf_for_markov(t) for t in rng.sample(TRIPLES_TO_6, 8)]
    diagrams.append(transfer_cut(atf_for_markov(SMALL_TRIPLES[0]), 0))
    seen = set()
    for d in diagrams:
        den, *groups, _ = d.frame
        verts, positions, ends = ([(3 * x, 3 * y) for x, y in pts] for pts in groups)
        xs, ys = [x for x, _ in verts], [y for _, y in verts]
        step = max(1, (max(xs) - min(xs)) // 12)
        grid = [
            (x, y)
            for x in range(min(xs) - step, max(xs) + 2 * step, step)
            for y in range(min(ys) - step, max(ys) + 2 * step, step)
        ]
        thirds = [
            (((3 - k) * a[0] + k * b[0]) // 3, ((3 - k) * a[1] + k * b[1]) // 3)
            for a, b in zip(verts, verts[1:] + verts[:1])
            for k in (1, 2)
        ]
        for p in grid + verts + positions + ends + thirds:
            want = ref.contains_interior(d, (Fraction(p[0], 3 * den), Fraction(p[1], 3 * den)))
            assert atf._interior(verts, p) == want, (d, p)
            seen.add(want)
        assert not any(atf._interior(verts, p) for p in verts + ends + thirds)
        assert all(atf._interior(verts, p) for p in positions)
    assert seen == {False, True}


def test_segments_intersect_matches_reference_on_a_grid():
    # every pair of segments with ends on a 4 x 3 grid, in both orders:
    # point segments, collinear overlaps and gaps, shared ends, crossings
    grid = [(x, y) for x in range(4) for y in range(3)]
    segments = [(p, q) for p in grid for q in grid]
    seen = set()
    for a, b in segments:
        for c, d in segments:
            want = ref._segments_intersect(a, b, c, d)
            assert atf._segments_intersect(a, b, c, d) == want, (a, b, c, d)
            assert atf._segments_intersect(c, d, a, b) == want, (a, b, c, d)
            seen.add(want)
    assert seen == {False, True}
