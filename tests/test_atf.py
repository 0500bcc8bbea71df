from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscalc.atf import (
    AtfDiagram,
    AtfNode,
    affinely_equivalent,
    atf_for_markov,
    check_consistency,
    is_consistent,
    monodromy,
    nodal_slide,
    nodal_trade,
    node_boundary_lens,
    pt,
    standard_cp2,
    transfer_cut,
)
from lenscalc.errors import InvariantError, PreconditionError
from lenscalc.farey import IntMat2
from lenscalc.lens import LensSpace, Orientation, boundary_Bpq, lens_homeomorphic
from lenscalc.markov import MarkovTriple, derive_q, enumerate_tree

# the depth-6 triples whose diagrams the mutation replay could not build
REPLAY_FAILURES = [
    (433, 37666, 48928105),
    (29, 37666, 3276509),
    (169, 14701, 7453378),
    (29, 14701, 1278818),
]


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
    def test_one_one(self):
        assert monodromy(1, 1) == IntMat2(0, 1, -1, 2)
        assert monodromy(1, 1).apply_vec(1, 1) == (1, 1)

    def test_two_one(self):
        assert monodromy(2, 1) == IntMat2(-1, 4, -1, 3)

    def test_imprimitive_rejected(self):
        with pytest.raises(PreconditionError):
            monodromy(2, 4)

    @given(
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)).filter(
            lambda t: t != (0, 0) and gcd(t[0], t[1]) == 1
        )
    )
    def test_determinant_and_fixed_vector(self, ab):
        a, b = ab
        m = monodromy(a, b)
        assert m.det() == 1
        assert m.apply_vec(a, b) == (a, b)


class TestDiagramBasics:
    def test_standard_triangle(self):
        d = standard_cp2()
        assert d.vertices == (pt(0, 0), pt(3, 0), pt(0, 3))
        assert d.nodes == ()
        assert is_consistent(d)

    def test_nonconvex_rejected(self):
        with pytest.raises(InvariantError):
            AtfDiagram((pt(0, 0), pt(0, 3), pt(3, 0)))  # clockwise

    def test_json_round_trip(self):
        d = traded_triangle()
        assert AtfDiagram.from_json_obj(d.to_json_obj()) == d


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
        moved = nodal_slide(d, 0, halfway)
        assert moved.nodes[0].position == halfway
        assert nodal_slide(moved, 0, node.position) == d

    def test_readout_unchanged(self):
        d = traded_triangle()
        before = [node_boundary_lens(d, i) for i in range(3)]
        node = d.nodes[1]
        target = (
            node.cut_end[0] + (node.position[0] - node.cut_end[0]) * Fraction(3, 4),
            node.cut_end[1] + (node.position[1] - node.cut_end[1]) * Fraction(3, 4),
        )
        moved = nodal_slide(d, 1, target)
        assert [node_boundary_lens(moved, i) for i in range(3)] == before

    def test_off_eigenline_rejected(self):
        d = traded_triangle()
        node = d.nodes[0]
        bad = (node.position[0] + 7, node.position[1])
        with pytest.raises(PreconditionError):
            nodal_slide(d, 0, bad)


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


class TestConsistencyChecker:
    def test_perturbed_eigenvector_fails(self):
        d = traded_triangle()
        node = d.nodes[0]
        a, b = node.eigenvector
        while gcd(a, b + 1) != 1:
            b += 1
        bad = AtfNode(node.position, (a, b + 1), node.cut_end)
        broken = AtfDiagram(d.vertices, (bad,) + d.nodes[1:])
        reports = check_consistency(broken)
        assert not reports[0].passed
        assert all(r.passed for r in reports[1:])

    def test_sweep_of_generated_diagrams(self):
        for t, _ in enumerate_tree(4):
            assert is_consistent(atf_for_markov(t))


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

        moved = AtfDiagram(
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

