import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscalc.errors import InvariantError, PreconditionError
from lenscalc.farey import IntMat2
from lenscalc.handles import (
    HorizontalDiagram,
    Slot,
    TorusCurve,
    boundary_of_diagram,
    build_X,
    composite_twist,
    recognize_cp2,
    slide_mutation,
    twist_matrix,
    two_curve_subdiagram,
)
from lenscalc.lens import LensSpace, Orientation, ThreeManifold, boundary_Bpq
from lenscalc.markov import MarkovTriple, QTriple, derive_q, enumerate_tree

TREE8 = [t for t, _ in enumerate_tree(8)]


def curves_st():
    return st.tuples(st.integers(-15, 15), st.integers(-15, 15)).filter(
        lambda t: abs(t[0]) + abs(t[1]) > 0
    ).map(lambda t: (t[0], t[1]))


def primitive_curves_st():
    from math import gcd

    return curves_st().filter(lambda t: gcd(t[0], t[1]) == 1).map(
        lambda t: TorusCurve(t[0], t[1])
    )


class TestTorusCurve:
    def test_imprimitive_rejected(self):
        with pytest.raises(InvariantError):
            TorusCurve(2, 4)

    def test_bad_framing_rejected(self):
        with pytest.raises(InvariantError):
            TorusCurve(1, 0, framing=0)


class TestTwistMatrix:
    def test_matrix_entries(self):
        p, q = 2, 1
        m = twist_matrix(TorusCurve(-p, q))
        assert m == IntMat2(1 - p * q, -q * q, p * p, 1 + p * q)

    def test_curve_class_fixed(self):
        c = TorusCurve(-2, 1)
        assert twist_matrix(c).apply_vec(c.lam, c.mu) == (c.lam, c.mu)

    def test_longitude_image(self):
        m = twist_matrix(TorusCurve(-2, 1))
        assert m.apply_vec(1, 0) == (-1, 4)

    @given(primitive_curves_st())
    def test_determinant_one(self, c):
        assert twist_matrix(c).det() == 1

    @given(primitive_curves_st())
    def test_opposite_framings_invert(self, c):
        flipped = TorusCurve(c.mu, c.lam, -c.framing)
        assert twist_matrix(c) @ twist_matrix(flipped) == IntMat2.identity()


class TestPushPast:
    """Pushing a class (lam; mu) past a surgery curve applies its twist."""

    def test_longitude_formula(self):
        for p, q in [(2, 1), (3, 2), (5, 1)]:
            assert twist_matrix(TorusCurve(-p, q)).apply_vec(1, 0) == (1 - p * q, p * p)

    def test_meridian_formula(self):
        for p, q in [(2, 1), (3, 2), (5, 1)]:
            assert twist_matrix(TorusCurve(-p, q)).apply_vec(0, 1) == (-q * q, 1 + p * q)

    def test_composition_example(self):
        # (1,2,5) with q = (0, 15): longitude lands on (-29)*lambda + (-25)*mu
        d = HorizontalDiagram((TorusCurve(-2, 15), TorusCurve(1, 0)))
        lam, mu = composite_twist(d).apply_vec(1, 0)
        assert (lam, mu) == (-29, -25)

    @given(primitive_curves_st(), primitive_curves_st())
    def test_preserves_primitivity(self, v, c):
        from math import gcd

        assert gcd(*twist_matrix(c).apply_vec(v.lam, v.mu)) == 1

    def test_belt_sphere_class_sweep(self):
        # pushing the longitude past the (p1, q1) curve gives (p1q1+1; p1^2)
        for t in TREE8:
            q = derive_q(t)
            lam, mu = twist_matrix(TorusCurve(t.p1, q.q1)).apply_vec(1, 0)
            assert (lam, mu) == (t.p1 * q.q1 + 1, t.p1 * t.p1)


class TestBoundary:
    def test_one_curve(self):
        d = HorizontalDiagram((TorusCurve(-2, 1),))
        assert boundary_of_diagram(d) == ThreeManifold((LensSpace(4, 1),))

    def test_two_curve_example(self):
        d = HorizontalDiagram((TorusCurve(-2, 15), TorusCurve(1, 0)))
        assert boundary_of_diagram(d) == ThreeManifold((LensSpace(-25, 29),))

    def test_empty_diagram(self):
        d = HorizontalDiagram(())
        assert boundary_of_diagram(d).summands[0].is_s1xs2()

    def test_two_curve_sweep(self):
        for t in TREE8:
            q = derive_q(t)
            d = two_curve_subdiagram(build_X(t, q))
            expect = LensSpace(-t.p3 * t.p3, t.p3 * q.q3 - 1)
            assert boundary_of_diagram(d) == ThreeManifold((expect,))

    def test_closed_diagram_caps_off(self):
        # after all three surgery curves the boundary is S^1 x S^2, which
        # the single 3-handle (plus the 4-handle) closes off
        for p in [(1, 1, 1), (1, 2, 5), (2, 5, 29)]:
            t = MarkovTriple(*p)
            d = build_X(t, derive_q(t))
            assert (d.n3, d.n4) == (1, 1)
            m = boundary_of_diagram(d)
            assert len(m.summands) == 1 and m.summands[0].is_s1xs2()

    def test_transit_maps_invert(self):
        d = HorizontalDiagram((TorusCurve(-2, 15), TorusCurve(1, 0), TorusCurve(5, 6)))
        # the inward map: the curves outermost first, framings flipped
        inward = HorizontalDiagram(
            tuple(TorusCurve(c.mu, c.lam, -c.framing) for c in reversed(d.curves))
        )
        assert composite_twist(d) @ composite_twist(inward) == IntMat2.identity()


class TestBuildX:
    def test_root_curves(self):
        d = build_X(MarkovTriple(1, 1, 1), derive_q(MarkovTriple(1, 1, 1)))
        assert [(c.mu, c.lam) for c in d.curves] == [(-1, 3), (1, 0), (1, 3)]
        assert all(c.framing == -1 for c in d.curves)
        assert (d.n3, d.n4) == (1, 1)

    def test_bad_q_rejected(self):
        t = MarkovTriple(1, 1, 1)
        with pytest.raises(PreconditionError):
            build_X(t, QTriple(1, 3, 3, 1, 0))


class TestRecognize:
    def test_root_spot_values(self):
        t = MarkovTriple(1, 1, 1)
        ok, x = recognize_cp2(build_X(t, derive_q(t)))
        assert ok and x == (3, -6, -3)

    def test_one_two_five_spot_values(self):
        t = MarkovTriple(1, 2, 5)
        ok, x = recognize_cp2(build_X(t, derive_q(t)))
        assert ok and x == (6, -87, -15)

    def test_zero_intersections_rejected_as_cp2(self):
        d = HorizontalDiagram((TorusCurve(1, 0), TorusCurve(1, 0), TorusCurve(1, 0)))
        ok, x = recognize_cp2(d)
        assert not ok and x == (0, 0, 0)

    def test_wrong_curve_count(self):
        with pytest.raises(PreconditionError):
            recognize_cp2(HorizontalDiagram((TorusCurve(1, 0),)))

    def test_sweep(self):
        for t in TREE8:
            ok, _ = recognize_cp2(build_X(t, derive_q(t)))
            assert ok


class TestSlideMutation:
    def test_worked_example(self):
        # (p1, p2, q1, q2) = (1, 1, 0, 3) mutates to (p1', q1') = (2, 9)
        d = HorizontalDiagram((TorusCurve(-1, 3), TorusCurve(1, 0)))
        out = slide_mutation(d, Slot.FIRST)
        moved = out.curves[1]
        assert (moved.mu, moved.lam) == (2, 9)

    def test_mutation_formulas_both_slots(self):
        for t in TREE8:
            p1, p2, p3 = t.entries()
            q = derive_q(t)
            d = two_curve_subdiagram(build_X(t, q))
            first = slide_mutation(d, Slot.FIRST).curves[1]
            assert (first.mu, first.lam) == (3 * p2 * p3 - p1, 3 * q.q2 * p3 + q.q1)
            second = slide_mutation(d, Slot.SECOND).curves[1]
            assert (second.mu, second.lam) == (3 * p1 * p3 - p2, 3 * q.q1 * p3 + q.q2)

    def test_boundary_preserved(self):
        for p in [(1, 1, 1), (1, 2, 5), (2, 5, 29), (1, 5, 13)]:
            t = MarkovTriple(*p)
            d = two_curve_subdiagram(build_X(t, derive_q(t)))
            before = boundary_of_diagram(d)
            for slot in Slot:
                after = boundary_of_diagram(slide_mutation(d, slot))
                assert before.homeomorphic(after, Orientation.EITHER)

    def test_needs_two_curves(self):
        with pytest.raises(PreconditionError):
            slide_mutation(HorizontalDiagram((TorusCurve(1, 0),)), Slot.FIRST)


class TestCrossModuleBoundary:
    def test_matches_ball_boundary_formula(self):
        from math import gcd

        for p in range(1, 31):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                d = HorizontalDiagram((TorusCurve(-p, q),))
                assert boundary_of_diagram(d) == ThreeManifold((boundary_Bpq(p, q),))


class TestSerialization:
    def test_round_trip(self):
        d = build_X(MarkovTriple(1, 2, 5), derive_q(MarkovTriple(1, 2, 5)))
        assert HorizontalDiagram.from_json_obj(d.to_json_obj()) == d

    def test_wire_shape(self):
        d = HorizontalDiagram((TorusCurve(-1, 3),), n3=1, n4=1)
        assert d.to_json_obj() == {
            "curves": [{"mu": "-1", "lambda": "3", "framing": -1}],
            "handles": {"h0": 1, "h1": 1, "h3": 1, "h4": 1},
        }

    def test_malformed_rejected(self):
        with pytest.raises(InvariantError):
            HorizontalDiagram.from_json_obj({"curves": [{"mu": "1"}]})
