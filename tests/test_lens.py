from dataclasses import FrozenInstanceError
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscalc import lens
from lenscalc.errors import DegenerateInputError, PreconditionError
from lenscalc.farey import ZERO, IntMat2, Slope
from lenscalc.lens import (
    S3,
    S1XS2,
    KnotClass,
    LensSpace,
    Orientation,
    ThreeManifold,
    TorusKnot,
    ambient_slope,
    boundary_Bpq,
    classify_torus_knot,
    lens_from_meridian_slopes,
    nonloose_surgery_result,
    surgery_splitting,
)
from lenscalc.markov import derive_q, enumerate_tree

s = Slope.parse


def homeomorphic_either(a: LensSpace, b: LensSpace) -> bool:
    return ThreeManifold((a,)).homeomorphic(ThreeManifold((b,)), Orientation.EITHER)


class TestNormalForm:
    def test_inverse_mod_r(self):
        assert LensSpace(7, 3) == LensSpace(7, 5)

    def test_ball_boundary_pair(self):
        p, q = 2, 3
        a = LensSpace(p * p, p * q - 1)
        b = LensSpace(p * p, -p * q - 1)
        assert a == b

    def test_different_order(self):
        assert not homeomorphic_either(LensSpace(7, 3), LensSpace(5, 3))

    def test_mirror_needs_either(self):
        a, b = LensSpace(7, 3), LensSpace(7, 2)
        assert a != b
        assert homeomorphic_either(a, b)

    def test_negative_r_is_orientation_reversal(self):
        assert LensSpace(-7, 3) == LensSpace(7, -3)

    def test_special_forms(self):
        assert LensSpace(1, 5).is_s3()
        assert LensSpace(0, 1).is_s1xs2()
        assert str(S3) == "S3" and str(S1XS2) == "S1xS2"

    def test_normal_forms_are_computed_once(self, monkeypatch):
        calls = []
        real = lens._normal_forms

        def counted(r, s):
            calls.append((r, s))
            return real(r, s)

        monkeypatch.setattr(lens, "_normal_forms", counted)
        a, b = LensSpace(-7, 3), LensSpace(7, 2)
        for l in (a, b):
            assert l.canonical == l.canonical
            assert hash(l) == hash(l)
            assert str(l) == str(l)
        assert (a.mirror_canonical, b.mirror_canonical) == ((7, 3), (7, 3))
        assert calls == [(7, -3), (7, 2)]

    def test_cached_forms_are_not_fields(self):
        l = LensSpace(7, 3)
        assert l.canonical == (7, 3)
        with pytest.raises(FrozenInstanceError):
            l.r = 5
        assert repr(l) == "LensSpace(r=7, s=3)"
        fresh = LensSpace(7, 3)
        assert vars(fresh) == {"r": 7, "s": 3}
        assert l == fresh and hash(l) == hash(fresh)

    def test_gcd_rejected(self):
        with pytest.raises(PreconditionError):
            LensSpace(4, 2)

    def test_hash_consistent(self):
        assert len({LensSpace(7, 3), LensSpace(7, 5)}) == 1


class TestBallBoundary:
    def test_two_one(self):
        assert boundary_Bpq(2, 1) == LensSpace(4, 1)

    def test_p_one_is_sphere(self):
        for q in (0, 1, 5, -3):
            assert boundary_Bpq(1, q).is_s3()

    def test_three_one(self):
        assert boundary_Bpq(3, 1) == LensSpace(9, 2)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            boundary_Bpq(0, 1)
        with pytest.raises(PreconditionError):
            boundary_Bpq(4, 2)


class TestThreeManifold:
    def test_absorbs_spheres(self):
        m = ThreeManifold((S3, LensSpace(4, 1), S3))
        assert m.summands == (LensSpace(4, 1),)

    def test_empty_sum_is_sphere(self):
        assert ThreeManifold(()).is_s3()

    def test_multiset_equality(self):
        a = ThreeManifold((LensSpace(4, 1), LensSpace(7, 3)))
        b = ThreeManifold((LensSpace(7, 5), LensSpace(4, 1)))
        assert a == b

    def test_multiset_counts_multiplicity(self):
        a = ThreeManifold((LensSpace(7, 3), LensSpace(7, 2)))
        assert a == ThreeManifold((LensSpace(7, 2), LensSpace(7, 5)))
        assert a != ThreeManifold((LensSpace(7, 3), LensSpace(7, 5)))
        assert a != ThreeManifold((LensSpace(7, 3),))
        assert a != ThreeManifold((LensSpace(7, 3), LensSpace(7, 2), LensSpace(4, 1)))

    def test_mirror_per_summand(self):
        a = ThreeManifold((LensSpace(7, 3),))
        b = ThreeManifold((LensSpace(7, 2),))
        assert not a.homeomorphic(b, Orientation.PRESERVING)
        assert a.homeomorphic(b, Orientation.EITHER)

    def test_json(self):
        m = ThreeManifold((LensSpace(8, 5), LensSpace(7, 3)))
        assert m.to_json_obj() == [{"lens": [8, 5]}, {"lens": [7, 3]}]


class TestClassifyTorusKnot:
    def test_negative_example(self):
        k = TorusKnot(5, -8, LensSpace(3, 1))
        assert classify_torus_knot(k) is KnotClass.NEGATIVE

    def test_positive_example(self):
        k = TorusKnot(3, 2, LensSpace(3, 1))
        assert classify_torus_knot(k) is KnotClass.POSITIVE

    def test_winding_one_is_trivial(self):
        # |q| = 1 always classifies trivial, whatever the arc test says
        k = TorusKnot(-1, 1, LensSpace(25, 29))
        assert classify_torus_knot(k) is KnotClass.TRIVIAL

    def test_trivial_example(self):
        k = TorusKnot(1, 1, LensSpace(3, 1))
        assert classify_torus_knot(k) is KnotClass.TRIVIAL

    def test_meridian_slope_rejected(self):
        with pytest.raises(DegenerateInputError):
            classify_torus_knot(TorusKnot(1, -3, LensSpace(3, 1)))

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("p, q", [(5, -8), (3, 2), (1, 1), (-1, 2), (2, -3)])
    def test_s1xs2_ambient_rejected(self, p, q, s):
        # the ambient slope is the meridian 0 itself: the clockwise arc from
        # 0 to it is empty, so no knot could read positive
        k = TorusKnot(p, q, LensSpace(0, s))
        with pytest.raises(DegenerateInputError):
            classify_torus_knot(k)
        with pytest.raises(DegenerateInputError):
            nonloose_surgery_result(k)

    @pytest.mark.filterwarnings("error")
    def test_trivial_iff_surgery_splits_off_at_most_one_summand(self):
        # a knot is a core of a Heegaard solid torus iff surgery on it gives
        # a lens space: the splitting has at most one summand that is not S^3
        seen = set()
        for r in range(2, 13):
            for amb_s in range(-r, r + 1):
                if gcd(r, amb_s) != 1:
                    continue
                ambient = LensSpace(r, amb_s)
                amb = ambient_slope(ambient)
                for p in range(-12, 13):
                    for q in range(-12, 13):
                        if gcd(p, q) != 1 or Slope(q, p) in (ZERO, amb):
                            continue
                        k = TorusKnot(p, q, ambient)
                        lens_space = len(surgery_splitting(k.farey_point, amb).summands) <= 1
                        assert (classify_torus_knot(k) is KnotClass.TRIVIAL) == lens_space, k
                        seen.add(lens_space)
        assert seen == {True, False}


class TestMeridianGluing:
    def test_first_piece(self):
        assert lens_from_meridian_slopes(s("-8/5"), s("0")) == LensSpace(8, 5)

    def test_second_piece(self):
        assert lens_from_meridian_slopes(s("-3"), s("-8/5")) == LensSpace(7, 3)

    def test_sphere(self):
        assert lens_from_meridian_slopes(s("0"), s("inf")).is_s3()

    def test_equal_slopes(self):
        assert lens_from_meridian_slopes(s("1/2"), s("1/2")).is_s1xs2()

    @given(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(lambda t: t != (0, 0)),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(lambda t: t != (0, 0)),
        st.lists(st.sampled_from(["S", "T", "F"]), max_size=6),
    )
    @settings(max_examples=80)
    def test_basis_change_invariance(self, t1, t2, word):
        m1, m2 = Slope(*t1), Slope(*t2)
        if m1 == m2:
            return
        gens = {
            "S": IntMat2(0, -1, 1, 0),
            "T": IntMat2(1, 1, 0, 1),
            "F": IntMat2(1, 0, 0, -1),
        }
        g = IntMat2.identity()
        for ch in word:
            g = gens[ch] @ g
        before = lens_from_meridian_slopes(m1, m2)
        after = lens_from_meridian_slopes(g.apply(m1), g.apply(m2))
        if g.det() == 1:
            assert before == after
        else:
            assert homeomorphic_either(before, after)


class TestSurgerySplitting:
    def test_worked_example(self):
        k = TorusKnot(5, -8, LensSpace(3, 1))
        out = nonloose_surgery_result(k)
        assert out == ThreeManifold((LensSpace(8, 5), LensSpace(7, 3)))
        assert out.to_json_obj() == [{"lens": [8, 5]}, {"lens": [7, 3]}]

    def test_positive_knot_rejected(self):
        with pytest.raises(PreconditionError):
            nonloose_surgery_result(TorusKnot(-1, 1, LensSpace(25, 29)))

    def test_trivial_knot_rejected(self):
        with pytest.raises(PreconditionError):
            nonloose_surgery_result(TorusKnot(1, 1, LensSpace(3, 1)))

    def test_splitting_pieces_match_direct_gluings(self):
        sigma, amb = s("-8/5"), s("-3")
        m = surgery_splitting(sigma, amb)
        assert m == ThreeManifold(
            (
                lens_from_meridian_slopes(sigma, s("0")),
                lens_from_meridian_slopes(amb, sigma),
            )
        )


class TestMutationMatrixIdentities:
    def test_sweep_depth_eight(self):
        # the unimodular matrix built from (p1, q1) carries the (p2, q2)
        # ball-boundary data to the (p3, q3) data and back
        for t, _ in enumerate_tree(8):
            p1, p2, p3 = t.entries()
            q = derive_q(t)
            q1, q2, q3 = q.entries()
            m = IntMat2(-p1 * q1 - 1, q1 * q1, -p1 * p1, p1 * q1 - 1)
            assert m.det() == 1
            assert m.apply_vec(1 - p2 * q2, p2 * p2) == (p3 * q3 - 1, p3 * p3)
            assert m.inverse().apply_vec(p3 * q3 - 1, p3 * p3) == (1 - p2 * q2, p2 * p2)


class TestAmbientSlope:
    def test_raw_coefficients(self):
        assert ambient_slope(LensSpace(3, 1)) == s("-3")
        assert ambient_slope(LensSpace(-25, 29)) == s("25/29")
