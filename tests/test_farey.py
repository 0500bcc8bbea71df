from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farey_reference import identity, matmul, transvection
from lenscalc.errors import DegenerateInputError, InvariantError, PreconditionError
from lenscalc.farey import (
    Classification,
    DecoratedPath,
    EdgeSign,
    IntMat2,
    Slope,
    _decimal,
    classify,
    cw_between,
    det,
    is_farey_edge,
    minimal_path,
    minimal_path_length,
    shorten,
    totally_inconsistent_path,
    transvect,
)

s = Slope.parse


def slopes_st(bound=60):
    return st.tuples(
        st.integers(-bound, bound), st.integers(-bound, bound)
    ).filter(lambda t: t != (0, 0)).map(lambda t: Slope(*t))


class TestSlope:
    def test_normalization(self):
        assert Slope(2, 4) == Slope(1, 2)
        assert Slope(-2, -4) == Slope(1, 2)
        assert Slope(3, -6) == Slope(-1, 2)

    def test_infinity_representative(self):
        assert Slope(-5, 0) == Slope(1, 0)
        assert (Slope(-5, 0).num, Slope(-5, 0).den) == (1, 0)

    def test_zero_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            Slope(0, 0)

    def test_parse(self):
        assert s("-8/5") == Slope(-8, 5)
        assert s("3") == Slope(3, 1)
        assert s("inf") == Slope(1, 0)

    def test_parse_past_the_digit_limit(self):
        # int() refuses more than 4300 digits, with its own text
        for text in ["9" * 5000, "1/" + "9" * 5000]:
            with pytest.raises(ValueError) as info:
                s(text)
            assert str(info.value) == "not a slope n or n/d: " + repr(text)[:40]


class TestDecimalReader:
    """The one reader of "n" and "n/d" in ASCII decimal digits, behind every
    JSON integer and rational and every integer, slope and slide argument."""

    @pytest.mark.parametrize(
        "text, want",
        [("0", (0, 1)), ("-8/5", (-8, 5)), ("5/0", (5, 0)), ("-0/0", (0, 0)), ("08/05", (8, 5)),
         ("9" * 4300, (int("9" * 4300), 1))],
        ids=repr,
    )
    def test_reads_n_and_n_over_d(self, text, want):
        assert _decimal(text) == want

    @pytest.mark.parametrize(
        "text",
        ["", "/", "1/", "/2", "1/2/3", "+1", "3/-2", " 3", "3 ", "1_0", "\u0663", "1.5", "1e3",
         "inf", "9" * 4301, "1/" + "9" * 5000, 5, None, ["1"], b"1"],
        ids=lambda t: repr(t)[:20],
    )
    def test_anything_else_is_none(self, text):
        assert _decimal(text) is None


def mult(u, v):
    """Farey multiplication: det of the primitive representatives."""
    return det((u.num, u.den), (v.num, v.den))


def mediant(u, v):
    return Slope(u.num + v.num, u.den + v.den)


class TestFareyMult:
    def test_infinity_zero(self):
        assert mult(s("inf"), s("0")) == 1

    def test_edge_value(self):
        assert mult(s("-8/5"), s("-3/2")) == -1

    def test_non_edge(self):
        assert mult(s("-8/5"), s("-1")) == -3

    @given(slopes_st(), slopes_st())
    def test_antisymmetric(self, u, v):
        assert mult(u, v) == -mult(v, u)

    def test_mediant_adjacent_to_both_exhaustive(self):
        # all Farey edges between slopes in [0, 1] u {inf} with den <= 50
        pts = [Slope(1, 0)]
        for den in range(1, 51):
            for num in range(0, den + 1):
                p = Slope(num, den)
                if p.den == den:
                    pts.append(p)
        for i, u in enumerate(pts):
            for v in pts[i + 1 :]:
                if abs(mult(u, v)) == 1:
                    m = mediant(u, v)
                    assert abs(mult(m, u)) == 1
                    assert abs(mult(m, v)) == 1

    def test_fraction_pairs(self):
        assert det((Fraction(1, 2), Fraction(3)), (Fraction(-1, 3), Fraction(2, 5))) == Fraction(6, 5)


VECS = st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70))


class TestTransvection:
    @given(VECS, st.integers(-5, 5))
    def test_fixes_its_vector_with_det_one(self, e, k):
        m = transvection(*e, k)
        assert m.apply_vec(*e) == e
        assert m.det() == 1

    @given(VECS)
    def test_opposite_signs_invert(self, e):
        assert matmul(transvection(*e, 1), transvection(*e, -1)) == identity()

    @given(VECS, VECS, st.integers(-5, 5))
    def test_action(self, e, v, k):
        t = k * det(e, v)
        assert transvection(*e, k).apply_vec(*v) == (v[0] + t * e[0], v[1] + t * e[1])

    def test_vector_form_matches_the_matrix_on_a_grid(self):
        # e and v in [-4, 4]^2: (0, 0) and non-primitive e such as (2, 4) included
        grid = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for e in grid:
            for k in (-1, 0, 1):
                m = transvection(*e, k)
                for v in grid:
                    assert transvect(*e, k, *v) == m.apply_vec(*v), (e, k, v)

    @given(VECS, VECS, st.integers(-5, 5))
    def test_vector_form_matches_the_matrix(self, e, v, k):
        assert transvect(*e, k, *v) == transvection(*e, k).apply_vec(*v)


class TestMinimalPath:
    def test_path_to_zero(self):
        assert minimal_path(s("-8/5"), s("0")) == [s("-8/5"), s("-3/2"), s("-1"), s("0")]

    def test_path_between_negatives(self):
        assert minimal_path(s("-3"), s("-8/5")) == [s("-3"), s("-2"), s("-5/3"), s("-8/5")]

    def test_integer_descent(self):
        assert minimal_path(s("-3"), s("0")) == [s("-3"), s("-2"), s("-1"), s("0")]

    def test_equal_endpoints_rejected(self):
        with pytest.raises(PreconditionError):
            minimal_path(s("1/2"), s("1/2"))

    def test_wraps_through_infinity(self):
        path = minimal_path(s("1"), s("-1"))
        assert path[0] == s("1") and path[-1] == s("-1")
        assert Slope(1, 0) in path

    @given(slopes_st(25), slopes_st(25))
    @settings(max_examples=60)
    def test_chord_free_and_clockwise(self, u, v):
        if u == v:
            return
        path = minimal_path(u, v)
        # consecutive vertices adjacent, no chords, valid as a decorated path
        deco = DecoratedPath(tuple(path), tuple(EdgeSign.PLUS for _ in path[1:]))
        assert deco.is_minimal()

    def test_decorated_path_agrees_on_the_oracle_range(self):
        # criterion 7 compares minimal_path with its oracle's geodesics and
        # builds no DecoratedPath, so validation and is_minimal are checked
        # here on every pair of slopes in [-2, 0] with denominator <= 12:
        # the path validates and is minimal, and a mediant detour on any
        # one edge validates and is not
        pts = sorted(
            (Slope(num, den) for den in range(1, 13) for num in range(-2 * den, 1)
             if gcd(num, den) == 1),
            key=lambda p: Fraction(p.num, p.den),
        )
        for i, u in enumerate(pts):
            for v in pts[i + 1 :]:
                path = minimal_path(u, v)
                plus = (EdgeSign.PLUS,) * len(path)
                assert DecoratedPath(tuple(path), plus[1:]).is_minimal(), (u, v)
                for k in range(len(path) - 1):
                    detour = (*path[: k + 1], mediant(path[k], path[k + 1]), *path[k + 1 :])
                    assert not DecoratedPath(detour, plus).is_minimal(), (u, v, k)


class TestMinimalPathLength:
    def test_equals_the_path_length_on_small_pairs(self):
        pts = {Slope(num, den) for num in range(-13, 14) for den in range(9) if num or den}
        for u in pts:
            for v in pts - {u}:
                assert minimal_path_length(u, v) == len(minimal_path(u, v)), (u, v)

    @given(slopes_st(3000), slopes_st(3000))
    @settings(max_examples=200)
    def test_equals_the_path_length(self, u, v):
        if u != v:
            assert minimal_path_length(u, v) == len(minimal_path(u, v))

    def test_long_paths_without_building_them(self):
        assert minimal_path_length(s("-1000000000000"), s("0")) == 10**12 + 1
        assert minimal_path_length(s("0"), Slope(2**64, 1)) == 2**64 + 1
        assert minimal_path_length(s("-100000"), s("0")) == 100_001

    def test_equal_endpoints_rejected(self):
        with pytest.raises(PreconditionError, match="path endpoints must be distinct"):
            minimal_path_length(s("1/2"), s("1/2"))


def _insert_mediants(path, times):
    # refine an edge with the triangle vertex inside the clockwise arc
    out = list(path)
    for _ in range(times):
        i = (len(out) - 1) // 2
        u, v = out[i], out[i + 1]
        m = mediant(u, v)
        if not cw_between(u, m, v):
            m = Slope(u.num - v.num, u.den - v.den)
        out.insert(i + 1, m)
    return out


class TestShorten:
    def _signed(self, slopes, signs):
        return DecoratedPath(tuple(slopes), tuple(EdgeSign(x) for x in signs))

    def test_opposite_junction_detected(self):
        p = self._signed(
            [s("-3"), s("-2"), s("-5/3"), s("-8/5"), s("-3/2"), s("-1"), s("0")],
            ["o", "+", "+", "-", "-", "o"],
        )
        res = shorten(p)
        assert [str(x) for x in res.path.slopes] == ["-3", "-2", "-1", "0"]
        assert res.opposite_sign_junction

    def test_minimal_is_fixed_point(self):
        p = self._signed([s("-3"), s("-2"), s("-1"), s("0")], ["o", "+", "o"])
        res = shorten(p)
        assert res.path == p and not res.removed_any

    def test_uniform_signs_no_junction(self):
        p = self._signed(
            [s("-3"), s("-2"), s("-5/3"), s("-8/5"), s("-3/2"), s("-1"), s("0")],
            ["o", "+", "+", "+", "+", "o"],
        )
        res = shorten(p)
        assert [str(x) for x in res.path.slopes] == ["-3", "-2", "-1", "0"]
        assert not res.opposite_sign_junction

    @given(slopes_st(20), slopes_st(20), st.integers(0, 4))
    @settings(max_examples=60)
    def test_idempotent_and_minimal(self, u, v, extra):
        if u == v:
            return
        slopes = _insert_mediants(minimal_path(u, v), extra)
        p = DecoratedPath(tuple(slopes), tuple(EdgeSign.MINUS for _ in slopes[1:]))
        once = shorten(p)
        assert once.path.is_minimal()
        assert shorten(once.path).path == once.path


class TestClassify:
    def _signed(self, slopes, signs):
        return DecoratedPath(tuple(slopes), tuple(EdgeSign(x) for x in signs))

    def test_inconsistent_is_overtwisted(self):
        p = self._signed(
            [s("-3"), s("-2"), s("-5/3"), s("-8/5"), s("-3/2"), s("-1"), s("0")],
            ["o", "+", "+", "-", "-", "o"],
        )
        assert classify(p) is Classification.OVERTWISTED

    def test_minimal_uniform_is_universally_tight(self):
        p = self._signed([s("-8/5"), s("-3/2"), s("-1"), s("0")], ["o", "-", "o"])
        assert classify(p) is Classification.UNIVERSALLY_TIGHT

    def test_minimal_mixed_is_virtually_overtwisted(self):
        p = self._signed([s("-4"), s("-3"), s("-2"), s("-1"), s("0")], ["o", "+", "-", "o"])
        assert classify(p) is Classification.VIRTUALLY_OVERTWISTED

    def test_nonminimal_uniform_is_undetermined(self):
        p = self._signed(
            [s("-3"), s("-2"), s("-5/3"), s("-8/5"), s("-3/2"), s("-1"), s("0")],
            ["o", "+", "+", "+", "+", "o"],
        )
        assert classify(p) is Classification.UNDETERMINED

    def test_malformed_decoration_rejected(self):
        p = self._signed([s("-3"), s("-2"), s("-1"), s("0")], ["+", "+", "o"])
        with pytest.raises(InvariantError):
            classify(p)

    @given(slopes_st(20), slopes_st(20), st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_sign_flip_invariance(self, u, v, coin):
        if u == v:
            return
        slopes = _insert_mediants(minimal_path(u, v), 2)
        if len(slopes) < 3:
            return
        interior = [
            EdgeSign.PLUS if coin[i % len(coin)] else EdgeSign.MINUS
            for i in range(len(slopes) - 3)
        ]
        signs = [EdgeSign.RING] + interior + [EdgeSign.RING]
        flip = {EdgeSign.PLUS: EdgeSign.MINUS, EdgeSign.MINUS: EdgeSign.PLUS}
        flipped = [flip.get(x, x) for x in signs]
        p1 = DecoratedPath(tuple(slopes), tuple(signs))
        p2 = DecoratedPath(tuple(slopes), tuple(flipped))
        assert classify(p1) is classify(p2)


class TestTotallyInconsistent:
    def test_figure_path(self):
        p = totally_inconsistent_path(s("-3"), s("-8/5"))
        assert [str(x) for x in p.slopes] == ["-3", "-2", "-5/3", "-8/5", "-3/2", "-1", "0"]
        assert [x.value for x in p.signs] == ["o", "+", "+", "-", "-", "o"]
        assert classify(p) is Classification.OVERTWISTED

    def test_outside_arc_rejected(self):
        with pytest.raises(PreconditionError):
            totally_inconsistent_path(s("-3"), s("1/2"))

    def test_sign_flip_classifies_identically(self):
        p = totally_inconsistent_path(s("-3"), s("-8/5"))
        flip = {EdgeSign.PLUS: EdgeSign.MINUS, EdgeSign.MINUS: EdgeSign.PLUS}
        q = DecoratedPath(p.slopes, tuple(flip.get(x, x) for x in p.signs))
        assert classify(p) is classify(q)

    def test_overtwisted_when_both_legs_bend(self):
        # bends with interior edges on both sides force an opposite junction
        for lens_slope, at in [("-3", "-5/3"), ("-7/2", "-5/3")]:
            p = totally_inconsistent_path(s(lens_slope), s(at))
            assert classify(p) is Classification.OVERTWISTED


class TestDecoratedPathValidation:
    def test_non_adjacent_rejected(self):
        with pytest.raises(InvariantError):
            DecoratedPath((s("0"), s("2/5")), (EdgeSign.PLUS,))

    def test_wrong_sign_count_rejected(self):
        with pytest.raises(InvariantError):
            DecoratedPath((s("0"), s("1")), (EdgeSign.PLUS, EdgeSign.PLUS))

    def test_counterclockwise_rejected(self):
        with pytest.raises(InvariantError):
            DecoratedPath((s("0"), s("-1"), s("-2")), (EdgeSign.PLUS, EdgeSign.PLUS))

    def test_json_round_trip(self):
        p = totally_inconsistent_path(s("-3"), s("-8/5"))
        assert DecoratedPath.from_json_obj(p.to_json_obj()) == p

    @pytest.mark.parametrize(
        "slope",
        ["10", ["1"], ["1", "0", "x"], {"1": "x", "0": "y"}],
        ids=["string", "one-entry", "three-entry", "object"],
    )
    def test_each_slope_is_an_array_of_two_entries(self, slope):
        # a string or an object unpacks as a pair: "10" and the keys "1", "0" read as inf
        obj = {"slopes": [slope, ["-1", "1"], ["0", "1"]], "signs": ["o", "o"]}
        with pytest.raises(InvariantError) as info:
            DecoratedPath.from_json_obj(obj)
        assert str(info.value) == "not a pair: " + repr(slope)[:40]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("signs", "o-o", "not an array: 'o-o'"),
            ("signs", {"o": 1, "-": 2, "+": 3}, "not an array: {'o': 1, '-': 2, '+': 3}"),
            ("slopes", "abc", "not an array: 'abc'"),
            ("slopes", {"a": 1}, "not an array: {'a': 1}"),
        ],
        ids=["signs-string", "signs-object", "slopes-string", "slopes-object"],
    )
    def test_slopes_and_signs_are_arrays(self, field, value, message):
        # "o-o" once read as the three signs o, -, o, and an object as its keys
        slopes = [["-8", "5"], ["-3", "2"], ["-1", "1"], ["0", "1"]]
        obj = {"slopes": slopes, "signs": ["o", "-", "o"]}
        signs = (EdgeSign.RING, EdgeSign.MINUS, EdgeSign.RING)
        assert DecoratedPath.from_json_obj(obj).signs == signs
        with pytest.raises(InvariantError) as info:
            DecoratedPath.from_json_obj({**obj, field: value})
        assert str(info.value) == message


class TestValueSemantics:
    """Slotted frozen dataclasses: no instance dict, no assignment, and the
    repr, equality and hash of the field values."""

    def test_fields_are_frozen_and_there_is_no_dict(self):
        v = Slope(-8, 5)
        p = DecoratedPath((s("-1"), s("0")), (EdgeSign.RING,))
        cases = ((v, "num", 1), (v, "den", 1), (p, "slopes", ()), (p, "signs", ()))
        for obj, field, value in cases:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field, value)
            assert not hasattr(obj, "__dict__")
        assert (v.num, v.den) == (-8, 5)

    def test_repr(self):
        assert repr(Slope(-8, 5)) == "Slope(num=-8, den=5)"
        assert repr(Slope(16, -10)) == "Slope(num=-8, den=5)"

    @given(slopes_st(10), slopes_st(10))
    def test_equality_and_hash_follow_the_fields(self, u, v):
        assert (u == v) == ((u.num, u.den) == (v.num, v.den))
        assert hash(u) == hash((u.num, u.den))
        assert len({u, v, Slope(u.num, u.den)}) == (1 if u == v else 2)

    def test_decorated_path_stores_tuples(self):
        slopes = [s("-3"), s("-2"), s("-1"), s("0")]
        signs = [EdgeSign.RING, EdgeSign.PLUS, EdgeSign.RING]
        p = DecoratedPath(slopes, signs)
        assert type(p.slopes) is tuple and type(p.signs) is tuple
        assert p == DecoratedPath(tuple(slopes), tuple(signs))
        assert hash(p) == hash(DecoratedPath(tuple(slopes), tuple(signs)))
        slopes.append(s("1"))
        assert len(p.slopes) == 4


class TestMatrices:
    def test_inverse(self):
        m = IntMat2(2, 1, 1, 1)
        assert matmul(m, m.inverse()) == identity()

    def test_bad_inverse(self):
        with pytest.raises(PreconditionError):
            IntMat2(2, 0, 0, 2).inverse()


class TestClockwiseOrder:
    def test_wrap_at_infinity(self):
        assert cw_between(s("1"), s("inf"), s("-1"))
        assert cw_between(s("inf"), s("-10"), s("0"))
        assert not cw_between(s("inf"), s("0"), s("-10"))

    def test_numeric_segment(self):
        assert cw_between(s("-3"), s("-8/5"), s("0"))
        assert not cw_between(s("0"), s("-8/5"), s("-3"))
