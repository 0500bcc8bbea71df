"""Differential tests of `LensSpace` and `ThreeManifold` against the
reference normal form kept in `lens_reference`.

Coefficients range over r in {0, +-1, +-2}, small values of either sign and
values of up to 4096 bits, and orders of about 6600 bits, the size the
depth-16 sweep reaches.  Pairs of lens spaces share their order and are
related by an inverse, a mirror or a shift by r as often as not, so that
equal and mirror pairs are drawn as well as unrelated ones.
"""

from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lens_reference as ref
from lenscalc import lens
from lenscalc.errors import PreconditionError
from lenscalc.lens import LensSpace, Orientation, ThreeManifold

BIG = 2**4096
COEFFICIENTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]),
    st.integers(-60, 60),
    st.integers(-BIG, BIG),
)


def _coprime(r, s):
    """The coefficient s moved to one coprime to r, built rather than filtered:
    +-1, by the sign of s, for r = 0, and otherwise the first integer from s
    up that is coprime to r."""
    if r == 0:
        return -1 if s < 0 else 1
    while gcd(r, s) != 1:
        s += 1
    return s


@st.composite
def lens_spaces(draw, r=None):
    if r is None:
        r = draw(COEFFICIENTS)
    return LensSpace(r, _coprime(r, draw(COEFFICIENTS)))


@st.composite
def relatives(draw, l):
    """A lens space of the same order as l: the same or the inverse
    coefficient, each possibly mirrored and shifted by a multiple of r, or
    an unrelated coefficient."""
    r, s = l.r, l.s
    kind = draw(st.sampled_from(["same", "inverse", "other"]))
    if kind == "other" or abs(r) < 2:
        return draw(lens_spaces(r=draw(st.sampled_from([r, -r]))))
    s = s if kind == "same" else pow(s, -1, abs(r))
    s = draw(st.sampled_from([s, -s])) + draw(st.integers(-3, 3)) * r
    return LensSpace(draw(st.sampled_from([r, -r])), s)


@st.composite
def lens_pairs(draw):
    l = draw(lens_spaces())
    return l, draw(relatives(l))


@settings(max_examples=400, deadline=None)
@given(lens_spaces())
@example(LensSpace(0, 1))
@example(LensSpace(0, -1))
@example(LensSpace(1, 0))
@example(LensSpace(-1, 5))
@example(LensSpace(2, -1))
@example(LensSpace(-2, 3))
@example(LensSpace(7, -3))
def test_normal_forms_match_reference(l):
    want, mirror = ref.canonical(l), ref.mirror_canonical(l)
    for _ in range(2):  # the second read comes from the cache
        assert l.canonical == want
        assert l.mirror_canonical == mirror
    assert l.is_s3() == (want == (1, 0))
    assert l.is_s1xs2() == (want == (0, 1))
    assert str(l) == str(LensSpace(*want))


@settings(max_examples=400, deadline=None)
@given(lens_pairs())
def test_equality_and_hash_match_reference(pair):
    l1, l2 = pair
    same = ref.canonical(l1) == ref.canonical(l2)
    assert (l1 == l2) == same
    if same:
        assert hash(l1) == hash(l2)
    either = same or ref.canonical(l1) == ref.mirror_canonical(l2)
    m1, m2 = ThreeManifold((l1,)), ThreeManifold((l2,))
    assert m1.homeomorphic(m2, Orientation.EITHER) == either


@st.composite
def manifold_pairs(draw, spaces=lens_spaces()):
    """A connected sum of up to three lens spaces, and one built from a
    shuffle of relatives of its summands, each side with S^3 summands mixed
    in."""
    first = draw(st.lists(spaces, max_size=3))
    second = [draw(relatives(l)) for l in first]
    second = draw(st.permutations(second))
    s3 = st.sampled_from([LensSpace(1, 0), LensSpace(-1, 7)])
    first = first + draw(st.lists(s3, max_size=2))
    second = draw(st.lists(s3, max_size=2)) + list(second)
    return ThreeManifold(tuple(first)), ThreeManifold(tuple(second))


@settings(max_examples=300, deadline=None)
@given(manifold_pairs())
def test_three_manifold_comparisons_match_reference(pair):
    m1, m2 = pair
    same = ref.summands(m1) == ref.summands(m2)
    assert (m1 == m2) == same
    if same:
        assert hash(m1) == hash(m2)
    assert m1.is_s3() == (ref.summands(m1) == [])
    for orientation in Orientation:
        assert m1.homeomorphic(m2, orientation) == ref.homeomorphic(m1, m2, orientation)
        assert m2.homeomorphic(m1, orientation) == ref.homeomorphic(m2, m1, orientation)


DEEP = 2**6600


@st.composite
def deep_lens_spaces(draw):
    """A lens space whose order has about 6600 bits."""
    r = draw(st.integers(DEEP // 2, DEEP)) * draw(st.sampled_from([1, -1]))
    s = draw(st.one_of(st.integers(-60, 60), st.integers(-DEEP, DEEP)))
    return LensSpace(r, _coprime(r, s))


@st.composite
def deep_lens_pairs(draw):
    l = draw(deep_lens_spaces())
    return l, draw(relatives(l))


def _no_normal_forms(r, s):
    raise AssertionError("a normal form was computed")


@settings(max_examples=100, deadline=None)
@given(deep_lens_pairs(), manifold_pairs(deep_lens_spaces()))
def test_equality_computes_no_normal_form(pair, manifolds):
    # the residue rule needs one product mod r; only hashing, printing, JSON
    # and homeomorphism up to orientation compute a normal form
    l1, l2 = pair
    m1, m2 = manifolds
    same = ref.canonical(l1) == ref.canonical(l2)
    equal = ref.summands(m1) == ref.summands(m2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lens, "_normal_forms", _no_normal_forms)
        assert (l1 == l2) == same
        assert (l1 != l2) == (not same)
        assert (ThreeManifold((l1,)) == ThreeManifold((l2,))) == same
        assert ThreeManifold((l1,)).homeomorphic(ThreeManifold((l2,)), Orientation.PRESERVING) == same
        assert (m1 == m2) == equal
        assert m1.homeomorphic(m2, Orientation.PRESERVING) == equal
        assert m2.homeomorphic(m1, Orientation.PRESERVING) == equal


@settings(max_examples=200, deadline=None)
@given(COEFFICIENTS, COEFFICIENTS, st.integers(2, 2**64))
@example(0, 0, 2)
@example(1, 0, 3)
@example(0, 1, 2)
def test_common_factor_is_rejected(r, s, g):
    with pytest.raises(PreconditionError):
        LensSpace(g * r, g * s)
