"""Values built in place, with no gcd, against the validating constructors.

`farey._slope`, `lens._lens` and `handles._curve` skip the gcd of `Slope`,
`LensSpace` and `TorusCurve`, on the strength of a proof at each call site.
Every call they get while the boundaries, slides, criterion-4 meridians,
ATF readouts and surgery splittings run is recorded with its arguments, and
each value built must be the one the constructor builds from the same
arguments: equal, with the same repr, hash and fields, and primitive.
"""

import random
import sys
from math import gcd

import pytest

from lenscalc import farey, handles, lens, verify
from lenscalc.farey import Slope
from lenscalc.handles import TorusCurve
from lenscalc.lens import LensSpace
from lenscalc.markov import enumerate_tree, replay

# name: (module, builder's name, validating constructor, its primitive fields)
BUILDERS = {
    "farey._slope": (farey, "_slope", Slope, ("num", "den")),
    # handles binds `_slope` by name
    "handles._slope": (handles, "_slope", Slope, ("num", "den")),
    "lens._lens": (lens, "_lens", LensSpace, ("r", "s")),
    "handles._curve": (handles, "_curve", TorusCurve, ("mu", "lam")),
}


def seeded_word(k: int) -> str:
    rng = random.Random(f"in-place:{k}")
    return "".join(rng.choices("LR", k=rng.randint(8, 20)))


WORDS = ["L" * 19, "R" * 300] + [seeded_word(k) for k in range(20)]


def state(x) -> dict:
    """The fields of x: its slots, or its instance dictionary."""
    if hasattr(x, "__dict__"):
        return dict(vars(x))
    return {k: getattr(x, k) for k in type(x).__slots__}


@pytest.fixture(scope="module")
def built():
    """(builder name, arguments, value, the value's fields when built) for
    every value built in place by criteria 3, 4, 6 and 8 and one surgery
    splitting, on each triple to tree depth 10 and each triple of WORDS."""
    calls = []
    mp = pytest.MonkeyPatch()

    def record(name, real):
        def build(*args):
            value = real(*args)
            calls.append((name, args, value, state(value)))
            return value

        return build

    for name, (module, attr, _, _) in BUILDERS.items():
        mp.setattr(module, attr, record(name, getattr(module, attr)))
    try:
        triples = [t for t, _ in enumerate_tree(10)] + [replay(w) for w in WORDS]
        for t in triples:
            r = verify.TripleRecord(t)
            # boundaries, slides, crit-4 meridians and ATF readouts
            for check in (verify.crit3_two_curve_boundary, verify.crit4_surgery,
                          verify.crit6_mutation_slide, verify.crit8_atf_pipeline):
                assert check(r) == [], (check.__name__, t)
            q = r.q
            lens.surgery_splitting(Slope(t.p3, q.q3), Slope(-t.p1, q.q1))
    finally:
        mp.undo()
    return calls


def test_every_builder_is_exercised(built):
    assert {name for name, *_ in built} == set(BUILDERS)


@pytest.fixture
def no_digit_limit():
    """No int-to-str digit limit for one test: the reprs of the values of
    "L" * 19 have more digits than the default limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_each_value_is_the_constructors(built, no_digit_limit):
    for name, args, value, fields in built:
        _, _, cls, primitive = BUILDERS[name]
        want = cls(*args)
        assert type(value) is cls
        assert value == want and repr(value) == repr(want), (name, args)
        assert fields == state(want), (name, args)
        assert hash(value) == hash(want), (name, args)
        assert gcd(*(getattr(value, k) for k in primitive)) == 1, (name, args)


def test_both_sign_branches_are_exercised(built):
    # each builder negates its pair under the sign rule for some arguments
    # and keeps it for others
    flipped = {name: set() for name in BUILDERS}
    for name, args, value, _ in built:
        flipped[name].add(args[0] != getattr(value, BUILDERS[name][3][0]))
    assert flipped["farey._slope"] == flipped["handles._slope"] == {True, False}
    assert flipped["lens._lens"] == {True, False}


@pytest.mark.parametrize("name", ["farey._slope", "lens._lens", "handles._curve"])
def test_small_pairs(name):
    # every primitive pair with entries in -4..4, 1/0 and -1/0 included,
    # which the pipelines above may never build
    module, attr, cls, primitive = BUILDERS[name]
    for a in range(-4, 5):
        for b in range(-4, 5):
            if gcd(a, b) == 1:
                value, want = getattr(module, attr)(a, b), cls(a, b)
                assert (value, repr(value), state(value)) == (want, repr(want), state(want))
                assert hash(value) == hash(want)
