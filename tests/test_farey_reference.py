"""Differential tests: the integer-only Farey routines against the original
Fraction- and matrix-based ones kept in `farey_reference`.

Inputs reach 64-bit coefficients by moving small slopes with a random
determinant +1 matrix, which keeps clockwise order and path lengths while
making every coordinate large.  Both versions must return equal values or
raise the same exception type with the same message.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import farey_reference as ref
from lenscalc import atf, farey, lens, verify
from lenscalc.errors import DegenerateInputError
from lenscalc.farey import DecoratedPath, EdgeSign, Slope
from lenscalc.markov import derive_q, enumerate_tree

BIG = 2**60
SIGNS = st.sampled_from(list(EdgeSign))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


@st.composite
def sl2z(draw):
    """A determinant +1 integer matrix (a, b, c, d) with entries near 2**60,
    or the identity."""
    if draw(st.booleans()):
        return (1, 0, 0, 1)
    a = draw(st.integers(-BIG, BIG))
    c = draw(st.integers(-BIG, BIG).filter(lambda c: gcd(a, c) == 1))
    x, y = ref._bezout(a, c)  # a*x + c*y = 1
    k = draw(st.integers(-3, 3))
    return (a, -y + k * a, c, x + k * c)


def small_slopes(bound=8):
    return st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)).filter(
        lambda t: t != (0, 0)
    ).map(lambda t: Slope(*t))


def chain(stops):
    """Minimal paths between consecutive distinct stops, joined."""
    out = [stops[0]]
    for a, b in zip(stops, stops[1:]):
        if a != b:
            out.extend(ref.minimal_path(a, b)[1:])
    return out


def moved(m, slopes):
    return [ref._apply(m, s) for s in slopes]


class TestMinimalPath:
    @given(sl2z(), small_slopes(20), small_slopes(20))
    @settings(max_examples=300)
    def test_matches_reference(self, m, u, v):
        src, dst = ref._apply(m, u), ref._apply(m, v)
        assert outcome(farey.minimal_path, src, dst) == outcome(ref.minimal_path, src, dst)

    @given(
        st.integers(-(2**64), 2**64),
        st.integers(-(2**64), 2**64),
        small_slopes(20).filter(lambda s: s.den != 0),
    )
    @settings(max_examples=300)
    def test_big_source_small_offset(self, n, d, offset):
        # dst = a*src + b*w in a det-1 frame (src, w): a short path between
        # two slopes with raw 64-bit coordinates
        if gcd(n, d) != 1:
            return
        src = Slope(n, d)
        x, y = ref._bezout(src.num, src.den)
        a, b = offset.num, offset.den
        dst = Slope(a * src.num - b * y, a * src.den + b * x)
        for u, v in ((src, dst), (dst, src)):
            assert outcome(farey.minimal_path, u, v) == outcome(ref.minimal_path, u, v)


class TestClockwiseOrder:
    @given(
        sl2z(),
        st.lists(small_slopes(3), min_size=3, max_size=3),
        st.lists(
            st.tuples(st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64)).filter(
                lambda t: t != (0, 0)
            ),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=300)
    def test_matches_reference(self, m, small, raw):
        for a, x, b in (moved(m, small), [Slope(*t) for t in raw]):
            assert farey.cw_between(a, x, b) == ref.cw_between(a, x, b)


@st.composite
def candidate_paths(draw):
    """Joined minimal paths through small stops, moved by a big matrix, then
    maybe broken: a vertex dropped, the path reversed, two vertices swapped,
    or a sign added or lost.  Stops in arbitrary order give paths that wrap
    past or return to the anchor."""
    stops = draw(st.lists(small_slopes(6), min_size=2, max_size=4))
    slopes = moved(draw(sl2z()), chain(stops))
    edit = draw(st.sampled_from(["none", "none", "drop", "reverse", "swap"]))
    if edit == "drop" and len(slopes) > 2:
        del slopes[draw(st.integers(1, len(slopes) - 2))]
    elif edit == "reverse":
        slopes.reverse()
    elif edit == "swap" and len(slopes) > 1:
        i = draw(st.integers(0, len(slopes) - 2))
        slopes[i], slopes[i + 1] = slopes[i + 1], slopes[i]
    n_signs = max(0, len(slopes) - 1 + draw(st.sampled_from([0, 0, 0, -1, 1])))
    signs = draw(st.lists(SIGNS, min_size=n_signs, max_size=n_signs))
    return tuple(slopes), tuple(signs)


@st.composite
def valid_paths(draw):
    """Strictly clockwise paths: minimal paths through stops sorted
    clockwise from the anchor, moved by a big matrix, with random signs."""
    anchor = draw(small_slopes(6))
    rest = draw(st.lists(small_slopes(6), min_size=1, max_size=5, unique=True))
    rest = [s for s in rest if s != anchor]
    if not rest:
        rest = [Slope(anchor.num + 1, anchor.den) if anchor.den else Slope(0, 1)]

    def rank(s):
        k = ref._linear_key(s)
        return (0 if k > ref._linear_key(anchor) else 1, k)

    slopes = moved(draw(sl2z()), chain([anchor] + sorted(rest, key=rank)))
    signs = draw(st.lists(SIGNS, min_size=len(slopes) - 1, max_size=len(slopes) - 1))
    return tuple(slopes), tuple(signs)


def clockwise_paths(ring, lengths):
    """Every strictly clockwise Farey path through the slopes of ring, which
    lists them in clockwise order, with a vertex count in lengths: after the
    anchor, each vertex is a Farey neighbour of the last one, further
    clockwise from the anchor."""
    n = len(ring)
    out = []

    def grow(path):
        if len(path) in lengths:
            out.append(tuple(ring[i % n] for i in path))
        if len(path) < max(lengths):
            for j in range(path[-1] + 1, path[0] + n):
                if ref.is_farey_edge(ring[path[-1] % n], ring[j % n]):
                    grow(path + [j])

    for a in range(n):
        grow([a])
    return out


def small_ring():
    """The 24 primitive slopes num/den with |num| <= 4 and 0 <= den <= 4,
    1/0 included, in clockwise order from 1/0."""
    ring = sorted(
        {Slope(n, d) for n in range(-4, 5) for d in range(5) if gcd(n, d) == 1},
        key=ref._linear_key,
    )
    assert len(ring) == 24 and ring[0] == farey.INFINITY
    return ring


def farey_walks(ring, lengths):
    """Every walk along Farey edges through the slopes of ring with a vertex
    count in lengths, in either direction, revisits included."""
    nbrs = {u: [v for v in ring if ref.is_farey_edge(u, v)] for u in ring}
    out = []

    def grow(path):
        if len(path) in lengths:
            out.append(tuple(path))
        if len(path) < max(lengths):
            for v in nbrs[path[-1]]:
                grow(path + [v])

    for u in ring:
        grow([u])
    return out


class TestDecoratedPath:
    def test_validation_matches_reference_on_all_small_walks(self):
        """Every Farey walk of 2 to 6 vertices through the small ring, and
        every ordered pair that is not a Farey edge (u == v included): the
        library accepts exactly what the reference accepts, and otherwise
        raises the same error type with the same message."""
        ring = small_ring()
        walks = farey_walks(ring, range(2, 7))
        pairs = [(u, v) for u in ring for v in ring if not ref.is_farey_edge(u, v)]
        assert len(pairs) == 24 * 24 - sum(len(w) == 2 for w in walks)
        accepted = 0
        for slopes in walks + pairs:
            signs = (EdgeSign.PLUS,) * (len(slopes) - 1)
            got = outcome(DecoratedPath, slopes, signs)
            want = outcome(ref.validate, slopes, signs)
            if want[0] == "ok":
                assert got[0] == "ok", [str(s) for s in slopes]
                accepted += 1
            else:
                assert got == want, [str(s) for s in slopes]
        # the accepted walks are the strictly clockwise paths of 2 to 6
        # vertices, which `clockwise_paths` builds independently
        assert accepted == len(clockwise_paths(ring, range(2, 7)))

    @given(candidate_paths())
    @settings(max_examples=400)
    def test_validation_matches_reference(self, case):
        slopes, signs = case
        got = outcome(DecoratedPath, slopes, signs)
        want = outcome(ref.validate, slopes, signs)
        if want[0] == "ok":
            assert got[0] == "ok"
        else:
            assert got == want

    @given(valid_paths())
    @settings(max_examples=300)
    def test_is_minimal_and_shorten_match_reference(self, case):
        slopes, signs = case
        ref.validate(slopes, signs)
        p = DecoratedPath(slopes, signs)
        assert p.is_minimal() == ref.is_minimal(slopes)
        res = farey.shorten(p)
        got = (res.path.slopes, res.path.signs, res.removed_any, res.opposite_sign_junction)
        assert got == ref.shorten(slopes, signs)

    def test_is_minimal_matches_reference_on_all_small_paths(self):
        """The width-2 scan of `is_minimal` against the all-widths scan, on
        every strictly clockwise path of 3 to 7 vertices through the slopes
        num/den with |num| <= 4 and 0 <= den <= 4, 1/0 included."""
        ring = small_ring()
        paths = clockwise_paths(ring, range(3, 8))
        assert len(paths) == 5304
        assert any(farey.INFINITY in p[1:-1] for p in paths)
        minimal = 0
        for slopes in paths:
            want = ref.is_minimal(slopes)
            p = DecoratedPath(slopes, (EdgeSign.PLUS,) * (len(slopes) - 1))
            assert p.is_minimal() == want, [str(s) for s in slopes]
            minimal += want
        assert minimal == 450


def test_bezout_matches_the_euclid_oracle():
    """The one modular inverse against Euclid's loop, on every a, b in
    [-40, 40]: both solve exactly the coprime pairs, the pair solves
    a x + b y = 1 with 0 <= x < b for b > 0, and the rest raise the same
    type.  The two pairs differ for some inputs."""
    differ = 0
    for a in range(-40, 41):
        for b in range(-40, 41):
            got, want = outcome(farey._bezout, a, b), outcome(ref._bezout, a, b)
            if gcd(a, b) != 1:
                assert got[0] is want[0] is DegenerateInputError, (a, b)
                continue
            assert got[0] == want[0] == "ok", (a, b)
            x, y = got[1]
            assert a * x + b * y == 1 and (b <= 0 or 0 <= x < b), (a, b)
            differ += got[1] != want[1]
    assert differ > 0


def _bezout_readouts():
    """Every output that starts from a Bezout pair: the verify sweep, each
    diagram to depth 8 with its transfers and their normal forms, the
    q-triples to depth 10, and minimal paths, their lengths and lens
    readouts on a grid of slopes."""
    sweep = verify.run_all(8)
    diagrams = []
    for t, _ in enumerate_tree(8):
        d = atf.atf_for_markov(t)
        diagrams.append((d.to_json_obj(), d.normal_form))
        for i in range(3):
            kind, e = outcome(atf.transfer_cut, d, i)
            diagrams.append((e.to_json_obj(), e.normal_form) if kind == "ok" else (kind, e))
    qs = [derive_q(t) for t, _ in enumerate_tree(10)]
    grid = list(dict.fromkeys(Slope(n, d) for n in range(-9, 10) for d in range(10) if n or d))
    paths = [
        (farey.minimal_path(u, v), farey.minimal_path_length(u, v))
        for u in grid
        for v in grid
        if u != v
    ]
    # a readout's s may move by a multiple of r, which no output reads
    readouts = [
        (l.r, l.s % l.r if l.r else l.s, str(l), l.canonical, l.mirror_canonical)
        for l in (lens.lens_from_meridian_slopes(u, v) for u in grid[::3] for v in grid)
    ]
    return sweep, diagrams, qs, paths, readouts


def test_outputs_do_not_depend_on_the_bezout_pair(monkeypatch):
    """No caller but `derive_q` depends on which pair it gets: with Euclid's
    pair bound in every other module that solves one, every output is the
    same.  `derive_q` prints its pair, the one with 0 <= x < p2, which is
    Euclid's moved by a multiple of (p2, -p1)."""
    want = _bezout_readouts()
    for module in (farey, lens, atf):
        monkeypatch.setattr(module, "_bezout", ref._bezout)
    assert _bezout_readouts() == want
    for t, _ in enumerate_tree(10):
        if t.p2 > 1:
            x = ref._bezout(t.p1, t.p2)[0] % t.p2
            q = derive_q(t)
            assert (q.bezout_x, q.bezout_y) == (x, (1 - t.p1 * x) // t.p2), t
