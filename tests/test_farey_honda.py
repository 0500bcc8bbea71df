"""Honda's count of tight contact structures on lens spaces as an oracle for
`minimal_path` and `classify`.

For -p/q = [r0, ..., rk] (negative continued fraction, every ri <= -2),
L(p, q) carries |(r0 + 1)(r1 + 1)...(rk + 1)| tight contact structures up to
isotopy (Honda, arXiv:math/9910127).  On the minimal path from -p/q to 0
with Ring outer edges, each structure is a choice of signs on the interior
edges, counted modulo shuffles inside each continued-fraction block.  The
blocks are split at the vertices where the path turns by more than one
Farey step, |det(v[i-1], v[i+1])| != 2, so a block of n edges contributes
n + 1 sign counts.
"""

from itertools import product
from math import gcd, prod

from lenscalc.farey import (
    ZERO,
    Classification,
    DecoratedPath,
    EdgeSign,
    Slope,
    classify,
    minimal_path,
)

TIGHT = {
    Classification.UNIVERSALLY_TIGHT,
    Classification.VIRTUALLY_OVERTWISTED,
}


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """[r0, ..., rk] with -p/q = r0 - 1/(r1 - 1/(... - 1/rk)), ri <= -2;
    needs 0 < q < p, gcd(p, q) = 1."""
    out = []
    while q > 1:
        r = -p // q
        out.append(r)
        p, q = q, -(r * q + p)
    out.append(-p)
    return out


def honda_count(p: int, q: int) -> int:
    return abs(prod(r + 1 for r in negative_continued_fraction(p, q)))


def interior_blocks(path) -> list[int]:
    """Lengths of the blocks of interior edges (all edges but the first and
    the last) of a path, split where |det(v[i-1], v[i+1])| != 2."""
    m = len(path) - 1
    if m <= 2:
        return []
    blocks = [1]
    for i in range(2, m - 1):
        u, w = path[i - 1], path[i + 1]
        if abs(u.num * w.den - u.den * w.num) == 2:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return blocks


def lens_pairs(pmax: int):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def test_continued_fraction_examples():
    assert negative_continued_fraction(2, 1) == [-2]
    assert negative_continued_fraction(3, 2) == [-2, -2]
    assert negative_continued_fraction(8, 5) == [-2, -3, -2]
    assert negative_continued_fraction(7, 3) == [-3, -2, -2]
    assert honda_count(5, 1) == 4
    assert honda_count(3, 2) == 1


def test_block_product_matches_honda_count():
    cases = 0
    for p, q in lens_pairs(100):
        path = minimal_path(Slope(-p, q), ZERO)
        got = prod(n + 1 for n in interior_blocks(path))
        assert got == honda_count(p, q), (p, q, [str(s) for s in path])
        cases += 1
    assert cases == 3043


def test_every_decoration_of_a_minimal_path_is_tight():
    for p, q in lens_pairs(12):
        path = tuple(minimal_path(Slope(-p, q), ZERO))
        blocks = interior_blocks(path)
        classes = set()
        for interior in product((EdgeSign.PLUS, EdgeSign.MINUS), repeat=len(path) - 3):
            signs = (EdgeSign.RING,) + interior + (EdgeSign.RING,)
            got = classify(DecoratedPath(path, signs))
            assert got in TIGHT, (p, q, interior)
            uniform = len(set(interior)) <= 1
            assert (got is Classification.UNIVERSALLY_TIGHT) == uniform, (p, q, interior)
            # sign counts per block: the decoration modulo shuffles in blocks
            start, counts = 0, []
            for n in blocks:
                counts.append(interior[start : start + n].count(EdgeSign.PLUS))
                start += n
            classes.add(tuple(counts))
        assert len(classes) == honda_count(p, q), (p, q)
