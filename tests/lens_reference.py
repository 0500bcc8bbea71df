"""Reference copy of the lens-space normal forms of `lenscalc.lens`.

This is the original `_canonical_pair`, which computes one form from its own
modular inverse on every use, and the original comparisons of
`ThreeManifold` built on it.  The library now computes both forms of a lens
space once, from one inverse; `tests/test_lens_reference.py` requires both
to give the same forms, equalities and homeomorphism verdicts.
"""

from __future__ import annotations

from lenscalc.lens import LensSpace, Orientation, ThreeManifold


def canonical_pair(r: int, s: int) -> tuple[int, int]:
    """Orientation-preserving normal form: r >= 0, s the smaller of
    {s mod r, s^{-1} mod r}; S^3 is (1, 0) and S^1 x S^2 is (0, 1)."""
    if r < 0:
        r, s = -r, -s
    if r == 0:
        return (0, 1)
    if r == 1:
        return (1, 0)
    s %= r
    return (r, min(s, pow(s, -1, r)))


def canonical(l: LensSpace) -> tuple[int, int]:
    return canonical_pair(l.r, l.s)


def mirror_canonical(l: LensSpace) -> tuple[int, int]:
    return canonical_pair(l.r, -l.s)


def summands(m: ThreeManifold) -> list[tuple[int, int]]:
    """The sorted normal forms of the summands that are not S^3."""
    return sorted(canonical(l) for l in m.summands if canonical(l) != (1, 0))


def homeomorphic(m1: ThreeManifold, m2: ThreeManifold, orientation: Orientation) -> bool:
    if orientation is Orientation.PRESERVING:
        return summands(m1) == summands(m2)
    mine = summands(m1)
    theirs = [l for l in m2.summands if canonical(l) != (1, 0)]
    for flips in range(1 << len(theirs)):
        forms = sorted(
            mirror_canonical(l) if flips >> i & 1 else canonical(l)
            for i, l in enumerate(theirs)
        )
        if mine == forms:
            return True
    return False
