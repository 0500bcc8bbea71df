"""Reference copies of the Fraction- and matrix-based Farey routines.

These are the original implementations of `minimal_path`, `cw_between`,
`DecoratedPath` validation, `DecoratedPath.is_minimal` and `shorten`: the
same algorithms, with matrices written as tuples and results returned as
plain tuples.  `tests/test_farey_reference.py`
checks the integer-only versions in `lenscalc.farey` against them: same
results, same exception types, same messages.  Only the checked `Slope`
constructor and the enums are shared with the library.

The matrix transvection (`transvection`), with the matrix product and the
identity that compose it, is the oracle of the vector form
`lenscalc.farey.transvect`, which the library applies with no matrix.
"""

from __future__ import annotations

from fractions import Fraction

from lenscalc.errors import DegenerateInputError, InvariantError, PreconditionError
from lenscalc.farey import EdgeSign, IntMat2, Slope


def identity() -> IntMat2:
    return IntMat2(1, 0, 0, 1)


def matmul(m: IntMat2, n: IntMat2) -> IntMat2:
    """The product m n: n applied first."""
    return IntMat2(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def transvection(x: int, y: int, k: int) -> IntMat2:
    """The transvection v -> v + k*det(e, v)*e along e = (x, y) as a matrix.
    It fixes e, has det 1, and k, -k are inverse."""
    return IntMat2(1 - k * x * y, k * x * x, -k * y * y, 1 + k * x * y)


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r == -1:
        old_r, old_x, old_y = 1, -old_x, -old_y
    if old_r != 1:
        raise DegenerateInputError(f"gcd({a}, {b}) = {old_r}, expected 1")
    return old_x, old_y


def _apply(m: tuple[int, int, int, int], s: Slope) -> Slope:
    a, b, c, d = m
    return Slope(a * s.num + b * s.den, c * s.num + d * s.den)


def _inverse(m: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = m
    return (d, -b, -c, a)


def is_farey_edge(u: Slope, v: Slope) -> bool:
    return abs(u.num * v.den - u.den * v.num) == 1


def _linear_key(s: Slope):
    if s.den == 0:
        return (0, 0)
    return (1, Fraction(s.num, s.den))


def cw_between(a: Slope, x: Slope, b: Slope) -> bool:
    if a == b or x == a or x == b:
        return False
    ka, kx, kb = _linear_key(a), _linear_key(x), _linear_key(b)
    return (ka < kx < kb) or (kb < ka < kx) or (kx < kb < ka)


def minimal_path(src: Slope, dst: Slope) -> list[Slope]:
    if src == dst:
        raise PreconditionError("path endpoints must be distinct")
    path = [src]
    cur = src
    while cur != dst:
        if is_farey_edge(cur, dst):
            path.append(dst)
            break
        x, y = _bezout(cur.num, cur.den)
        mat = (x, y, -cur.den, cur.num)
        image = _apply(mat, dst)
        step = (image.num - 1) // image.den
        cur = _apply(_inverse(mat), Slope(step, 1))
        path.append(cur)
    return path


def validate(slopes, signs) -> None:
    """The checks of the original `DecoratedPath.__post_init__`."""
    slopes = tuple(slopes)
    signs = tuple(signs)
    if len(slopes) < 2:
        raise InvariantError("a decorated path needs at least one edge")
    if len(signs) != len(slopes) - 1:
        raise InvariantError("need exactly one sign per edge")
    for u, v in zip(slopes, slopes[1:]):
        if not is_farey_edge(u, v):
            raise InvariantError(f"{u} and {v} are not Farey-adjacent")
    anchor = slopes[0]
    ka = _linear_key(anchor)
    prev = None
    for s in slopes[1:]:
        if s == anchor:
            raise InvariantError("path returns to its starting slope")
        k = _linear_key(s)
        rank = (0 if k > ka else 1, k)
        if prev is not None and rank <= prev:
            raise InvariantError("path is not strictly clockwise")
        prev = rank


def is_minimal(slopes) -> bool:
    n = len(slopes)
    for i in range(n):
        for j in range(i + 2, n):
            if is_farey_edge(slopes[i], slopes[j]):
                return False
    return True


def shorten(slopes, signs):
    """(slopes, signs, removed_any, opposite_sign_junction)."""
    slopes = list(slopes)
    signs = list(signs)
    removed_any = False
    opposite = False
    changed = True
    while changed:
        changed = False
        n = len(slopes)
        for width in range(2, n):
            for i in range(0, n - width):
                j = i + width
                if is_farey_edge(slopes[i], slopes[j]):
                    left, right = signs[i], signs[j - 1]
                    if {left, right} == {EdgeSign.PLUS, EdgeSign.MINUS}:
                        opposite = True
                    merged = left if left is not EdgeSign.RING else right
                    slopes[i + 1 : j] = []
                    signs[i:j] = [merged]
                    removed_any = True
                    changed = True
                    break
            if changed:
                break
    validate(slopes, signs)
    return tuple(slopes), tuple(signs), removed_any, opposite
