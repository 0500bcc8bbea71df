"""Exact arithmetic on the Farey circle and decorated-path classification.

Slopes are primitive integer vectors num/den with den >= 0 and infinity = 1/0.
The circle is ordered clockwise: starting at infinity, the finite rationals
appear in increasing order and wrap back to infinity.  All operations are
pure functions over immutable values.

The one transvection (`transvect`) acts on integer vectors and builds no
matrix; `IntMat2` is the matrix form that `handles.twist_matrix` reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import DegenerateInputError, InvariantError, PreconditionError


# integers and rationals in ASCII decimal digits, the forms every JSON
# reader and argument takes; int() would also take "1_0", " 3" or "٣"
_DECIMAL = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Return (x, y) with a*x + b*y = 1, from one modular inverse, so
    0 <= x < b when b > 0; requires gcd(a, b) = 1."""
    if b == 0 and a in (1, -1):
        return a, 0
    try:
        x = pow(a, -1, b)
    except ValueError:
        raise DegenerateInputError(f"gcd({a}, {b}) = {gcd(a, b)}, expected 1") from None
    return x, (1 - a * x) // b


@dataclass(frozen=True, slots=True)
class Slope:
    """A point of the Farey circle as a primitive integer vector."""

    num: int
    den: int

    def __post_init__(self) -> None:
        n, d = self.num, self.den
        if n == 0 and d == 0:
            raise DegenerateInputError("0/0 is not a point of the Farey circle")
        g = gcd(n, d)
        n //= g
        d //= g
        if d < 0 or (d == 0 and n < 0):
            n, d = -n, -d
        _set_num(self, n)
        _set_den(self, d)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """A slope written "n" or "n/d" in decimal digits, or "inf" or
        "-inf"; anything else raises ValueError."""
        if text in ("inf", "-inf"):
            return cls(1, 0)
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"not a slope n or n/d: {text!r:.40}")
        n, _, d = text.partition("/")
        return cls(int(n), int(d or 1))

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


_set_num = Slope.num.__set__
_set_den = Slope.den.__set__

INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


@dataclass(frozen=True)
class IntMat2:
    """Row-major 2x2 integer matrix acting on slopes as column vectors."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "IntMat2":
        det = self.det()
        if det == 1:
            return IntMat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMat2(-self.d, self.b, self.c, -self.a)
        raise PreconditionError(f"matrix with det {det} is not invertible over Z")

    def apply_vec(self, x: int, y: int) -> tuple[int, int]:
        return self.a * x + self.b * y, self.c * x + self.d * y

    def apply(self, s: Slope) -> Slope:
        return Slope(*self.apply_vec(s.num, s.den))


def det(u, v):
    """det(u, v) = u[0]*v[1] - u[1]*v[0] of two integer pairs:
    for slopes, |det| = 1 iff they span a Farey edge; for torus classes, the
    algebraic intersection number."""
    return u[0] * v[1] - u[1] * v[0]


def transvect(x: int, y: int, k: int, u: int, v: int) -> tuple[int, int]:
    """The image (u, v) + k*det(e, (u, v))*e of (u, v) under the
    transvection along e = (x, y).  It fixes e, has det 1, and k, -k are
    inverse.  A Dehn twist of the torus along a curve and the monodromy of a
    focus-focus node are both of this form."""
    s = k * (x * v - y * u)
    return u + s * x, v + s * y


def is_farey_edge(u: Slope, v: Slope) -> bool:
    return abs(det((u.num, u.den), (v.num, v.den))) == 1


def _before(u: Slope, v: Slope) -> bool:
    """u < v in the linear order with infinity first, then finite slopes in
    increasing order; clockwise order around the circle is this linear order
    read cyclically.  Denominators are nonnegative, so a/b < c/d iff
    a*d < c*b."""
    if v.den == 0:
        return False
    return u.den == 0 or u.num * v.den < v.num * u.den


def cw_between(a: Slope, x: Slope, b: Slope) -> bool:
    """True iff x lies strictly inside the clockwise arc from a to b."""
    if a == b or x == a or x == b:
        return False
    ax, xb, ba = _before(a, x), _before(x, b), _before(b, a)
    return (ax and xb) or (ba and ax) or (xb and ba)


def minimal_path(src: Slope, dst: Slope) -> list[Slope]:
    """The unique chord-free clockwise Farey path from src to dst.

    Computed by continued-fraction descent in a frame (e, w), det(e, w) = 1,
    with e the current vertex; dst = xn*e + xd*w with xd >= 1.  The next
    vertex is step*e + w, where step is the largest integer strictly below
    xn/xd, and (next, -e) is the next frame.  The path ends when xd = 1,
    that is when dst is Farey-adjacent to the current vertex.

    Each vertex is primitive by construction (its frame has det 1), so it
    is built in place with no gcd: a bare instance, its orientation fixed
    inline and its two slots set directly.
    """
    sn, sd, tn, td = src.num, src.den, dst.num, dst.den
    if sn == tn and sd == td:
        raise PreconditionError("path endpoints must be distinct")
    x, y = _bezout(sn, sd)
    en, ed, wn, wd = sn, sd, -y, x
    xn = tn * wd - td * wn
    xd = en * td - ed * tn
    if xd < 0:
        xn, xd = -xn, -xd
    path = [src]
    append = path.append
    new, cls, set_num, set_den = object.__new__, Slope, _set_num, _set_den
    while xd != 1:
        step = (xn - 1) // xd
        nn = step * en + wn
        nd = step * ed + wd
        s = new(cls)
        if nd > 0 or (nd == 0 and nn > 0):
            set_num(s, nn)
            set_den(s, nd)
        else:
            set_num(s, -nn)
            set_den(s, -nd)
        append(s)
        wn = -en
        wd = -ed
        en = nn
        ed = nd
        xn, xd = -xd, xn - step * xd
    append(dst)
    return path


def minimal_path_length(src: Slope, dst: Slope) -> int:
    """len(minimal_path(src, dst)), without building a vertex.

    The descent of minimal_path, on dst's coordinates (xn, xd) alone, with
    each run of steps -2 taken in one division.  A step is -2 exactly when
    d = xn + xd lies in (-xd, 0) (d = 0 would need xd = 1, as xn and xd
    are coprime); it keeps d and lowers xd by |d|, so a run takes
    (xd - 1) // |d| steps.  The other steps follow the partial quotients
    of the continued fraction of dst in src's frame, so the loop runs
    O(log) times.
    """
    sn, sd, tn, td = src.num, src.den, dst.num, dst.den
    if sn == tn and sd == td:
        raise PreconditionError("path endpoints must be distinct")
    x, y = _bezout(sn, sd)
    xn = tn * x + td * y
    xd = sn * td - sd * tn
    if xd < 0:
        xn, xd = -xn, -xd
    count = 2
    while xd != 1:
        d = xn + xd
        if -xd < d < 0:
            run = (xd - 1) // -d
            count += run
            xd += run * d
            xn = d - xd
        else:
            count += 1
            xn, xd = -xd, xn - (xn - 1) // xd * xd
    return count


class EdgeSign(Enum):
    PLUS = "+"
    MINUS = "-"
    RING = "o"

    def __str__(self) -> str:
        return "∘" if self is EdgeSign.RING else self.value


class Classification(Enum):
    UNIVERSALLY_TIGHT = "UniversallyTight"
    VIRTUALLY_OVERTWISTED = "VirtuallyOvertwisted"
    OVERTWISTED = "Overtwisted"
    UNDETERMINED = "Undetermined"


def _json_int(x) -> int:
    """An integer field of a JSON document: an int that is not a bool, or a
    decimal integer string, the form each `to_json_obj` writes.  Floats,
    booleans and anything else raise InvariantError."""
    if type(x) is int:
        return x
    if type(x) is str and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:  # more digits than int() converts
            raise InvariantError(f"malformed integer: {exc}") from exc
    raise InvariantError(f"not an integer: {x!r:.40}")


def _json_ratio(x) -> tuple[int, int]:
    """A rational coordinate of a JSON document as an integer pair (n, d),
    d > 0, not necessarily in lowest terms: an int that is not a bool, or a
    string "n" or "n/d" in decimal digits.  Floats, booleans, d = 0, more
    digits than int() converts and anything else raise InvariantError."""
    if type(x) is int:
        return x, 1
    if type(x) is str and _RATIONAL.fullmatch(x):
        n, _, d = x.partition("/")
        try:
            n, d = int(n), int(d or 1)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if d:
                return n, d
    raise InvariantError(f"not a rational: {x!r:.40}")


@dataclass(frozen=True, slots=True)
class DecoratedPath:
    """A strictly clockwise Farey path with signed edges.

    Both sequences are stored as tuples.  Errors come in this order: too
    few slopes, a sign count that does not match the edges, the first edge
    whose ends are not Farey-adjacent (anywhere along the path), then the
    first vertex that returns to the anchor or breaks clockwise order.
    """

    slopes: tuple[Slope, ...]
    signs: tuple[EdgeSign, ...]

    def __post_init__(self) -> None:
        slopes, signs = self.slopes, self.signs
        if type(slopes) is not tuple:
            slopes = tuple(slopes)
            object.__setattr__(self, "slopes", slopes)
        if type(signs) is not tuple:
            signs = tuple(signs)
            object.__setattr__(self, "signs", signs)
        if len(slopes) < 2:
            raise InvariantError("a decorated path needs at least one edge")
        if len(signs) != len(slopes) - 1:
            raise InvariantError("need exactly one sign per edge")
        u = slopes[0]
        pn, pd = u.num, u.den
        for v in slopes[1:]:
            n, d = v.num, v.den
            if abs(pn * d - pd * n) != 1:
                raise InvariantError(f"{u} and {v} are not Farey-adjacent")
            u, pn, pd = v, n, d
        # Rank each slope by (wrapped, slope) in clockwise order from the
        # anchor: wrapped slopes precede the anchor in the linear order.
        # Both tests are `_before` on the integers; the anchor itself
        # ranks first, so it can stand as the first predecessor.
        an, ad = slopes[0].num, slopes[0].den
        pn, pd, prev_wrapped = an, ad, False
        for v in slopes[1:]:
            n, d = v.num, v.den
            if n == an and d == ad:
                raise InvariantError("path returns to its starting slope")
            wrapped = d == 0 or (ad != 0 and an * d >= n * ad)
            if prev_wrapped > wrapped or (
                prev_wrapped == wrapped and (d == 0 or (pd != 0 and pn * d >= n * pd))
            ):
                raise InvariantError("path is not strictly clockwise")
            pn, pd, prev_wrapped = n, d, wrapped

    def is_minimal(self) -> bool:
        # Ear lemma: a chord closes a Farey-triangulated polygon, one of whose
        # two non-adjacent ears is an inner vertex m, so (m - 1, m + 1) is a chord.
        s = self.slopes
        for u, w in zip(s, s[2:]):
            if abs(u.num * w.den - u.den * w.num) == 1:
                return False
        return True

    def is_closed_lens_path(self) -> bool:
        if len(self.signs) < 2:
            return False
        if self.signs[0] is not EdgeSign.RING or self.signs[-1] is not EdgeSign.RING:
            return False
        return all(s is not EdgeSign.RING for s in self.signs[1:-1])

    def to_json_obj(self) -> dict:
        return {
            "slopes": [[str(s.num), str(s.den)] for s in self.slopes],
            "signs": [s.value for s in self.signs],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecoratedPath":
        try:
            slopes = tuple(Slope(_json_int(n), _json_int(d)) for n, d in obj["slopes"])
            signs = tuple(EdgeSign(s) for s in obj["signs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvariantError(f"malformed decorated path: {exc}") from exc
        return cls(slopes, signs)


@dataclass(frozen=True)
class ShorteningResult:
    path: DecoratedPath
    removed_any: bool
    opposite_sign_junction: bool


def _find_chord(vecs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """The first chord (i, j), j >= i + 2, of a path given as (num, den)
    vectors: the shortest span first, then the leftmost; None if minimal.
    Only `shorten` uses it; `DecoratedPath.is_minimal` scans width 2 alone."""
    for w in range(2, len(vecs)):
        dets = [abs(a * d - b * c) for (a, b), (c, d) in zip(vecs, vecs[w:])]
        if 1 in dets:
            i = dets.index(1)
            return i, i + w
    return None


def shorten(p: DecoratedPath) -> ShorteningResult:
    """Remove interior blocks flanked by Farey-adjacent vertices until minimal.

    Records whether any removed junction had a + edge on one side and a -
    edge on the other.  The merged edge keeps the first non-Ring flanking
    sign; merged signs only matter through the opposite-sign flag.
    """
    slopes = list(p.slopes)
    signs = list(p.signs)
    vecs = [(s.num, s.den) for s in slopes]
    removed_any = False
    opposite = False
    # prefer the shortest shortening (single-vertex removals first)
    while (chord := _find_chord(vecs)) is not None:
        i, j = chord
        left, right = signs[i], signs[j - 1]
        if {left, right} == {EdgeSign.PLUS, EdgeSign.MINUS}:
            opposite = True
        merged = left if left is not EdgeSign.RING else right
        del slopes[i + 1 : j], vecs[i + 1 : j]
        signs[i:j] = [merged]
        removed_any = True
    out = DecoratedPath(tuple(slopes), tuple(signs))
    return ShorteningResult(out, removed_any, opposite)


def classify(p: DecoratedPath) -> Classification:
    """Giroux-Honda classification of the contact structure a closed
    lens-space path encodes."""
    if not p.is_closed_lens_path():
        raise InvariantError(
            "classification needs Ring on the outermost edges and signed interior edges"
        )
    result = shorten(p)
    if not result.removed_any:
        interior = set(p.signs[1:-1])
        if len(interior) <= 1:
            return Classification.UNIVERSALLY_TIGHT
        return Classification.VIRTUALLY_OVERTWISTED
    if result.opposite_sign_junction:
        return Classification.OVERTWISTED
    return Classification.UNDETERMINED


def totally_inconsistent_path(lens_slope: Slope, at: Slope) -> DecoratedPath:
    """The totally inconsistent decorated path for the lens space with the
    given surgery slope, bending at the slope `at`."""
    if not cw_between(lens_slope, at, ZERO):
        raise PreconditionError(
            f"{at} is not strictly inside the clockwise arc from {lens_slope} to 0"
        )
    first = minimal_path(lens_slope, at)
    second = minimal_path(at, ZERO)
    slopes = tuple(first + second[1:])
    n1 = len(first) - 1
    n2 = len(second) - 1
    signs = [EdgeSign.PLUS] * n1 + [EdgeSign.MINUS] * n2
    signs[0] = EdgeSign.RING
    signs[-1] = EdgeSign.RING
    return DecoratedPath(slopes, tuple(signs))
