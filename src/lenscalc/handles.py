"""Genus-1 horizontal handle diagrams: Dehn-twist surgery calculus,
boundary identification, CP^2 recognition, and the mutation handle slide.

Curves are classes a*mu + b*lambda on the Heegaard torus; twists act on
(lambda; mu) vectors.  Surgery with framing one less than the surface
framing acts on the splitting torus as the right-handed Dehn twist
v -> v + det(v, gamma) * gamma, the transvection `farey.transvect` along
(lambda; mu) with k the framing, applied to each vector with no matrix
built (`push`).  A diagram's JSON document is an object whose `curves` is
an array; each curve and `handles` are objects, none with a member the
reader does not name, `handles` counts one 0- and one 1-handle, and the
reader rejects anything else with one exact message.

A value is validated once, where it enters the program: `TorusCurve`
checks its class is primitive on every call, and `boundary_of_diagram`
checks the pushed class once.  A value derived from validated ones by a
map that keeps primitivity is built in place with no gcd: the boundary's
outer slope (`farey._slope`), and the slide's fixed and moved curves
(`_curve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import InternalConsistencyError, InvariantError, PreconditionError
from .farey import ZERO, IntMat2, _json_array, _json_int, _json_object, _slope, det, transvect
from .lens import ThreeManifold, lens_from_meridian_slopes
from .markov import MarkovTriple, QTriple, verify_q


@dataclass(frozen=True)
class TorusCurve:
    """The class mu*mu_U + lam*lambda_U with a surface-relative framing."""

    mu: int
    lam: int
    framing: int = -1

    def __post_init__(self) -> None:
        if gcd(self.mu, self.lam) != 1:
            raise InvariantError(f"curve ({self.mu},{self.lam}) is not primitive")
        if self.framing not in (-1, 1):
            raise InvariantError("framing offset must be -1 or +1")

    def __str__(self) -> str:
        return f"{self.mu}*mu + {self.lam}*lambda (framing {self.framing:+d})"


def _curve(mu: int, lam: int) -> TorusCurve:
    """The framing -1 TorusCurve of a class its caller proves primitive,
    with no gcd."""
    c = object.__new__(TorusCurve)
    c.__dict__.update(mu=mu, lam=lam, framing=-1)
    return c


def twist_matrix(c: TorusCurve) -> IntMat2:
    """Action of surgery along c on (lambda; mu) as a matrix: the
    right-handed Dehn twist for framing -1, its inverse for framing +1.  Its
    columns are the images of (1; 0) and (0; 1) under the transvection
    along (lambda; mu) with k the framing."""
    (a, c10), (b, c11) = (transvect(c.lam, c.mu, c.framing, *v) for v in ((1, 0), (0, 1)))
    return IntMat2(a, b, c10, c11)


@dataclass(frozen=True)
class HorizontalDiagram:
    """Ordered surface-framed curves on nested torus levels, innermost
    first, plus one 0- and one 1-handle and the listed 3-/4-handles."""

    curves: tuple[TorusCurve, ...]
    n3: int = 0
    n4: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", tuple(self.curves))
        if self.n3 < 0 or self.n4 < 0:
            raise InvariantError("handle counts must be non-negative")

    def to_json_obj(self) -> dict:
        return {
            "curves": [
                {"mu": str(c.mu), "lambda": str(c.lam), "framing": c.framing}
                for c in self.curves
            ],
            "handles": {"h0": 1, "h1": 1, "h3": self.n3, "h4": self.n4},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HorizontalDiagram":
        curves, handles = _json_object(obj, "curves", handles={})
        curves = tuple(
            TorusCurve(*map(_json_int, _json_object(c, "mu", "lambda", "framing")))
            for c in _json_array(curves)
        )
        h0, h1, h3, h4 = _json_object(handles, h0=1, h1=1, h3=0, h4=0)
        # the integer 1 or the string "1": true and 1.0 compare equal to 1
        if any((type(h), h) not in ((int, 1), (str, "1")) for h in (h0, h1)):
            raise InvariantError("a diagram has one 0-handle and one 1-handle")
        return cls(curves, _json_int(h3), _json_int(h4))


def push(d: HorizontalDiagram, lam: int, mu: int) -> tuple[int, int]:
    """The class lam*lambda + mu*mu of the inner torus pushed out through
    every surgery level, innermost curve first: the outward transit map,
    one twist applied to the vector per curve."""
    for c in d.curves:
        lam, mu = transvect(c.lam, c.mu, c.framing, lam, mu)
    return lam, mu


def boundary_of_diagram(d: HorizontalDiagram) -> ThreeManifold:
    """Boundary three-manifold: push the inner longitude (the meridian disk
    of the outer solid torus) out through all surgery levels and read the
    resulting slope against the inner meridian.  An integer map never
    divides the gcd of a vector, so a class imprimitive after any twist is
    imprimitive at the end."""
    lam, mu = push(d, 1, 0)
    if gcd(lam, mu) != 1:
        raise InternalConsistencyError("imprimitive class after a Dehn twist")
    # primitive by the check above
    outer = _slope(mu, lam)
    return ThreeManifold((lens_from_meridian_slopes(outer, ZERO),))


def build_X(t: MarkovTriple, q: QTriple) -> HorizontalDiagram:
    """The closed diagram with three framing -1 curves determined by a
    Markov triple and a verified companion q-triple."""
    if not verify_q(t, q).passed:
        raise PreconditionError(f"q-triple {q.entries()} fails verification for {t}")
    curves = (
        TorusCurve(-t.p2, q.q2),
        TorusCurve(t.p1, q.q1),
        TorusCurve(t.p3, q.q3),
    )
    return HorizontalDiagram(curves, n3=1, n4=1)


def recognize_cp2(d: HorizontalDiagram) -> tuple[bool, tuple[int, int, int]]:
    """Markov-equation recognition: with x_i the pairwise intersection
    numbers, the diagram closes up to CP^2 iff x != 0 and
    x1^2 + x2^2 + x3^2 = x1*x2*x3."""
    if len(d.curves) != 3:
        raise PreconditionError("recognition needs exactly three curves")
    if any(c.framing != -1 for c in d.curves):
        raise PreconditionError("recognition needs all framings -1")
    g1, g2, g3 = ((c.mu, c.lam) for c in d.curves)
    x = (det(g2, g3), det(g1, g3), det(g1, g2))
    ok = x != (0, 0, 0) and (
        x[0] * x[0] + x[1] * x[1] + x[2] * x[2] == x[0] * x[1] * x[2]
    )
    return ok, x


class Slot(Enum):
    FIRST = "first"
    SECOND = "second"


def slide_mutation(d: HorizontalDiagram, slot: Slot) -> HorizontalDiagram:
    """Mutation handle slide on the innermost pair of curves.

    With the pair encoding (p2, q2) and (p1, q1), the slide replaces the
    chosen entry by its Markov mutation: slot FIRST yields (p1', q1') with
    p1' = 3 p2 p3 - p1, realized by flipping orientation and pushing the
    moved curve past the fixed one; slot SECOND mutates (p2, q2)."""
    if len(d.curves) < 2:
        raise PreconditionError("mutation slide needs at least two curves")
    g1, g2 = d.curves[0], d.curves[1]
    p2, q2 = -g1.mu, g1.lam
    p1, q1 = g2.mu, g2.lam
    # twist the moved curve's (-q; p) along the fixed curve, flipped.  Both
    # curves are built in place: fixed's entries are a curve's up to sign,
    # and (a, b) is a transvection's image of the primitive (-q, p)
    if slot is Slot.FIRST:
        fixed, (p, q) = _curve(-p2, -q2), (p1, q1)
    else:
        fixed, (p, q) = _curve(-p1, -q1), (p2, q2)
    a, b = transvect(fixed.lam, fixed.mu, fixed.framing, -q, p)
    new_pair = (fixed, _curve(-b, -a))
    return HorizontalDiagram(new_pair + d.curves[2:], d.n3, d.n4)


def two_curve_subdiagram(d: HorizontalDiagram) -> HorizontalDiagram:
    if len(d.curves) < 2:
        raise PreconditionError("need at least two curves")
    return HorizontalDiagram(d.curves[:2])
