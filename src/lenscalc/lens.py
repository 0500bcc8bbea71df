"""Lens-space normal forms, homeomorphism tests, torus-knot classification,
and the connected-sum output of surgery along the torus framing.

Convention: L(r,s) is -r/s surgery on the unknot, so L(-r,s) is the
orientation reversal L(r,-s), and `LensSpace` stores L(-r,-s) as L(r,s)
with r >= 0.  A torus knot T_{p,q} sits on the Heegaard torus in class
p*lambda + q*mu and has Farey point q/p, project-wide.

Equality is the residue rule of Reidemeister and Brody: L(r,s) and L(r,s')
are homeomorphic by an orientation-preserving map iff s' = s or
s*s' = 1 (mod r), one product and no modular inverse.  The normal forms,
which need an inverse, are computed only for hashing, printing, JSON and
homeomorphism up to orientation; the verification criteria compare by
equality alone, and a passing sweep computes none.

A value is validated once, where it enters the program: `LensSpace(r, s)`
checks gcd(r, s) = 1 on every call.  The one readout,
`lens_from_meridian_slopes`, builds its space in place (`_lens`), with the
sign rule and no gcd, since its pair is the image of a primitive slope
under a determinant-1 map.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd

from .errors import DegenerateInputError, PreconditionError
from .farey import ZERO, Slope, _bezout, cw_between


def _normal_forms(r: int, s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The orientation-preserving normal forms of L(r,s) and of its mirror
    L(r,-s), from one modular inverse, for r >= 0: s the smaller of
    {s mod r, s^{-1} mod r}; S^3 is (1, 0) and S^1 x S^2 is (0, 1).  The
    mirror's residues are r - s and r - s^{-1}, so its form takes the larger."""
    if r == 0:
        return (0, 1), (0, 1)
    if r == 1:
        return (1, 0), (1, 0)
    s %= r
    inv = pow(s, -1, r)
    return (r, min(s, inv)), (r, r - max(s, inv))


@dataclass(frozen=True)
class LensSpace:
    """L(r,s), stored with r >= 0: L(-r,-s) is the same space.  Equality is
    the residue rule (module docstring); hashing uses the
    orientation-preserving normal form, which the rule agrees with."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if gcd(self.r, self.s) != 1:
            raise PreconditionError(f"gcd({self.r},{self.s}) != 1")
        if self.r < 0:
            object.__setattr__(self, "r", -self.r)
            object.__setattr__(self, "s", -self.s)

    @cached_property
    def _forms(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return _normal_forms(self.r, self.s)

    @property
    def canonical(self) -> tuple[int, int]:
        return self._forms[0]

    @property
    def mirror_canonical(self) -> tuple[int, int]:
        return self._forms[1]

    def is_s3(self) -> bool:
        return self.r == 1

    def is_s1xs2(self) -> bool:
        return self.r == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LensSpace):
            return NotImplemented
        r, s, s2 = self.r, self.s, other.s
        if r != other.r:
            return False
        # orders 0 and 1 have one space each, S^1 x S^2 and S^3
        return r < 2 or (s - s2) % r == 0 or (s * s2 - 1) % r == 0

    def __hash__(self) -> int:
        return hash(self.canonical)

    def __str__(self) -> str:
        if self.is_s3():
            return "S3"
        if self.is_s1xs2():
            return "S1xS2"
        return "L(%d,%d)" % self.canonical


class Orientation(Enum):
    PRESERVING = "preserving"
    EITHER = "either"


def boundary_Bpq(p: int, q: int) -> LensSpace:
    """Boundary of the rational homology ball B_{p,q}: L(p^2, pq-1)."""
    if p < 1:
        raise PreconditionError("p must be at least 1")
    if gcd(p, q) != 1:
        raise PreconditionError(f"gcd({p},{q}) != 1")
    return LensSpace(p * p, p * q - 1)


def _lens(r: int, s: int) -> LensSpace:
    """The LensSpace of a pair its caller proves coprime: the sign rule of
    `LensSpace` and no gcd."""
    l = object.__new__(LensSpace)
    if r < 0:
        r, s = -r, -s
    l.__dict__.update(r=r, s=s)
    return l


S3 = LensSpace(1, 0)
S1XS2 = LensSpace(0, 1)


@dataclass(frozen=True)
class ThreeManifold:
    """Connected sum of lens-space atoms; S^3 summands are absorbed and the
    empty sum is S^3.  Summand order is kept for deterministic output;
    comparisons are multiset comparisons."""

    summands: tuple[LensSpace, ...]

    def __post_init__(self) -> None:
        kept = tuple(l for l in self.summands if not l.is_s3())
        object.__setattr__(self, "summands", kept)

    def is_s3(self) -> bool:
        return not self.summands

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeManifold):
            return NotImplemented
        return same_lens_spaces(self.summands, other.summands)

    def __hash__(self) -> int:
        return hash(tuple(sorted(l.canonical for l in self.summands)))

    def homeomorphic(self, other: "ThreeManifold", orientation: Orientation) -> bool:
        """Equality, or with Orientation.EITHER equality up to mirroring each
        summand: a lens space and its mirror have the same pair of normal
        forms, so the lesser of the two is a key of the pair."""
        if orientation is Orientation.PRESERVING:
            return self == other
        return _unoriented(self) == _unoriented(other)

    def to_json_obj(self) -> list:
        return [{"lens": list(l.canonical)} for l in self.summands]

    def __str__(self) -> str:
        if self.is_s3():
            return "S3"
        return " # ".join(str(l) for l in self.summands)


def same_lens_spaces(a: Sequence[LensSpace], b: Sequence[LensSpace]) -> bool:
    """Whether a and b hold the same lens spaces with the same multiplicities,
    by ==.  Matching each of a greedily with the first equal one of b not
    yet matched is exact, since == is an equivalence relation."""
    if len(a) != len(b):
        return False
    rest = list(b)
    for l in a:
        for i, m in enumerate(rest):
            if l == m:
                del rest[i]
                break
        else:
            return False
    return True


def _unoriented(m: ThreeManifold) -> list[tuple[int, int]]:
    return sorted(min(l.canonical, l.mirror_canonical) for l in m.summands)


@dataclass(frozen=True)
class TorusKnot:
    """T_{p,q} on the Heegaard torus of a lens space; Farey point q/p."""

    p: int
    q: int
    ambient: LensSpace

    def __post_init__(self) -> None:
        if gcd(self.p, self.q) != 1:
            raise PreconditionError(f"gcd({self.p},{self.q}) != 1")

    @property
    def farey_point(self) -> Slope:
        return Slope(self.q, self.p)


class KnotClass(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    TRIVIAL = "Trivial"


def ambient_slope(l: LensSpace) -> Slope:
    """The surgery slope -r/s of the ambient lens space."""
    return Slope(-l.r, l.s)


def classify_torus_knot(k: TorusKnot) -> KnotClass:
    """TRIVIAL when the knot is a core of a Heegaard solid torus, that is,
    when it meets one of the two meridians once: |q| = 1 for the meridian 0,
    |q s + p r| = 1 for the ambient meridian -r/s.  Otherwise POSITIVE when
    its Farey point lies on the clockwise arc from 0 to -r/s, else NEGATIVE."""
    if k.ambient.is_s1xs2():
        # the ambient slope is the meridian 0 itself, so the clockwise arc
        # from 0 to it is empty and no knot could read positive
        raise DegenerateInputError("ambient S1xS2: its slope 0 is a Heegaard-torus meridian slope")
    sigma = k.farey_point
    amb = ambient_slope(k.ambient)
    if sigma == amb or sigma == ZERO:
        raise DegenerateInputError(f"slope {sigma} is a Heegaard-torus meridian slope")
    if abs(k.q) == 1 or abs(k.q * k.ambient.s + k.p * k.ambient.r) == 1:
        return KnotClass.TRIVIAL
    if cw_between(ZERO, sigma, amb):
        return KnotClass.POSITIVE
    return KnotClass.NEGATIVE


def lens_from_meridian_slopes(m1: Slope, m2: Slope) -> LensSpace:
    """The lens space glued from two solid tori with the given meridian
    slopes on the splitting torus.

    A determinant +1 change of basis sends m2 to 0; the image a/b of m1
    is read as L(a,-b), which is S^1 x S^2 when m1 = m2.  The sign
    conventions are pinned by the surgery examples in the test suite.
    """
    u, v = _bezout(m2.num, m2.den)
    a = m2.den * m1.num - m2.num * m1.den
    b = u * m1.num + v * m1.den
    # (a, b) is the image of the primitive m1 under [[m2.den, -m2.num], [u, v]],
    # of determinant 1 by the Bezout identity, so it is primitive
    return _lens(a, -b)


def surgery_splitting(sigma: Slope, amb: Slope) -> ThreeManifold:
    """Torus-framed surgery along the curve with Farey point sigma splits the
    ambient space along the Heegaard torus into two lens spaces."""
    return ThreeManifold(
        (lens_from_meridian_slopes(sigma, ZERO), lens_from_meridian_slopes(amb, sigma))
    )


def nonloose_surgery_result(k: TorusKnot) -> ThreeManifold:
    """Connected sum produced by surgery along a negative nontrivial torus
    knot with the torus framing."""
    cls = classify_torus_knot(k)
    if cls is not KnotClass.NEGATIVE:
        raise PreconditionError(
            f"surgery statement needs a negative nontrivial torus knot, got {cls.value}"
        )
    return surgery_splitting(k.farey_point, ambient_slope(k.ambient))
