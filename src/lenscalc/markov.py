"""Markov triples: validation, tree enumeration, mutation, and companion
surgery coefficients (q-triples) with their verification conditions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InternalConsistencyError, InvariantError, PreconditionError


class Mutation(Enum):
    LEFT = "L"
    RIGHT = "R"


def is_markov(p1: int, p2: int, p3: int) -> bool:
    if p1 <= 0 or p2 <= 0 or p3 <= 0:
        raise PreconditionError("Markov triples consist of positive integers")
    return p1 * p1 + p2 * p2 + p3 * p3 == 3 * p1 * p2 * p3


@dataclass(frozen=True)
class MarkovTriple:
    """A solution of p1^2 + p2^2 + p3^2 = 3 p1 p2 p3, stored sorted."""

    p1: int
    p2: int
    p3: int

    def __post_init__(self) -> None:
        a, b, c = sorted((self.p1, self.p2, self.p3))
        object.__setattr__(self, "p1", a)
        object.__setattr__(self, "p2", b)
        object.__setattr__(self, "p3", c)
        if not is_markov(a, b, c):
            raise InvariantError(f"({a},{b},{c}) does not solve the Markov equation")

    def entries(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.p3)

    def __str__(self) -> str:
        return f"({self.p1},{self.p2},{self.p3})"


def mutate(t: MarkovTriple, which: Mutation) -> MarkovTriple:
    """Left child keeps (p2, p3), right child keeps (p1, p3)."""
    if which is Mutation.LEFT:
        return MarkovTriple(t.p2, t.p3, 3 * t.p2 * t.p3 - t.p1)
    return MarkovTriple(t.p1, t.p3, 3 * t.p1 * t.p3 - t.p2)


def enumerate_tree(depth: int) -> list[tuple[MarkovTriple, str]]:
    """Breadth-first list of distinct triples to the given depth, each with
    its mutation word from the root (1,1,1).

    The stem (1,1,1) -> (1,1,2) -> (1,2,5) collapses to single children
    because both mutations agree there; duplicates keep their first word.
    """
    if depth < 0:
        raise PreconditionError("depth must be non-negative")
    root = MarkovTriple(1, 1, 1)
    out = [(root, "")]
    seen = {root}
    frontier = [(root, "")]
    for _ in range(depth):
        nxt = []
        for t, word in frontier:
            for m in (Mutation.LEFT, Mutation.RIGHT):
                child = mutate(t, m)
                if child not in seen:
                    seen.add(child)
                    nxt.append((child, word + m.value))
        out.extend(nxt)
        frontier = nxt
    return out


@dataclass(frozen=True)
class QTriple:
    """Surgery coefficients attached to a Markov triple via a Bezout pair
    p1*x + p2*y = 1 with x >= 0 and y <= 0."""

    q1: int
    q2: int
    q3: int
    bezout_x: int
    bezout_y: int

    def entries(self) -> tuple[int, int, int]:
        return (self.q1, self.q2, self.q3)


def derive_q(t: MarkovTriple) -> QTriple:
    """The deterministic q-triple: minimal Bezout pair with 0 <= x < p2."""
    p1, p2, p3 = t.entries()
    if p2 == 1:
        x, y = 1, 0
    else:
        x = pow(p1, -1, p2)
        y = (1 - p1 * x) // p2
    if p1 * x + p2 * y != 1 or x < 0 or y > 0:
        raise InternalConsistencyError("Bezout normalization failed")
    q1 = 3 * p3 * y
    q2 = 3 * p3 * x
    q3 = -3 * p1 * y + 3 * p2 * x + 9 * p2 * p3 * y
    return QTriple(q1, q2, q3, x, y)


@dataclass(frozen=True)
class QReport:
    """Per-condition verification of a q-triple against its Markov triple.

    Condition (3) is congruence of q_i with +-3 p_j p_k^{-1} mod p_i.  Both
    orderings of (j, k) give the same residues, but the sign is ambiguous,
    so both readings are reported: `cond3_some` accepts either sign per
    index, `cond3_all` demands both.
    """

    cond1: bool
    cond2: bool
    cond3_some: bool
    cond3_all: bool
    cond4: bool

    @property
    def passed(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3_some and self.cond4


def verify_q(t: MarkovTriple, q: QTriple) -> QReport:
    p1, p2, p3 = t.entries()
    q1, q2, q3 = q.entries()
    cond1 = p3 * p3 == (p1 * q1 - 1) * p2 * p2 + p1 * p1 * (p2 * q2 - 1)
    cond2 = p3 * q3 - 1 == p2 * p2 * q1 * q1 + (p1 * q1 + 1) * (p2 * q2 - 1)
    some_all = True
    all_all = True
    for pi, qi, oj, ok in ((p1, q1, p2, p3), (p2, q2, p1, p3), (p3, q3, p1, p2)):
        if pi == 1:
            continue
        # p_k is a unit mod p_i (Markov entries are pairwise coprime), so
        # q_i = +-3 p_j / p_k mod p_i iff q_i p_k -+ 3 p_j = 0 mod p_i.  As
        # p_j^2 + p_k^2 = 0 mod p_i, p_j = u p_k with u^2 = -1, so 1/u = -u
        # and swapping j and k gives the same two residues +-3u.
        a, b = qi * ok, 3 * oj
        hits = ((a - b) % pi == 0, (a + b) % pi == 0)
        some_all = some_all and any(hits)
        all_all = all_all and all(hits)
    cond4 = q1 <= 0
    return QReport(cond1, cond2, some_all, all_all, cond4)


def mutation_path(t: MarkovTriple) -> str:
    """The mutation word from (1,1,1) to t, found by descending the tree:
    replacing p3 by 3 p1 p2 - p3 strictly decreases the maximum above the
    stem."""
    word: list[str] = []
    cur = t.entries()
    while cur != (1, 1, 1):
        p1, p2, p3 = cur
        parent = tuple(sorted((p1, p2, 3 * p1 * p2 - p3)))
        a, b, c = parent
        # which parent entry was mutated away to produce p3?
        if (p1, p2) == (b, c):
            word.append("L")
        elif (p1, p2) == (a, c):
            word.append("R")
        else:
            raise InternalConsistencyError(f"{cur} is not a child of {parent}")
        cur = parent
    return "".join(reversed(word))


def replay(word: str) -> MarkovTriple:
    t = MarkovTriple(1, 1, 1)
    for ch in word:
        t = mutate(t, Mutation(ch))
    return t
