"""Verification criteria shared by the CLI and the acceptance tests.

`CRITERIA` is the table of the nine criteria, and `run` runs any subset of
it.  Six check each triple of the Markov tree: `run` walks the tree once
for all of them, and each triple's `TripleRecord` derives its q-triple,
diagram X, two-curve subdiagram and boundary once, on first use, for all
their checks.  The other three run whole.  Depths follow the documented
acceptance levels; the CLI can lower them for quick runs.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd

from . import atf, farey, handles, lens, markov
from .errors import LenscalcError
from .farey import ZERO, EdgeSign, Slope


@dataclass(frozen=True)
class CriterionResult:
    """One row of a run.  `wall_s`, not compared, is the seconds the row
    took: a whole criterion's one call, raising or not, or the sum of a tree
    criterion's check calls, each shared value charged to its first user."""

    number: int
    description: str
    passed: bool
    detail: str
    wall_s: float = field(default=0.0, compare=False)


def _result(number: int, title: str, lead: str, bad: list) -> CriterionResult:
    return CriterionResult(number, title, not bad, lead + (f"; failures: {bad}" if bad else ""))


@dataclass(frozen=True)
class TripleRecord:
    """A triple of the walk and the values its checks share, each derived on
    first use."""

    t: markov.MarkovTriple

    @cached_property
    def q(self) -> markov.QTriple:
        return markov.derive_q(self.t)

    @cached_property
    def x(self) -> handles.HorizontalDiagram:
        return handles.build_X(self.t, self.q)

    @cached_property
    def sub(self) -> handles.HorizontalDiagram:
        return handles.two_curve_subdiagram(self.x)

    @cached_property
    def boundary(self) -> lens.ThreeManifold:
        return handles.boundary_of_diagram(self.sub)


def q_sweep(depth: int) -> tuple[int, dict[str, bool], list[str]]:
    """`markov.verify_q` over the Markov tree to the given depth: the triple
    count, for each condition whether every triple meets it, and the triples
    that fail a condition `QReport.passed` requires (3_all is not required)."""
    conditions = {"1": True, "2": True, "3_some": True, "3_all": True, "4": True}
    failures = []
    triples = markov.enumerate_tree(depth)
    for t, _ in triples:
        rep = markov.verify_q(t, markov.derive_q(t))
        conditions["1"] &= rep.cond1
        conditions["2"] &= rep.cond2
        conditions["3_some"] &= rep.cond3_some
        conditions["3_all"] &= rep.cond3_all
        conditions["4"] &= rep.cond4
        if not rep.passed:
            failures.append(str(t))
    return len(triples), conditions, failures


def crit1_q_sweep(r: TripleRecord) -> list[str]:
    """The derived q-triple passes its verification conditions."""
    return [] if markov.verify_q(r.t, r.q).passed else [str(r.t)]


def crit2_cp2_recognition(r: TripleRecord) -> list[str]:
    """recognize_cp2 accepts the diagram built from the derived q-triple."""
    ok, x = handles.recognize_cp2(r.x)
    bad = [] if ok else [f"{r.t}: x={x}"]
    want = {(1, 1, 1): (3, -6, -3), (1, 2, 5): (6, -87, -15)}.get(r.t.entries())
    if want is not None and x != want:
        bad.append(f"{r.t}: spot x={x}, expected {want}")
    return bad


def crit3_two_curve_boundary(r: TripleRecord) -> list[str]:
    """Boundary of the first two curves is L(-p3^2, p3*q3 - 1)."""
    p3 = r.t.p3
    want = lens.ThreeManifold((lens.LensSpace(-p3 * p3, p3 * r.q.q3 - 1),))
    bad = [] if r.boundary == want else [f"{r.t}: {r.boundary} != {want}"]
    if r.t.entries() == (1, 2, 5):
        vec = handles.push(r.sub, 1, 0)
        if vec != (-29, -25):
            bad.append(f"(1,2,5): pushed class {vec}, expected (-29, -25)")
    return bad


def _surgery_example() -> list[str]:
    """The worked example: torus-framed surgery on T(5,-8) in L(3,1)."""
    knot = lens.TorusKnot(5, -8, lens.LensSpace(3, 1))
    got = lens.nonloose_surgery_result(knot)
    want = lens.ThreeManifold((lens.LensSpace(8, 5), lens.LensSpace(7, 3)))
    return [] if got == want else [f"T_(5,-8) in L(3,1): {got} != {want}"]


def crit4_surgery(r: TripleRecord) -> list[str]:
    """Surgery on the dual knot splits the ambient lens space into the
    boundaries of the balls B_{p1,q1} and B_{p2,q2}; the root triple also
    runs the worked example."""
    t, q = r.t, r.q
    p1, p2, p3 = t.entries()
    bad = _surgery_example() if t.entries() == (1, 1, 1) else []
    # Meridian slopes of the two sides of the two-curve diagram, read on the
    # Heegaard torus between the curves; the dual knot is the longitude there.
    inner, outer = r.sub.curves
    lam, mu = farey.transvect(inner.lam, inner.mu, inner.framing, 1, 0)
    m_in = Slope(mu, lam)
    # the inverse twist: the transvection with k negated
    lam, mu = farey.transvect(outer.lam, outer.mu, -outer.framing, 1, 0)
    m_out = Slope(mu, lam)
    ambient = lens.lens_from_meridian_slopes(m_in, m_out)
    if ambient != lens.LensSpace(-p3 * p3, p3 * q.q3 - 1):
        return bad + [f"{t}: ambient {ambient} is not L(-p3^2, p3 q3 - 1)"]
    # torus-framed surgery on the dual knot splits the ambient space along
    # the torus: each side is closed off by a solid torus with meridian 0
    split = lens.ThreeManifold(
        (lens.lens_from_meridian_slopes(ZERO, m_out), lens.lens_from_meridian_slopes(m_in, ZERO))
    )
    want = lens.ThreeManifold(
        (lens.LensSpace(p1 * p1, p1 * q.q1 - 1), lens.LensSpace(p2 * p2, p2 * q.q2 - 1))
    )
    if split != want:
        bad.append(f"{t}: {split} != {want}")
    return bad


def crit5_decorated_paths() -> CriterionResult:
    """The figure paths classify as stated."""
    s = Slope.parse
    signs = (EdgeSign.RING, EdgeSign.MINUS, EdgeSign.RING)
    tight = farey.Classification.UNIVERSALLY_TIGHT
    overtwisted = farey.totally_inconsistent_path(s("-3"), s("-8/5"))
    expect = [
        (overtwisted, farey.Classification.OVERTWISTED),
        (farey.DecoratedPath((s("-8/5"), s("-3/2"), s("-1"), s("0")), signs), tight),
        (farey.DecoratedPath((s("-3"), s("-2"), s("-5/3"), s("-8/5")), signs), tight),
    ]
    bad = []
    sign_spot = tuple(s.value for s in overtwisted.signs)
    if sign_spot != ("o", "+", "+", "-", "-", "o"):
        bad.append(f"inconsistent-path signs {sign_spot}")
    slowest = 0.0
    for path, want in expect:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            got = farey.classify(path)
            best = min(best, time.perf_counter() - t0)
        slowest = max(slowest, best)
        if got is not want:
            bad.append(f"{[str(x) for x in path.slopes]}: {got} != {want}")
    if slowest >= 0.001:
        bad.append(f"classification took {slowest * 1000:.3f} ms")
    title = "decorated-path classifications of the figure paths"
    return _result(5, title, f"{len(expect)} paths classified", bad)


def crit6_mutation_slide(r: TripleRecord) -> list[str]:
    """Mutation slide identities and boundary preservation."""
    t, q, sub = r.t, r.q, r.sub
    p1, p2, p3 = t.entries()
    bad = []
    first = handles.slide_mutation(sub, handles.Slot.FIRST)
    moved = first.curves[1]
    if (moved.mu, moved.lam) != (3 * p2 * p3 - p1, 3 * q.q2 * p3 + q.q1):
        bad.append(f"{t} first: got ({moved.mu},{moved.lam})")
    second = handles.slide_mutation(sub, handles.Slot.SECOND)
    moved = second.curves[1]
    if (moved.mu, moved.lam) != (3 * p1 * p3 - p2, 3 * q.q1 * p3 + q.q2):
        bad.append(f"{t} second: got ({moved.mu},{moved.lam})")
    for slid in (first, second):
        after = handles.boundary_of_diagram(slid)
        if after != r.boundary:
            bad.append(f"{t}: boundary {r.boundary} became {after}")
    return bad


def _stern_brocot(u, v, den_limit: int, verts: list, edges: list) -> None:
    """Append the edge u -- v to edges, and to verts, in increasing order,
    the slopes strictly between u and v with denominator <= den_limit."""
    edges.append((u, v))
    m = (u[0] + v[0], u[1] + v[1])
    if m[1] <= den_limit:
        _stern_brocot(u, m, den_limit, verts, edges)
        verts.append(m)
        _stern_brocot(m, v, den_limit, verts, edges)


def _oracle_graph(den_limit: int) -> tuple[list[Slope], list[list[int]]]:
    """The slopes in [-2, 0] with denominator at most den_limit, in
    increasing order, and for each the sorted indices of its larger Farey
    neighbours.

    Built by Stern-Brocot recursion from the edges -2 -- -1 and -1 -- 0.
    Every Farey edge inside [-2, 0] joins a mediant to one of its parents,
    and every slope strictly inside an edge u -- v has denominator at least
    u.den + v.den, the mediant's, so the recursion stops at the first
    mediant beyond den_limit.
    """
    verts = [(-2, 1)]
    edges = []
    for u, v in (((-2, 1), (-1, 1)), ((-1, 1), (0, 1))):
        _stern_brocot(u, v, den_limit, verts, edges)
        verts.append(v)
    index = {v: i for i, v in enumerate(verts)}
    succ: list[list[int]] = [[] for _ in verts]
    for u, v in edges:
        succ[index[u]].append(index[v])
    for out in succ:
        out.sort()
    return [Slope(n, d) for n, d in verts], succ


def crit7_farey_oracle(max_den: int = 20) -> CriterionResult:
    """minimal_path against a breadth-first search oracle.

    The oracle graph holds the slopes in [-2, 0] with denominator at most
    2*max_den (geodesic interior vertices can need denominators beyond the
    endpoints'); test pairs have denominator at most max_den.  The geodesic
    is taken in the clockwise-monotone subgraph, which is where minimality
    lives: clockwise means numerically increasing here.

    Each source's search keeps its breadth-first tree (the slope each slope
    was first reached from) and fails if a slope is reached twice at one
    depth, so every geodesic in the tree is the only one.  Each path must
    equal the geodesic to its destination, vertex for vertex, endpoints
    included.  Equality implies every property of a minimal clockwise path
    with those endpoints: each oracle edge is a Farey edge between
    increasing slopes, so the path is adjacent and clockwise, and a chord
    would be an oracle edge that gives a shorter path, so there is none.
    A wrong path is a failure in the result, never an exception.
    """
    # Bound here, when the criterion runs, so wrappers installed on the
    # module or the class (as a tracer does) still see every call.
    minimal_path = farey.minimal_path
    verts, succ = _oracle_graph(2 * max_den)
    nums = [s.num for s in verts]
    dens = [s.den for s in verts]
    n = len(verts)
    sources = [i for i, s in enumerate(verts) if s.den <= max_den]
    cases = 0
    bad = []
    for k, si in enumerate(sources):
        src = verts[si]
        # breadth-first search, one level at a time, keeping each slope's
        # parent in the tree
        dist = [-1] * n
        parent = [-1] * n
        dist[si] = 0
        level, depth = [si], 0
        while level:
            depth += 1
            following = []
            for i in level:
                for j in succ[i]:
                    dj = dist[j]
                    if dj < 0:
                        dist[j] = depth
                        parent[j] = i
                        following.append(j)
                    elif dj == depth:
                        bad.append(f"{src}->{verts[j]}: two geodesics")
            level = following
        for di in sources[k + 1 :]:
            dst = verts[di]
            cases += 1
            path = minimal_path(src, dst)
            edges = len(path) - 1
            if edges != dist[di]:
                bad.append(f"{src}->{dst}: length {edges} vs {dist[di]}")
                continue
            # walk the path from dst back to src along the tree
            j = di
            for s in reversed(path):
                if s.num != nums[j] or s.den != dens[j]:
                    bad.append(f"{src}->{dst}: vertex {s} is off the oracle geodesic")
                    break
                j = parent[j]
    title = f"minimal_path vs BFS oracle, denominators <= {max_den}"
    return _result(7, title, f"{cases} pairs checked", bad[:5])


def crit8_atf_pipeline(r: TripleRecord) -> list[str]:
    """The almost toric diagram is consistent and its corners read
    L(p_i^2, p_i q_i - 1) for the derived q-triple.  At the root, a cut
    transferred twice gives the diagram back."""
    t = r.t
    d = atf.atf_for_markov(t)
    if not atf.is_consistent(d):
        return [f"{t}: inconsistent diagram"]
    bad = []
    readouts = [atf.node_boundary_lens(d, i) for i in range(len(d.frame.positions))]
    pq = zip(t.entries(), r.q.entries())
    want = [lens.LensSpace(p * p, p * q - 1) for p, q in pq]
    if not lens.same_lens_spaces(readouts, want):
        forms = sorted(l.canonical for l in want)
        bad.append(f"{t}: readouts {[str(l) for l in readouts]} != {forms}")
    if t.entries() == (1, 1, 2):
        traded = [l for l in readouts if not l.is_s3()]
        if len(traded) != 1 or traded[0] != lens.LensSpace(4, 1):
            bad.append(f"(1,1,2): traded corner reads {[str(l) for l in readouts]}")
    if t.entries() == (1, 1, 1):
        twice = atf.transfer_cut(atf.transfer_cut(d, 0), 0)
        if not atf.affinely_equivalent(d, twice):
            bad.append("double transfer is not the identity up to integral-affine maps")
    return bad


def crit9_boundary_cross_check(pmax: int = 30) -> CriterionResult:
    """boundary_Bpq against the one-curve handle diagram."""
    bad = []
    count = 0
    for p in range(1, pmax + 1):
        for q in [1] if p == 1 else [q for q in range(1, p) if gcd(p, q) == 1]:
            count += 1
            want = lens.ThreeManifold((lens.boundary_Bpq(p, q),))
            diagram = handles.HorizontalDiagram((handles.TorusCurve(-p, q),))
            got = handles.boundary_of_diagram(diagram)
            if got != want:
                bad.append(f"B_({p},{q}): {got} != {want}")
    title = f"one-curve boundary cross-check, p <= {pmax}"
    return _result(9, title, f"{count} pairs checked", bad)


@dataclass(frozen=True)
class Criterion:
    """A row of `CRITERIA`, naming its check.  A tree criterion's check turns
    each `TripleRecord` to the sweep's depth into failure strings.  Any other
    criterion's check runs it whole, at its own size, and returns the
    `CriterionResult`."""

    number: int
    check: str
    title: str = ""
    noun: str = ""


CRITERIA = (
    Criterion(1, "crit1_q_sweep", "q-triple derivation conditions", "triples checked"),
    Criterion(2, "crit2_cp2_recognition", "CP^2 recognition sweep", "diagrams checked"),
    Criterion(3, "crit3_two_curve_boundary", "two-curve boundary identity", "boundaries checked"),
    Criterion(4, "crit4_surgery", "torus-framed surgery splitting", "splittings checked"),
    Criterion(5, "crit5_decorated_paths"),
    Criterion(6, "crit6_mutation_slide", "mutation handle slide identities", "triples checked"),
    Criterion(7, "crit7_farey_oracle"),
    Criterion(8, "crit8_atf_pipeline", "almost toric pipeline", "diagrams generated"),
    Criterion(9, "crit9_boundary_cross_check"),
)


def run(numbers: Collection[int], depth: int = 8) -> list[CriterionResult]:
    """The criteria with the given numbers, in table order, at a tree depth,
    each timed in `wall_s`.  One walk of the tree serves all their triple
    checks.  A `LenscalcError` from a triple check is a failure of that
    criterion, naming the triple, the error code and the message; the walk
    goes on.  One from a whole check fails that criterion's row, described
    by the check's name.  Each check is looked up in this module when it is
    called, so a wrapper installed here sees every call."""
    fns = globals()
    rows = [c for c in CRITERIA if c.number in numbers]
    tree = [c for c in rows if c.title]
    bad = {c.number: [] for c in tree}
    spent = dict.fromkeys(bad, 0.0)
    # the words are not kept through the checks
    walk = [t for t, _ in markov.enumerate_tree(depth)] if tree else []
    for t in walk:
        record = TripleRecord(t)
        for c in tree:
            start = time.perf_counter()
            try:
                bad[c.number] += fns[c.check](record)
            except LenscalcError as exc:
                bad[c.number].append(f"{t}: {exc.code}: {exc}")
            spent[c.number] += time.perf_counter() - start
    results = []
    for c in rows:
        if c.title:
            description = f"{c.title}, tree depth {depth}"
            result = _result(c.number, description, f"{len(walk)} {c.noun}", bad[c.number])
        else:
            start = time.perf_counter()
            try:
                result = fns[c.check]()
            except LenscalcError as exc:
                result = CriterionResult(c.number, c.check, False, f"{exc.code}: {exc}")
            spent[c.number] = time.perf_counter() - start
        results.append(replace(result, wall_s=spent[c.number]))
    return results


def run_all(depth: int = 8) -> list[CriterionResult]:
    return run(range(1, len(CRITERIA) + 1), depth)
