"""Verification sweeps shared by the CLI and the acceptance tests.

Each criterion returns (passed, detail).  Depths follow the documented
acceptance levels; the CLI can lower them for quick runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import atf, farey, handles, lens, markov
from .farey import EdgeSign, IntMat2, Slope, _bezout


@dataclass(frozen=True)
class CriterionResult:
    number: int
    description: str
    passed: bool
    detail: str


def _tree(depth: int) -> list[markov.MarkovTriple]:
    return [t for t, _ in markov.enumerate_tree(depth)]


def q_sweep(depth: int) -> tuple[int, dict[str, bool], list[str]]:
    """`markov.verify_q` over the Markov tree to the given depth: the triple
    count, for each condition whether every triple meets it, and the triples
    that fail a condition `QReport.passed` requires (3_all is not required)."""
    conditions = {"1": True, "2": True, "3_some": True, "3_all": True, "4": True}
    failures = []
    triples = _tree(depth)
    for t in triples:
        rep = markov.verify_q(t, markov.derive_q(t))
        conditions["1"] &= rep.cond1
        conditions["2"] &= rep.cond2
        conditions["3_some"] &= rep.cond3_some
        conditions["3_all"] &= rep.cond3_all
        conditions["4"] &= rep.cond4
        if not rep.passed:
            failures.append(str(t))
    return len(triples), conditions, failures


def crit1_q_sweep(depth: int = 8) -> CriterionResult:
    """Every derived q-triple passes its verification conditions."""
    count, _, bad = q_sweep(depth)
    return CriterionResult(
        1,
        f"q-triple derivation conditions, tree depth {depth}",
        not bad,
        f"{count} triples checked" + (f"; failures: {bad}" if bad else ""),
    )


def crit2_cp2_recognition(depth: int = 8) -> CriterionResult:
    """recognize_cp2 accepts every diagram built from a derived q-triple."""
    bad = []
    count = 0
    spots = {
        (1, 1, 1): (3, -6, -3),
        (1, 2, 5): (6, -87, -15),
    }
    for t in _tree(depth):
        count += 1
        ok, x = handles.recognize_cp2(handles.build_X(t, markov.derive_q(t)))
        if not ok:
            bad.append(f"{t}: x={x}")
        want = spots.get(t.entries())
        if want is not None and x != want:
            bad.append(f"{t}: spot x={x}, expected {want}")
    return CriterionResult(
        2,
        f"CP^2 recognition sweep, tree depth {depth}",
        not bad,
        f"{count} diagrams checked" + (f"; failures: {bad}" if bad else ""),
    )


def crit3_two_curve_boundary(depth: int = 8) -> CriterionResult:
    """Boundary of the first two curves is L(-p3^2, p3*q3 - 1)."""
    bad = []
    count = 0
    for t in _tree(depth):
        count += 1
        q = markov.derive_q(t)
        sub = handles.two_curve_subdiagram(handles.build_X(t, q))
        got = handles.boundary_of_diagram(sub)
        want = lens.ThreeManifold((lens.LensSpace(-t.p3 * t.p3, t.p3 * q.q3 - 1),))
        if got != want:
            bad.append(f"{t}: {got} != {want}")
        if t.entries() == (1, 2, 5):
            mat = handles.composite_twist(sub)
            vec = mat.apply_vec(1, 0)
            if vec != (-29, -25):
                bad.append(f"(1,2,5): pushed class {vec}, expected (-29, -25)")
    return CriterionResult(
        3,
        f"two-curve boundary identity, tree depth {depth}",
        not bad,
        f"{count} boundaries checked" + (f"; failures: {bad}" if bad else ""),
    )


def crit4_surgery(depth: int = 6) -> CriterionResult:
    """The worked surgery example and the dual-knot splitting sweep."""
    bad = []
    knot = lens.TorusKnot(5, -8, lens.LensSpace(3, 1))
    got = lens.nonloose_surgery_result(knot)
    want = lens.ThreeManifold((lens.LensSpace(8, 5), lens.LensSpace(7, 3)))
    if got != want:
        bad.append(f"T_(5,-8) in L(3,1): {got} != {want}")
    count = 0
    for t in _tree(depth):
        count += 1
        q = markov.derive_q(t)
        p1, p2, p3 = t.entries()
        # Meridian slopes of the two sides of the two-curve diagram, read on
        # the Heegaard torus between the curves; the dual knot is the
        # longitude (slope 0) there.
        g1 = handles.TorusCurve(-p2, q.q2)
        g2 = handles.TorusCurve(p1, q.q1)
        lam, mu = handles.twist_matrix(g1).apply_vec(1, 0)
        m_in = Slope(mu, lam)
        lam, mu = handles.twist_matrix(g2).inverse().apply_vec(1, 0)
        m_out = Slope(mu, lam)
        ambient = lens.lens_from_meridian_slopes(m_in, m_out)
        if ambient != lens.LensSpace(-p3 * p3, p3 * q.q3 - 1):
            bad.append(f"{t}: ambient {ambient} is not L(-p3^2, p3 q3 - 1)")
            continue
        # change basis so the outer meridian reads 0, as in the surgery op
        u, v = _bezout(m_out.num, m_out.den)
        basis = IntMat2(m_out.den, -m_out.num, u, v)
        split = lens.surgery_splitting(basis.apply(Slope(0, 1)), basis.apply(m_in))
        want = lens.ThreeManifold(
            (
                lens.LensSpace(p1 * p1, p1 * q.q1 - 1),
                lens.LensSpace(p2 * p2, p2 * q.q2 - 1),
            )
        )
        if not split.homeomorphic(want, lens.Orientation.EITHER):
            bad.append(f"{t}: {split} != {want}")
    return CriterionResult(
        4,
        f"torus-framed surgery splitting, tree depth {depth}",
        not bad,
        f"{count} splittings checked" + (f"; failures: {bad}" if bad else ""),
    )


def _fig_paths():
    s = Slope.parse
    overtwisted = farey.totally_inconsistent_path(s("-3"), s("-8/5"))
    right = farey.DecoratedPath(
        (s("-8/5"), s("-3/2"), s("-1"), s("0")),
        (EdgeSign.RING, EdgeSign.MINUS, EdgeSign.RING),
    )
    left = farey.DecoratedPath(
        (s("-3"), s("-2"), s("-5/3"), s("-8/5")),
        (EdgeSign.RING, EdgeSign.MINUS, EdgeSign.RING),
    )
    return overtwisted, right, left


def crit5_decorated_paths() -> CriterionResult:
    """The figure paths classify as stated."""
    import time

    overtwisted, right, left = _fig_paths()
    bad = []
    expect = [
        (overtwisted, farey.Classification.OVERTWISTED),
        (right, farey.Classification.UNIVERSALLY_TIGHT),
        (left, farey.Classification.UNIVERSALLY_TIGHT),
    ]
    sign_spot = tuple(s.value for s in overtwisted.signs)
    if sign_spot != ("o", "+", "+", "-", "-", "o"):
        bad.append(f"inconsistent-path signs {sign_spot}")
    slowest = 0.0
    for path, want in expect:
        best = float("inf")
        got = None
        for _ in range(5):
            t0 = time.perf_counter()
            got = farey.classify(path)
            best = min(best, time.perf_counter() - t0)
        slowest = max(slowest, best)
        if got is not want:
            bad.append(f"{[str(x) for x in path.slopes]}: {got} != {want}")
    if slowest >= 0.001:
        bad.append(f"classification took {slowest * 1000:.3f} ms")
    return CriterionResult(
        5,
        "decorated-path classifications of the figure paths",
        not bad,
        f"slowest {slowest * 1e6:.0f} us" + (f"; failures: {bad}" if bad else ""),
    )


def crit6_mutation_slide(depth: int = 8) -> CriterionResult:
    """Mutation slide identities and boundary preservation."""
    bad = []
    count = 0
    for t in _tree(depth):
        count += 1
        q = markov.derive_q(t)
        p1, p2, p3 = t.entries()
        sub = handles.two_curve_subdiagram(handles.build_X(t, q))
        before = handles.boundary_of_diagram(sub)
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
            if not before.homeomorphic(after, lens.Orientation.EITHER):
                bad.append(f"{t}: boundary {before} became {after}")
    return CriterionResult(
        6,
        f"mutation handle slide identities, tree depth {depth}",
        not bad,
        f"{count} triples checked" + (f"; failures: {bad}" if bad else ""),
    )


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
    return [Slope._primitive(n, d) for n, d in verts], succ


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
    return CriterionResult(
        7,
        f"minimal_path vs BFS oracle, denominators <= {max_den}",
        not bad,
        f"{cases} pairs checked" + (f"; failures: {bad[:5]}" if bad else ""),
    )


def crit8_atf_pipeline(depth: int = 8) -> CriterionResult:
    """Almost toric generation: consistency, readouts, and double transfer.
    The corners read L(p_i^2, p_i q_i - 1) for the derived q-triple."""
    bad = []
    count = 0
    for t in _tree(depth):
        count += 1
        d = atf.atf_for_markov(t)
        if not atf.is_consistent(d):
            bad.append(f"{t}: inconsistent diagram")
            continue
        readouts = [atf.node_boundary_lens(d, i) for i in range(len(d.nodes))]
        want = sorted(
            lens.LensSpace(p * p, p * q - 1).canonical
            for p, q in zip(t.entries(), markov.derive_q(t).entries())
        )
        if sorted(l.canonical for l in readouts) != want:
            bad.append(f"{t}: readouts {[str(l) for l in readouts]} != {want}")
        if t.entries() == (1, 1, 2):
            traded = [l for l in readouts if not l.is_s3()]
            if len(traded) != 1 or traded[0].canonical != (4, 1):
                bad.append(f"(1,1,2): traded corner reads {[str(l) for l in readouts]}")
    base = atf.atf_for_markov(markov.MarkovTriple(1, 1, 1))
    twice = atf.transfer_cut(atf.transfer_cut(base, 0), 0)
    if not atf.affinely_equivalent(base, twice):
        bad.append("double transfer is not the identity up to integral-affine maps")
    return CriterionResult(
        8,
        f"almost toric pipeline, tree depth {depth}",
        not bad,
        f"{count} diagrams generated" + (f"; failures: {bad}" if bad else ""),
    )


def crit9_boundary_cross_check(pmax: int = 30) -> CriterionResult:
    """boundary_Bpq against the one-curve handle diagram."""
    from math import gcd

    bad = []
    count = 0
    for p in range(1, pmax + 1):
        qs = [1] if p == 1 else [q for q in range(1, p) if gcd(p, q) == 1]
        for q in qs:
            count += 1
            want = lens.ThreeManifold((lens.boundary_Bpq(p, q),))
            diagram = handles.HorizontalDiagram((handles.TorusCurve(-p, q),))
            got = handles.boundary_of_diagram(diagram)
            if got != want:
                bad.append(f"B_({p},{q}): {got} != {want}")
    return CriterionResult(
        9,
        f"one-curve boundary cross-check, p <= {pmax}",
        not bad,
        f"{count} pairs checked" + (f"; failures: {bad}" if bad else ""),
    )


# The criteria in order, each run at its size for a given tree depth.  The
# entries look each criterion up by name when called, so a wrapper installed
# on this module's functions sees every run.
CRITERIA = (
    lambda depth: crit1_q_sweep(depth),
    lambda depth: crit2_cp2_recognition(depth),
    lambda depth: crit3_two_curve_boundary(depth),
    lambda depth: crit4_surgery(min(depth, 6)),
    lambda depth: crit5_decorated_paths(),
    lambda depth: crit6_mutation_slide(depth),
    lambda depth: crit7_farey_oracle(20),
    lambda depth: crit8_atf_pipeline(depth),
    lambda depth: crit9_boundary_cross_check(30),
)


def run_all(depth: int = 8) -> list[CriterionResult]:
    return [criterion(depth) for criterion in CRITERIA]
