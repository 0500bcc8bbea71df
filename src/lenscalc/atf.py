"""Almost toric base diagrams: exact integral-affine convex polygons with
nodes, the three moves (nodal trade, nodal slide, transfer the cut), a
consistency checker, and per-Markov-triple generation with lens readouts.

A diagram is its integral frame (`AtfDiagram.frame`): one denominator, the
least, and integer pairs over it for the vertices, node positions and cut
ends, with the primitive integer eigenvectors.  The one constructor,
`AtfDiagram(den, vertices, positions, cut_ends, eigenvectors)`, takes these
fields, so `AtfDiagram(*d.frame) == d`.  Every move builds its diagram with
it, and so does the JSON reader.  A document is a JSON object; its
`vertices` and `nodes` are arrays, each node is an object, each point or
eigenvector an array of exactly two entries (`farey._json_pair`), and each
coordinate ("n/d" string or integer) an integer pair (n, d > 0).  The reader
rejects anything else with one exact message.  A slide takes its ratio
as two integers.  Fractions appear only in the `vertices` and `nodes` views.
The monodromy of a node acts on vectors, v -> v + det(e, v) e
(`farey.transvect`), with no matrix built, and the orientation tests run on
unpacked integers.  A node report tests parallelism on the raw integer edges
at the cut end, as the frame holds them: the monodromy is linear, so M(k u)
is parallel to w iff M u is, and the eigenvector's `gcd` is the report's
only one.  A readout passes the same raw edges to `Slope`, which reduces
each once.  A report is a `NodeReport` tuple, and a diagram's JSON text
(`AtfDiagram.json_text`) is made once, for the SVG and the CLI.  A chord's
far end is where an integer `det` turns sign (`_chord_end`).  Two diagrams
are equal up to integral-affine maps iff their integer keys
(`AtfDiagram.normal_form`) are: the least ring of vertices over the 2n
labellings, then the least image of the nodes over the labellings that tie
on it.  Only the labellings along a shortest edge can give the least ring,
so only those are mapped.  A diagram derives its checks once, on the first
read: its node reports (`AtfDiagram._reports`), which test each pair of cuts
once, and its readouts (`AtfDiagram._readouts`), one per passing node.
`_segments_intersect` stops at the first two signs when they put one segment
strictly on one side of the other's line.  A passing node's cut end is a
vertex, so a transfer splices one point into the vertex loop, where the
eigenline exits, and applies the one re-gluing that flattens the old cut
end.  Every move and readout resolves its vertex or node index as list
indexing does, `range(n)[i]`: it takes exactly -n <= i < n and raises
IndexError otherwise.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import (
    InternalConsistencyError,
    InvariantError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from .farey import Slope, _bezout, det, transvect
from .farey import _json_array, _json_int, _json_member, _json_pair, _json_ratio
from .lens import LensSpace, lens_from_meridian_slopes
from .markov import MarkovTriple
# unused here, but bench/test_bench.py checks that bench/tracer.py wraps this binding
from .markov import mutation_path  # noqa: F401

Point = tuple[Fraction, Fraction]
IntVec = tuple[int, int]  # a point or vector of an integral frame


def _sub(p: IntVec, q: IntVec) -> IntVec:
    return (p[0] - q[0], p[1] - q[1])


def _scaled(points, s: int) -> list[IntVec]:
    """The points times s > 0.  A positive scaling keeps every sign of `det`,
    every incidence and equality, and every primitive direction between the
    points."""
    return [(s * x, s * y) for x, y in points]


def _lowest(x: int, den: int) -> tuple[int, int]:
    """The numerator and denominator of x / den in lowest terms."""
    g = gcd(x, den)
    return x // g, den // g


def _primitive(v: IntVec) -> IntVec:
    """The primitive integer vector spanning the same ray as v."""
    g = gcd(*v)
    if g == 0:
        raise PreconditionError("zero vector has no direction")
    return (v[0] // g, v[1] // g)


def _on_segment(p: IntVec, a: IntVec, b: IntVec) -> bool:
    """p lies on the closed segment [a, b]."""
    if det(_sub(p, a), _sub(b, a)) != 0:
        return False
    lo = min(a[0], b[0]), min(a[1], b[1])
    hi = max(a[0], b[0]), max(a[1], b[1])
    return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]


def _segments_intersect(a: IntVec, b: IntVec, c: IntVec, d: IntVec) -> bool:
    """Closed segments [a,b] and [c,d] share at least one point.  Most pairs
    are told apart by the first two signs, when [a,b] lies strictly on one
    side of the line through c and d; the other two and the collinear cases
    are computed only when those do not decide."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    ux, uy = dx - cx, dy - cy
    d1 = ux * (ay - cy) - uy * (ax - cx)
    d2 = ux * (by - cy) - uy * (bx - cx)
    if d1 * d2 > 0:
        return False
    ux, uy = bx - ax, by - ay
    d3 = ux * (cy - ay) - uy * (cx - ax)
    d4 = ux * (dy - ay) - uy * (dx - ax)
    if d3 * d4 > 0:
        return False
    if d1 and d2 and d3 and d4:
        return True  # each segment's ends lie strictly on either side of the other's line
    if d1 == 0 and _on_segment(a, c, d):
        return True
    if d2 == 0 and _on_segment(b, c, d):
        return True
    if d3 == 0 and _on_segment(c, a, b):
        return True
    if d4 == 0 and _on_segment(d, a, b):
        return True
    return False


def _interior(verts: list[IntVec], p: IntVec) -> bool:
    """p lies strictly inside the counterclockwise polygon verts: det(b - a,
    p - a) > 0 along every edge from a to b."""
    px, py = p
    ax, ay = verts[-1]
    for bx, by in verts:
        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0:
            return False
        ax, ay = bx, by
    return True


def _flanking(verts: list[IntVec], p: IntVec) -> tuple[IntVec, IntVec] | None:
    """The boundary edge vectors leaving p, as the frame holds them, not
    reduced: to the previous and the next vertex when p is a vertex, to the
    two ends of its edge when p is edge-interior, None when p is off the
    boundary.  Each is a positive multiple of its primitive direction."""
    n = len(verts)
    px, py = p
    try:
        i = verts.index(p)
    except ValueError:  # p is not a vertex
        for k in range(n):
            a, b = verts[k], verts[(k + 1) % n]
            if _on_segment(p, a, b):
                return (a[0] - px, a[1] - py), (b[0] - px, b[1] - py)
        return None
    (ax, ay), (bx, by) = verts[i - 1], verts[(i + 1) % n]
    return (ax - px, ay - py), (bx - px, by - py)


@dataclass(frozen=True)
class AtfNode:
    """A focus-focus node: position, eigendirection, and branch cut running
    from the node to a boundary point."""

    position: Point
    eigenvector: tuple[int, int]
    cut_end: Point


# A diagram's points over their least common denominator `den`, as tuples of
# integer pairs, and its eigenvectors.  (`typing.NamedTuple` would import `typing`.)
IntegralFrame = namedtuple("IntegralFrame", "den vertices positions cut_ends eigenvectors")


@dataclass(frozen=True, init=False)
class AtfDiagram:
    """Strictly convex polygon (counterclockwise rational vertices) with
    nodes, stored as its integral frame.  Its Fraction views, its node
    reports and readouts, and its normal form are cached properties, each
    derived on its first read, not fields."""

    frame: IntegralFrame

    def __init__(self, den: int, vertices, positions, cut_ends, eigenvectors) -> None:
        """The diagram of the integer points over den > 0, node i at
        positions[i] with its cut to cut_ends[i] and its eigenvector
        eigenvectors[i].  It stores their frame in lowest terms, if the
        polygon turns left at every vertex and goes round once: its edges'
        y-components, zeros left out, change sign exactly twice."""
        groups = (vertices, positions, cut_ends)
        g = gcd(den, *(c for pts in groups for p in pts for c in p))
        verts, *marks = (tuple((x // g, y // g) for x, y in pts) for pts in groups)
        if len(verts) < 3:
            raise InvariantError("polygon needs at least three vertices")
        # each edge (ux, uy) turns left into the next, (vx, vy)
        (x0, y0), (x1, y1) = verts[-2:]
        ux, uy = x1 - x0, y1 - y0
        signs = []
        for x, y in verts:
            vx, vy = x - x1, y - y1
            if ux * vy - uy * vx <= 0:
                raise InvariantError("vertices must be strictly convex counterclockwise")
            if vy:
                signs.append(vy > 0)
            ux, uy, x1, y1 = vx, vy, x, y
        if sum(signs[i - 1] != signs[i] for i in range(len(signs))) != 2:
            raise InvariantError("vertices must be strictly convex counterclockwise")
        frame = IntegralFrame(den // g, verts, *marks, tuple(eigenvectors))
        object.__setattr__(self, "frame", frame)

    def _point(self, p: IntVec) -> Point:
        return (Fraction(p[0], self.frame.den), Fraction(p[1], self.frame.den))

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as Fraction points, made when first read."""
        return tuple(map(self._point, self.frame.vertices))

    @cached_property
    def nodes(self) -> tuple[AtfNode, ...]:
        """The nodes with Fraction points, made when first read."""
        _, _, positions, ends, eigens = self.frame
        return tuple(map(AtfNode, map(self._point, positions), eigens, map(self._point, ends)))

    @cached_property
    def _reports(self) -> tuple[NodeReport, ...]:
        """Each node's report.  Each pair of cuts is tested once, and every
        report reads the nodes whose cut meets another's."""
        _, _, positions, ends, _ = self.frame
        n = len(positions)
        crossed = set()
        for i in range(n):
            for j in range(i + 1, n):
                if _segments_intersect(positions[i], ends[i], positions[j], ends[j]):
                    crossed.update((i, j))
        return tuple(_node_report(self, i, crossed) for i in range(n))

    @cached_property
    def _readouts(self) -> tuple[LensSpace | None, ...]:
        """Each node's lens readout, None for a node that fails its report:
        every reader shares one object and its cached `canonical`."""
        verts = self.frame.vertices
        return tuple(
            lens_from_meridian_slopes(*(Slope(*u) for u in _flanking(verts, e)))
            if r.passed else None
            for r, e in zip(self._reports, self.frame.cut_ends)
        )

    @cached_property
    def normal_form(self) -> tuple:
        """A key of integers that two diagrams share iff an integral affine
        map (GL(2,Z) linear part, rational translation) takes one onto the
        other: the vertices in the same cyclic order or its reverse, the
        nodes as a multiset, each eigenvector up to sign.

        For each start vertex and direction, the one GL(2,Z) map that sends
        the first edge to (l, 0) with l > 0 and the second edge to (s, t)
        with 0 <= s < t takes the ring of vertices, relative to the start.
        The key is the least ring, then the least image of the nodes under
        the labellings that give it.  A ring starts at (l, 0), l the lattice
        length of its first edge, so only the labellings that start along a
        shortest edge are candidates: each such edge is mapped with one
        Bezout solve, for both its directions, and the nodes are mapped only
        where candidate rings tie.  The gcd of the frame's denominator and
        the coordinates relative to a vertex is the same for every vertex
        and every GL(2,Z) map.  Dividing it out leaves the relative points in
        lowest terms, so no rational translation changes the key."""
        den, *groups, eigenvectors = self.frame
        ox, oy = groups[0][0]
        g = gcd(den, *(c for pts in groups for x, y in pts for c in (x - ox, y - oy)))
        verts, positions, ends = (
            tuple(((x - ox) // g, (y - oy) // g) for x, y in pts) for pts in groups
        )
        # a JSON document can hold the eigenvector (0, 0)
        eigens = [_primitive(v) if any(v) else (0, 0) for v in eigenvectors]
        n = len(verts)
        edges = [_sub(verts[(j + 1) % n], verts[j]) for j in range(n)]
        lengths = [gcd(*e) for e in edges]
        shortest = min(lengths)
        labellings = []
        for j, (dx, dy) in enumerate(edges):
            if lengths[j] != shortest:
                continue
            a0, b0 = dx // shortest, dy // shortest
            x0, y0 = _bezout(a0, b0)
            # edge j is the first edge from vertex j forwards, and from
            # vertex j + 1 backwards with the direction and the pair negated
            for start, step in ((j, 1), ((j + 1) % n, -1)):
                o = verts[start]
                a, b, x, y = step * a0, step * b0, step * x0, step * y0
                ex, ey = _sub(verts[(start + 2 * step) % n], verts[(start + step) % n])
                # rows (x, y) and (-b, a) send (a, b) to (1, 0); the sign of
                # the second row puts the second edge at t > 0, and a shear
                # of the first row puts it at 0 <= s < t, whatever the pair
                sign = 1 if a * ey - b * ex > 0 else -1
                k = (x * ex + y * ey) // (sign * (a * ey - b * ex))
                # the map, its rows (m00, m01) and (m10, m11)
                m = m00, m01, m10, m11 = x + k * sign * b, y - k * sign * a, -sign * b, sign * a
                ox, oy = o
                ring = tuple(
                    (m00 * (px - ox) + m01 * (py - oy), m10 * (px - ox) + m11 * (py - oy))
                    for px, py in (verts[(start + step * i) % n] for i in range(1, n))
                )
                labellings.append((ring, o, m))
        least = min(ring for ring, _, _ in labellings)

        def nodes(o: IntVec, m: tuple[int, int, int, int]) -> tuple:
            (ox, oy), (m00, m01, m10, m11) = o, m
            return tuple(sorted(
                (
                    (m00 * (px - ox) + m01 * (py - oy), m10 * (px - ox) + m11 * (py - oy)),
                    max(
                        (m00 * a + m01 * b, m10 * a + m11 * b),
                        (-m00 * a - m01 * b, -m10 * a - m11 * b),
                    ),
                    (m00 * (ex - ox) + m01 * (ey - oy), m10 * (ex - ox) + m11 * (ey - oy)),
                )
                for (px, py), (a, b), (ex, ey) in zip(positions, eigens, ends)
            ))

        return (den // g, least, min(nodes(o, m) for ring, o, m in labellings if ring == least))

    @cached_property
    def lowest_terms(self) -> tuple:
        """The vertices, node positions and cut ends, each coordinate as its
        (numerator, denominator) pair in lowest terms: the numbers that
        `to_json_obj` writes, reduced once."""
        den = self.frame.den
        return tuple(
            tuple(tuple(_lowest(x, den) for x in p) for p in pts) for pts in self.frame[1:4]
        )

    @cached_property
    def json_text(self) -> str:
        """`to_json_obj` as compact JSON, made once: the text that
        `render_svg` embeds and `atf build` and `atf move` print."""
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def to_json_obj(self) -> dict:
        verts, positions, ends = self.lowest_terms

        def point(p: tuple) -> list[str]:
            return ["%d/%d" % c for c in p]

        return {
            "vertices": [point(v) for v in verts],
            "nodes": [
                {"position": point(p), "eigenvector": [str(a), str(b)], "cut_end": point(c)}
                for p, (a, b), c in zip(positions, self.frame.eigenvectors, ends)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AtfDiagram":
        """The diagram of a JSON document, each coordinate read as an integer
        pair (n, d > 0) and scaled to the lcm of the d, from which the
        constructor reduces to the frame in lowest terms: "2/4" reads as
        "1/2" does."""
        verts = [_json_pair(v, _json_ratio) for v in _json_array(_json_member(obj, "vertices"))]
        positions, eigens, ends = [], [], []
        for n in _json_array(_json_member(obj, "nodes", [])):
            positions.append(_json_pair(_json_member(n, "position"), _json_ratio))
            eigens.append(_json_pair(_json_member(n, "eigenvector"), _json_int))
            ends.append(_json_pair(_json_member(n, "cut_end"), _json_ratio))
        den = lcm(*(d for pts in (verts, positions, ends) for p in pts for _, d in p))

        def scaled(pts: list) -> list[IntVec]:
            return [(x * (den // dx), y * (den // dy)) for (x, dx), (y, dy) in pts]

        return cls(den, scaled(verts), scaled(positions), scaled(ends), eigens)


def standard_cp2() -> AtfDiagram:
    """The toric triangle of side 3 (the scale is a free normalization)."""
    return AtfDiagram(1, ((0, 0), (3, 0), (0, 3)), (), (), ())


class NodeReport(
    namedtuple(
        "NodeReport",
        "index eigen_fixed cut_parallel cut_on_boundary position_interior edges_match cut_disjoint",
    )
):
    """One node's consistency tests, a tuple built positionally: its index,
    then the six tests that `passed` needs."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self[1:])


def _parallel(u: IntVec, v: IntVec) -> bool:
    return u != (0, 0) and v != (0, 0) and det(u, v) == 0


def _node_report(d: AtfDiagram, i: int, crossed: set[int]) -> NodeReport:
    """Node i's tests on the frame, given the nodes whose cuts cross.  The
    flanking edges are tested as the frame holds them: the monodromy M is
    linear, so M(k u) is parallel to w iff M u is, and no edge is reduced."""
    _, verts, positions, ends, eigens = d.frame
    a, b = eigens[i]
    # a transvection fixes the vector it runs along, and a JSON document can
    # hold a vector that has no monodromy: read it as not fixed, not matched
    primitive = gcd(a, b) == 1
    p, e = positions[i], ends[i]
    flank = _flanking(verts, e)
    return NodeReport(
        i,
        primitive,
        _parallel(_sub(e, p), (a, b)),
        flank is not None,
        _interior(verts, p),
        # no edge is zero, nor is its image, so det == 0 is parallelism
        primitive
        and flank is not None
        and (
            det(transvect(a, b, 1, *flank[1]), flank[0]) == 0
            or det(transvect(a, b, 1, *flank[0]), flank[1]) == 0
        ),
        i not in crossed,
    )


def check_consistency(d: AtfDiagram) -> list[NodeReport]:
    """Per-node consistency: the eigendirection is fixed by its monodromy,
    the cut runs along it to the boundary, and the boundary directions
    flanking the cut end are matched by the monodromy."""
    return list(d._reports)


def is_consistent(d: AtfDiagram) -> bool:
    return all(r.passed for r in check_consistency(d))


def _chord_end(verts: tuple[IntVec, ...], c: IntVec, e: IntVec) -> tuple[IntVec, int, int, bool]:
    """The other end of the chord from the boundary point c along the inward
    direction e of the counterclockwise polygon verts, in one integral frame:
    the point times q, q > 0, and k with True when it is vertex k, False
    when it is inside the edge from vertex k to k + 1.  Going round from c,
    det(e, v - c) is negative, then positive: the chord ends at the vertex
    v != c where it is zero, or inside the one edge where it turns positive."""
    n = len(verts)
    (ex, ey), (cx, cy) = e, c
    f = [ex * (y - cy) - ey * (x - cx) for x, y in verts]
    for k in range(n):
        fa, fb = f[k], f[(k + 1) % n]
        if fa < 0 < fb:
            (ax, ay), (bx, by) = verts[k], verts[(k + 1) % n]
            return (ax * fb - bx * fa, ay * fb - by * fa), fb - fa, k, False
        if fa == 0 and verts[k] != c:
            return verts[k], 1, k, True
    raise UnsupportedConfigurationError("ray does not exit the polygon")


def nodal_trade(d: AtfDiagram, vertex_index: int) -> AtfDiagram:
    """Exchange a unimodular corner for a node with a cut to that corner."""
    den, verts, positions, ends, eigens = d.frame
    corner = verts[range(len(verts))[vertex_index]]
    if corner in ends:
        raise PreconditionError("vertex already carries a cut")
    u, w = map(_primitive, _flanking(verts, corner))
    if abs(det(u, w)) != 1:
        raise PreconditionError("corner is not unimodular; cannot trade")
    eigen = _primitive((u[0] + w[0], u[1] + w[1]))
    end, q, _, _ = _chord_end(verts, corner, eigen)
    # over 2 q den, the node sits at the midpoint of the chord along the eigenline
    position = (q * corner[0] + end[0], q * corner[1] + end[1])
    verts, positions, ends = (_scaled(pts, 2 * q) for pts in (verts, positions, ends + (corner,)))
    out = AtfDiagram(2 * q * den, verts, positions + [position], ends, eigens + (eigen,))
    if not is_consistent(out):
        raise InternalConsistencyError("nodal trade produced an inconsistent diagram")
    return out


def nodal_slide(d: AtfDiagram, node_index: int, n: int, m: int) -> AtfDiagram:
    """Move a node along its eigenline, keeping the cut end fixed, so that its
    cut becomes (n/m)(p - e), p the node and e its cut end: the node moves to
    e + (p - e) n/m, on the frame over den m."""
    if n <= 0 or m <= 0:
        raise PreconditionError("slide parameter must be positive")
    den, verts, positions, ends, eigens = d.frame
    node_index = range(len(positions))[node_index]
    (px, py), (ex, ey) = positions[node_index], ends[node_index]
    new = (m * ex + n * (px - ex), m * ey + n * (py - ey))
    verts, positions, ends = (_scaled(pts, m) for pts in (verts, positions, ends))  # over den m
    if det(_sub(new, positions[node_index]), eigens[node_index]) != 0:
        raise PreconditionError("target is off the node's eigenline")
    if not _interior(verts, new):
        raise PreconditionError("target is not strictly interior")
    positions[node_index] = new
    out = AtfDiagram(den * m, verts, positions, ends, eigens)
    if not is_consistent(out):
        raise UnsupportedConfigurationError("slide would produce an inconsistent diagram")
    return out


def _cut_vertex(d: AtfDiagram, node_index: int) -> tuple[int, int]:
    """The node index, resolved as list indexing does, and the index of the
    vertex at that node's cut end.  The node must pass the consistency
    check, which the diagram runs once and keeps.  A passing node's cut end
    is a vertex: at an edge-interior end the monodromy matches the edge only
    when the cut runs along it, which puts the node on the boundary."""
    verts, ends = d.frame.vertices, d.frame.cut_ends
    node_index = range(len(ends))[node_index]
    if not d._reports[node_index].passed:
        raise PreconditionError("node fails the consistency check")
    try:
        return node_index, verts.index(ends[node_index])
    except ValueError:
        raise InternalConsistencyError(
            "cut end of a consistent node is not a polygon vertex"
        ) from None


def transfer_cut(d: AtfDiagram, node_index: int) -> AtfDiagram:
    """Cut along the full eigenline through the node, apply the monodromy
    to the side that follows the cut end counterclockwise (`chain1`), and
    re-glue so the cut leaves the node on the opposite side.  The old cut
    end c flattens to an edge-interior point and the opposite exit point
    becomes a vertex.  The node must pass the consistency check.

    This is the one re-gluing that can flatten c.  The cut direction e lies
    strictly inside the corner at c, and the monodromy v -> v + det(e, v) e
    turns the direction from c to its successor towards -e, where it can
    meet the direction to its predecessor; it turns that one towards +e,
    never parallel to the successor's.  Applying the inverse to the other
    side gives the same polygon moved by the inverse.

    The cut end c is a vertex, so the loop the two chains come from is the
    vertex loop with the exit point spliced in, unless that is a vertex
    too."""
    node_index, i_c = _cut_vertex(d, node_index)
    den, verts, positions, ends, eigens = d.frame
    ev = eigens[node_index]
    w, q, i_w, at_vertex = _chord_end(verts, verts[i_c], _sub(positions[node_index], verts[i_c]))
    # the rest runs on the frame scaled by q, where w is integral
    verts, positions, ends = (_scaled(pts, q) for pts in (verts, positions, ends))
    c, p0 = verts[i_c], positions[node_index]
    if w == c:
        raise InternalConsistencyError("eigenline exits where it entered")
    for j, (pos, end) in enumerate(zip(positions, ends)):
        # a node on the chord is an end of its cut, so this finds it too
        if j != node_index and _segments_intersect(c, w, pos, end):
            raise UnsupportedConfigurationError(
                "eigenline meets another node or cut; slide the nodes first"
            )
    # the vertices strictly between c and w, then between w and c; an
    # edge-interior w follows the start of its edge
    n = len(verts)
    chain1 = [(i_c + k) % n for k in range(1, (i_w - i_c) % n + (not at_vertex))]
    chain2 = [(i_w + k) % n for k in range(1, (i_c - i_w - 1) % n + 1)]
    if not chain1 or not chain2:
        raise UnsupportedConfigurationError("eigenline runs along the boundary")
    (a, b), (x0, y0) = ev, p0

    def image(p: IntVec) -> IntVec:  # p0 + M(p - p0): the frame holds the node too
        x, y = transvect(a, b, 1, p[0] - x0, p[1] - y0)
        return x0 + x, y0 + y

    # chain1 starts and chain2 ends at the vertices next to c
    next_c, prev_c = verts[chain1[0]], verts[chain2[-1]]
    if det(_sub(c, prev_c), _sub(image(next_c), c)) != 0:
        raise InternalConsistencyError("the monodromy does not flatten the old cut end")
    upper = det(ev, _sub(next_c, p0)) > 0  # the side of chain1
    eigens = list(eigens)
    ends[node_index] = w
    for j, pos in enumerate(positions):
        side = det(ev, _sub(pos, p0))
        if j != node_index and side != 0 and (side > 0) == upper:
            # M is unimodular, so M v is primitive exactly when v is
            eigens[j] = transvect(a, b, 1, *eigens[j])
            positions[j], ends[j] = image(pos), image(ends[j])
    ring = [image(verts[k]) for k in chain1] + [w] + [verts[k] for k in chain2]
    try:
        out = AtfDiagram(q * den, ring, positions, ends, eigens)
    except InvariantError:
        raise UnsupportedConfigurationError("the re-glued polygon is not convex") from None
    if not is_consistent(out):
        raise UnsupportedConfigurationError("the re-glued diagram is inconsistent")
    return out


def node_boundary_lens(d: AtfDiagram, node_index: int) -> LensSpace:
    """Lens space traced out over a punctured neighborhood of the cut: the
    corner at the cut end glues two solid tori whose meridians are its two
    boundary directions (Vianna, arXiv:1305.7512).  The node must pass the
    consistency check.  The diagram derives its reports and every passing
    node's readout once, on the first read, and keeps them."""
    return d._readouts[_cut_vertex(d, node_index)[0]]


def _reducing_frame(vectors: list[IntVec]) -> tuple[int, int, int, int]:
    """The unimodular map, its rows (m00, m01) and (m10, m11), that
    Lagrange-reduces the second-moment form sum v v^T = [[a, b], [b, c]] of
    the vectors: |2b| <= a <= c.  A reduced form gives the identity.  The
    steps act on (a, b, c) alone and depend only on its ratios, so any
    positive scaling of the vectors gives the same map.  This frame keeps
    the coordinates small where a Bezout frame can give long slivers."""
    a = sum(x * x for x, _ in vectors)
    b = sum(x * y for x, y in vectors)
    c = sum(y * y for _, y in vectors)
    m00, m01, m10, m11 = 1, 0, 0, 1
    while True:
        if abs(2 * b) > a:
            k = (a - 2 * b) // (2 * a)  # nearest integer to -b/a
            m10, m11 = m10 + k * m00, m11 + k * m01  # (x, y) -> (x, y + k x)
            b, c = b + k * a, c + k * (2 * b + k * a)
        elif c < a:
            m00, m01, m10, m11 = m10, m11, -m00, -m01  # (x, y) -> (y, -x)
            a, b, c = c, -b, a
        else:
            return m00, m01, m10, m11


def _squares_pair(p1: int, p2: int) -> tuple[int, int]:
    """(x, y) with p1^2 x + p2^2 y = 1 and 0 <= x < p2^2, for coprime p1
    and p2 > 0, from the Bezout pair of p1 and p2 and none of the squares:
    with p1 u + p2 v = 1, the cube of that identity is p1^2 (p1 u^3 +
    3 u^2 p2 v) + p2^2 (3 p1 u v^2 + p2 v^3) = 1, and x is the first factor
    mod p2^2."""
    u, v = _bezout(p1, p2)
    x = u * u * (p1 * u + 3 * p2 * v) % (p2 * p2)
    return x, (1 - p1 * p1 * x) // (p2 * p2)


def atf_for_markov(t: MarkovTriple) -> AtfDiagram:
    """Almost toric diagram of CP^2 for a Markov triple (p1, p2, p3): the
    moment triangle of the weighted projective plane P(p1^2, p2^2, p3^2),
    a degeneration of CP^2, with its three corners traded for nodes.

    With w = (p1^2, p2^2, p3^2) and w0 x + w1 y = 1, the primitive normals
    n0 = (w1, -w2 x), n1 = (-w0, -w2 y), n2 = (0, 1) satisfy
    w0 n0 + w1 n1 + w2 n2 = 0, and the triangle <n_i, v> >= -1 has area 9/2
    and its centre at the origin.  The corner where n_j and n_k meet has
    order |det(n_j, n_k)| = w_i, its eigenline runs through the centre, and
    Cramer's rule puts it over p1 p2 p3 in closed form.  Each node sits
    three quarters of the way from its corner to the centre, where the three
    eigenlines meet and no cut reaches, so no transfer of a cut is blocked.
    The triangle is drawn in the reduced frame of its corners, starting at
    its least corner, and translated by (1, 1), which makes (1,1,1) the
    standard triangle with its corners traded.  The pair (x, y) comes from
    the Bezout pair of p1 and p2 (`_squares_pair`); any other pair shears
    the normals by a unimodular map, and the reduced frame gives the same
    diagram as, for example, Euclid's pair for (w0, w1).
    """
    p1, p2, p3 = t.entries()
    x, y = _squares_pair(p1, p2)
    # counterclockwise, the corners where n1 meets n0, n0 n2 and n2 n1, over
    # den; p1^2 + p2^2 = p3 (3 p1 p2 - p3), and p1 | 1 + p3^2 y as p3^2 =
    # -p2^2 (mod p1) and p2^2 y = 1 (mod p1^2); p2 | 1 + p3^2 x alike
    den = p1 * p2 * p3
    ints = [
        ((x - y) * den, (3 * p1 * p2 - p3) * p1 * p2),
        (-((1 + p3 * p3 * x) // p2) * p1 * p3, -den),
        ((1 + p3 * p3 * y) // p1 * p2 * p3, -den),
    ]
    m00, m01, m10, m11 = _reducing_frame(ints)
    ints = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in ints]
    first = ints.index(min(ints))
    ints = ints[first:] + ints[:first]
    # over 4 den: the vertex (1, 1) + v / den and its node (1, 1) + v / (4 den)
    vertices = [(4 * (den + x), 4 * (den + y)) for x, y in ints]
    positions = [(4 * den + x, 4 * den + y) for x, y in ints]
    eigens = [_primitive((-x, -y)) for x, y in ints]
    return AtfDiagram(4 * den, vertices, positions, vertices, eigens)


def affinely_equivalent(d1: AtfDiagram, d2: AtfDiagram) -> bool:
    """Equality up to an integral affine map (GL(2,Z) linear part, rational
    translation), allowing any cyclic relabeling or reflection of vertices."""
    return d1.normal_form == d2.normal_form
