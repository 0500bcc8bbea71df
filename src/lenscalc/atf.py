"""Almost toric base diagrams: exact integral-affine convex polygons with
nodes, the three moves (nodal trade, nodal slide, transfer the cut), a
consistency checker, and per-Markov-triple generation with lens readouts.

Points are pairs of Fractions; eigenvectors are primitive integer vectors.
Every move returns a new diagram.  Incidence and sign tests run on integer
pairs: points scaled by the lcm of their denominators (`_integral`).  Each
diagram holds its own points so scaled, the `cached_property`
`AtfDiagram.frame`, built once, when the diagram is made.  The checker and
the moves read it: a chord's far end is where an integer `det` turns sign
(`_chord_end`), and only the affine images of a transfer are Fractions.
Two diagrams are equal up to integral-affine maps iff their integer keys
(`AtfDiagram.normal_form`) are.  A passing node's cut end is a vertex, so
a transfer splices one point into the vertex loop, where the eigenline
exits, and applies the one re-gluing that flattens the old cut end.
Coordinates read from JSON are integers or "n/d" strings.
"""

from __future__ import annotations

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
from .farey import IntMat2, Slope, _bezout, _json_fraction, _json_int, det, transvection
from .lens import LensSpace, lens_from_meridian_slopes
from .markov import MarkovTriple
# unused here, but bench/test_bench.py checks that bench/tracer.py wraps this binding
from .markov import mutation_path  # noqa: F401

Point = tuple[Fraction, Fraction]
Vec = tuple[Fraction, Fraction]
IntVec = tuple[int, int]  # a point or vector of an integral frame


def pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def _sub(p: Point, q: Point) -> Vec:
    return (p[0] - q[0], p[1] - q[1])


def _add(p: Point, v: Vec) -> Point:
    return (p[0] + v[0], p[1] + v[1])


def _integral(points) -> tuple[int, list[IntVec]]:
    """The lcm of the points' denominators, and the points scaled by it as
    integer pairs.  A positive scaling keeps every sign of `det`, every
    incidence and equality, and every primitive direction between the
    points."""
    den = lcm(*(c.denominator for p in points for c in p))
    return den, [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in points
    ]


def _primitive(v: IntVec) -> IntVec:
    """The primitive integer vector spanning the same ray as v."""
    g = gcd(*v)
    if g == 0:
        raise PreconditionError("zero vector has no direction")
    return (v[0] // g, v[1] // g)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment [a, b]."""
    if det(_sub(p, a), _sub(b, a)) != 0:
        return False
    lo = min(a[0], b[0]), min(a[1], b[1])
    hi = max(a[0], b[0]), max(a[1], b[1])
    return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Closed segments [a,b] and [c,d] share at least one point."""
    d1 = det(_sub(d, c), _sub(a, c))
    d2 = det(_sub(d, c), _sub(b, c))
    d3 = det(_sub(b, a), _sub(c, a))
    d4 = det(_sub(b, a), _sub(d, a))
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
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
    """p lies strictly inside the counterclockwise polygon verts."""
    edges = zip(verts, verts[1:] + verts[:1])
    return all(det(_sub(b, a), _sub(p, a)) > 0 for a, b in edges)


def _flanking(verts: list[IntVec], p: IntVec) -> tuple[IntVec, IntVec] | None:
    """Primitive boundary directions leaving p, (towards-previous,
    towards-next) when p is a vertex, the two along-edge directions when p
    is edge-interior, None when p is off the boundary."""
    n = len(verts)
    if p in verts:
        i = verts.index(p)
        return _primitive(_sub(verts[i - 1], p)), _primitive(_sub(verts[(i + 1) % n], p))
    for k in range(n):
        a, b = verts[k], verts[(k + 1) % n]
        if _on_segment(p, a, b):
            return _primitive(_sub(a, p)), _primitive(_sub(b, p))
    return None


def monodromy(a: int, b: int) -> IntMat2:
    """The focus-focus monodromy fixing the primitive vector (a, b): the
    transvection along it with k = 1."""
    if gcd(a, b) != 1:
        raise PreconditionError(f"({a},{b}) is not primitive")
    return transvection(a, b, 1)


@dataclass(frozen=True)
class AtfNode:
    """A focus-focus node: position, eigendirection, and branch cut running
    from the node to a boundary point."""

    position: Point
    eigenvector: tuple[int, int]
    cut_end: Point


# A diagram's points scaled by `den`, the lcm of their denominators: tuples
# of integer pairs for the vertices, and for the node positions and cut ends
# in node order.  (`typing.NamedTuple` would add an import of `typing`.)
IntegralFrame = namedtuple("IntegralFrame", "den vertices positions cut_ends")


@dataclass(frozen=True)
class AtfDiagram:
    """Strictly convex polygon (counterclockwise rational vertices) with
    nodes.  Its integral frame and its node reports, computed on the first
    check, are cached properties, not fields."""

    vertices: tuple[Point, ...]
    nodes: tuple[AtfNode, ...] = ()

    def __post_init__(self) -> None:
        verts = tuple((Fraction(x), Fraction(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(verts)
        if n < 3:
            raise InvariantError("polygon needs at least three vertices")
        ints = self.frame.vertices  # so the frame is built once, here
        for i in range(n):
            u = _sub(ints[(i + 1) % n], ints[i])
            w = _sub(ints[(i + 2) % n], ints[(i + 1) % n])
            if det(u, w) <= 0:
                raise InvariantError("vertices must be strictly convex counterclockwise")

    @cached_property
    def frame(self) -> IntegralFrame:
        n = len(self.vertices)
        marks = tuple(p for nd in self.nodes for p in (nd.position, nd.cut_end))
        den, ints = _integral(self.vertices + marks)
        return IntegralFrame(den, tuple(ints[:n]), tuple(ints[n::2]), tuple(ints[n + 1 :: 2]))

    @cached_property
    def _reports(self) -> tuple[NodeReport, ...]:
        return tuple(_node_report(self, i) for i in range(len(self.nodes)))

    def normal_form(self) -> tuple:
        """A key of integers that two diagrams share iff an integral affine
        map (GL(2,Z) linear part, rational translation) takes one onto the
        other: the vertices in the same cyclic order or its reverse, the
        nodes as a multiset, each eigenvector up to sign.

        For each start vertex and direction, the one GL(2,Z) map that sends
        the first edge to (l, 0) with l > 0 and the second edge to (s, t)
        with 0 <= s < t takes the points, relative to the start; the key is
        the least of these 2n images.  The gcd of the frame's denominator
        and the coordinates relative to a vertex is the same for every
        vertex and every GL(2,Z) map.  Dividing it out leaves the relative
        points in lowest terms, so no rational translation changes the
        key."""
        den, *groups = self.frame
        ox, oy = groups[0][0]
        g = gcd(den, *(c for pts in groups for x, y in pts for c in (x - ox, y - oy)))
        verts, positions, ends = (
            tuple(((x - ox) // g, (y - oy) // g) for x, y in pts) for pts in groups
        )
        eigens = []
        for a, b in (nd.eigenvector for nd in self.nodes):
            k = gcd(a, b) or 1  # a JSON document can hold (0, 0)
            eigens.append((a // k, b // k))
        n = len(verts)
        keys = []
        for j in range(n):
            o = verts[j]
            for step in (1, -1):
                a, b = _primitive(_sub(verts[(j + step) % n], o))
                ex, ey = _sub(verts[(j + 2 * step) % n], verts[(j + step) % n])
                # rows (x, y) and (-b, a) send (a, b) to (1, 0); the sign of
                # the second row puts the second edge at t > 0, and a shear
                # of the first row puts it at 0 <= s < t
                x, y = _bezout(a, b)
                sign = 1 if a * ey - b * ex > 0 else -1
                k = (x * ex + y * ey) // (sign * (a * ey - b * ex))
                m = IntMat2(x + k * sign * b, y - k * sign * a, -sign * b, sign * a)

                def image(p: IntVec) -> IntVec:
                    return m.apply_vec(p[0] - o[0], p[1] - o[1])

                nodes = sorted(
                    (image(p), max(m.apply_vec(u, v), m.apply_vec(-u, -v)), image(e))
                    for p, (u, v), e in zip(positions, eigens, ends)
                )
                ring = tuple(image(verts[(j + step * i) % n]) for i in range(1, n))
                keys.append((ring, tuple(nodes)))
        return (den // g, *min(keys))

    def to_json_obj(self) -> dict:
        def frac(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        def point(p: Point) -> list[str]:
            return [frac(p[0]), frac(p[1])]

        return {
            "vertices": [point(v) for v in self.vertices],
            "nodes": [
                {
                    "position": point(n.position),
                    "eigenvector": [str(n.eigenvector[0]), str(n.eigenvector[1])],
                    "cut_end": point(n.cut_end),
                }
                for n in self.nodes
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AtfDiagram":
        try:
            verts = tuple((_json_fraction(x), _json_fraction(y)) for x, y in obj["vertices"])
            nodes = tuple(
                AtfNode(
                    (_json_fraction(n["position"][0]), _json_fraction(n["position"][1])),
                    (_json_int(n["eigenvector"][0]), _json_int(n["eigenvector"][1])),
                    (_json_fraction(n["cut_end"][0]), _json_fraction(n["cut_end"][1])),
                )
                for n in obj.get("nodes", ())
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvariantError(f"malformed diagram: {exc}") from exc
        return cls(verts, nodes)


def standard_cp2() -> AtfDiagram:
    """The toric triangle of side 3 (the scale is a free normalization)."""
    return AtfDiagram((pt(0, 0), pt(3, 0), pt(0, 3)))


@dataclass(frozen=True)
class NodeReport:
    index: int
    eigen_fixed: bool
    cut_parallel: bool
    cut_on_boundary: bool
    position_interior: bool
    edges_match: bool
    cut_disjoint: bool

    @property
    def passed(self) -> bool:
        return (
            self.eigen_fixed
            and self.cut_parallel
            and self.cut_on_boundary
            and self.position_interior
            and self.edges_match
            and self.cut_disjoint
        )


def _parallel(u: Vec, v: Vec) -> bool:
    return u != (0, 0) and v != (0, 0) and det(u, v) == 0


def _node_report(d: AtfDiagram, i: int) -> NodeReport:
    _, verts, positions, ends = d.frame
    a, b = d.nodes[i].eigenvector
    mat = monodromy(a, b)
    p, e = positions[i], ends[i]
    cut_vec = _sub(e, p)
    flank = _flanking(verts, e)
    return NodeReport(
        i,
        eigen_fixed=mat.apply_vec(a, b) == (a, b),
        cut_parallel=cut_vec != (0, 0) and det(cut_vec, (a, b)) == 0,
        cut_on_boundary=flank is not None,
        position_interior=_interior(verts, p),
        edges_match=flank is not None
        and (
            _parallel(mat.apply_vec(*flank[1]), flank[0])
            or _parallel(mat.apply_vec(*flank[0]), flank[1])
        ),
        cut_disjoint=not any(
            _segments_intersect(p, e, positions[j], ends[j])
            for j in range(len(positions))
            if j != i
        ),
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
    f = [det(e, _sub(v, c)) for v in verts]
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
    n = len(d.vertices)
    v = d.vertices[vertex_index % n]
    if any(node.cut_end == v for node in d.nodes):
        raise PreconditionError("vertex already carries a cut")
    den, verts = d.frame.den, d.frame.vertices
    prev_v, corner, next_v = (verts[(vertex_index + k) % n] for k in (-1, 0, 1))
    u = _primitive(_sub(prev_v, corner))
    w = _primitive(_sub(next_v, corner))
    if abs(det(u, w)) != 1:
        raise PreconditionError("corner is not unimodular; cannot trade")
    eigen = _primitive((u[0] + w[0], u[1] + w[1]))
    end, q, _, _ = _chord_end(verts, corner, eigen)
    # the node sits at the midpoint of the chord along the eigenline
    position = tuple(Fraction(q * a + b, 2 * q * den) for a, b in zip(corner, end))
    node = AtfNode(position, eigen, v)
    out = AtfDiagram(d.vertices, d.nodes + (node,))
    if not is_consistent(out):
        raise InternalConsistencyError("nodal trade produced an inconsistent diagram")
    return out


def nodal_slide(d: AtfDiagram, node_index: int, new_position: Point) -> AtfDiagram:
    """Move a node along its eigenline, keeping the cut end fixed."""
    node = d.nodes[node_index]
    new_position = (Fraction(new_position[0]), Fraction(new_position[1]))
    _, (*verts, old, new) = _integral(d.vertices + (node.position, new_position))
    if det(_sub(new, old), node.eigenvector) != 0:
        raise PreconditionError("target is off the node's eigenline")
    if not _interior(verts, new):
        raise PreconditionError("target is not strictly interior")
    moved = AtfNode(new_position, node.eigenvector, node.cut_end)
    nodes = d.nodes[:node_index] + (moved,) + d.nodes[node_index + 1 :]
    out = AtfDiagram(d.vertices, nodes)
    if not is_consistent(out):
        raise UnsupportedConfigurationError("slide would produce an inconsistent diagram")
    return out


def _cut_vertex(d: AtfDiagram, node_index: int) -> tuple[int, int]:
    """The node index, resolved as list indexing does, and the index of the
    vertex at that node's cut end.  The node must pass the consistency
    check, which the diagram runs once and keeps.  A passing node's cut end
    is a vertex: at an edge-interior end the monodromy matches the edge only
    when the cut runs along it, which puts the node on the boundary."""
    node_index = range(len(d.nodes))[node_index]
    if not d._reports[node_index].passed:
        raise PreconditionError("node fails the consistency check")
    verts, end = d.frame.vertices, d.frame.cut_ends[node_index]
    if end not in verts:
        raise InternalConsistencyError("cut end of a consistent node is not a polygon vertex")
    return node_index, verts.index(end)


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
    node = d.nodes[node_index]
    x0 = node.position
    ev = node.eigenvector
    den, verts, positions, ends = d.frame
    c, p0 = verts[i_c], positions[node_index]
    w, q, i_w, at_vertex = _chord_end(verts, c, _sub(p0, c))
    w_end = (Fraction(w[0], q * den), Fraction(w[1], q * den))
    # the blocking test runs on the frame scaled by q, where w is integral
    others = [p for j, pair in enumerate(zip(positions, ends)) if j != node_index for p in pair]
    cq, *rest = [(q * x, q * y) for x, y in [c] + others]
    if w == cq:
        raise InternalConsistencyError("eigenline exits where it entered")
    for pos, end in zip(rest[::2], rest[1::2]):
        if _on_segment(pos, cq, w) or _segments_intersect(cq, w, pos, end):
            raise UnsupportedConfigurationError(
                "eigenline meets another node or cut; slide the nodes first"
            )
    prev_c, next_c = verts[i_c - 1], verts[(i_c + 1) % len(verts)]
    ring = list(d.vertices)
    if not at_vertex:  # edge-interior: splice it in after the start of its edge
        ring.insert(i_w + 1, w_end)
        i_c += i_c > i_w
        i_w += 1
    m = len(ring)
    chain1 = [ring[(i_c + k) % m] for k in range(1, (i_w - i_c) % m)]
    chain2 = [ring[(i_w + k) % m] for k in range(1, (i_c - i_w) % m)]
    if not chain1 or not chain2:
        raise UnsupportedConfigurationError("eigenline runs along the boundary")
    mat = monodromy(*ev)
    # chain1 starts and chain2 ends at the vertices next to c, so the flatten
    # check and the side tests run on the frame
    moved_next = _sub(mat.apply_vec(*_sub(next_c, p0)), _sub(c, p0))
    if det(_sub(c, prev_c), moved_next) != 0:
        raise InternalConsistencyError("the monodromy does not flatten the old cut end")
    upper = det(ev, _sub(next_c, p0)) > 0  # the side of chain1

    def transform(p: Point) -> Point:
        return _add(x0, mat.apply_vec(*_sub(p, x0)))

    new_chain1 = [transform(p) for p in chain1]
    new_nodes = []
    for j, other in enumerate(d.nodes):
        if j == node_index:
            other = AtfNode(x0, ev, w_end)
        else:
            side = det(ev, _sub(positions[j], p0))
            if side != 0 and (side > 0) == upper:
                eig = _primitive(mat.apply_vec(*other.eigenvector))
                other = AtfNode(transform(other.position), eig, transform(other.cut_end))
        new_nodes.append(other)
    try:
        out = AtfDiagram(tuple(new_chain1 + [w_end] + chain2), tuple(new_nodes))
    except InvariantError:
        raise UnsupportedConfigurationError("the re-glued polygon is not convex") from None
    if not is_consistent(out):
        raise UnsupportedConfigurationError("the re-glued diagram is inconsistent")
    return out


def node_boundary_lens(d: AtfDiagram, node_index: int) -> LensSpace:
    """Lens space traced out over a punctured neighborhood of the cut: the
    corner at the cut end glues two solid tori whose meridians are its two
    boundary directions (Vianna, arXiv:1305.7512).  The node must pass the
    consistency check, which the diagram runs once and keeps."""
    _, i = _cut_vertex(d, node_index)
    verts = d.frame.vertices
    u1, u2 = _flanking(verts, verts[i])
    return lens_from_meridian_slopes(Slope(*u1), Slope(*u2))


def _reducing_frame(vectors: list[IntVec]) -> IntMat2:
    """The unimodular map that Lagrange-reduces the second-moment form
    sum v v^T = [[a, b], [b, c]] of the vectors: |2b| <= a <= c.  A reduced
    form gives the identity.  The steps act on (a, b, c) alone and depend
    only on its ratios, so any positive scaling of the vectors gives the
    same map.  This frame keeps the coordinates small where a Bezout frame
    can give long slivers."""
    a = sum(x * x for x, _ in vectors)
    b = sum(x * y for x, y in vectors)
    c = sum(y * y for _, y in vectors)
    m = IntMat2.identity()
    while True:
        if abs(2 * b) > a:
            k = (a - 2 * b) // (2 * a)  # nearest integer to -b/a
            m = IntMat2(1, 0, k, 1) @ m  # (x, y) -> (x, y + k x)
            b, c = b + k * a, c + k * (2 * b + k * a)
        elif c < a:
            m = IntMat2(0, 1, -1, 0) @ m  # (x, y) -> (y, -x)
            a, b, c = c, -b, a
        else:
            return m


def atf_for_markov(t: MarkovTriple) -> AtfDiagram:
    """Almost toric diagram of CP^2 for a Markov triple (p1, p2, p3): the
    moment triangle of the weighted projective plane P(p1^2, p2^2, p3^2),
    a degeneration of CP^2, with its three corners traded for nodes.

    With w = (p1^2, p2^2, p3^2) and w0 x + w1 y = 1, the primitive normals
    n0 = (w1, -w2 x), n1 = (-w0, -w2 y), n2 = (0, 1) satisfy
    w0 n0 + w1 n1 + w2 n2 = 0, and the triangle <n_i, v> >= -1 has area 9/2
    and its centre at the origin.  The corner where n_j and n_k meet has
    order |det(n_j, n_k)| = w_i, and its eigenline runs through the centre.
    Each node sits three quarters of the way from its corner to the centre,
    where the three eigenlines meet and no cut reaches, so no transfer of a
    cut is blocked.  The triangle is drawn in the reduced frame of its
    corners, starting at its least corner, and translated by (1, 1), which
    makes (1,1,1) the standard triangle with its corners traded.
    """
    w = [p * p for p in t.entries()]
    x, y = _bezout(w[0], w[1])
    # counterclockwise: n0, n2, n1
    normals = ((w[1], -w[2] * x), (0, 1), (-w[0], -w[2] * y))
    corners = []
    for i in range(3):
        # the corner where consecutive edges meet, by Cramer's rule
        (a, b), (c, d) = normals[i - 1], normals[i]
        delta = det(normals[i - 1], normals[i])
        corners.append((Fraction(b - d, delta), Fraction(c - a, delta)))
    den, ints = _integral(corners)
    m = _reducing_frame(ints)
    ints = [m.apply_vec(*v) for v in ints]
    first = ints.index(min(ints))
    ints = ints[first:] + ints[:first]
    # the vertex (1, 1) + v / den and its node (1, 1) + v / (4 den)
    vertices = tuple((Fraction(den + x, den), Fraction(den + y, den)) for x, y in ints)
    nodes = tuple(
        AtfNode(
            (Fraction(4 * den + x, 4 * den), Fraction(4 * den + y, 4 * den)),
            _primitive((-x, -y)),
            vertex,
        )
        for vertex, (x, y) in zip(vertices, ints)
    )
    return AtfDiagram(vertices, nodes)


def affinely_equivalent(d1: AtfDiagram, d2: AtfDiagram) -> bool:
    """Equality up to an integral affine map (GL(2,Z) linear part, rational
    translation), allowing any cyclic relabeling or reflection of vertices."""
    return d1.normal_form() == d2.normal_form()
