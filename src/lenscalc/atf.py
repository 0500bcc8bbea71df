"""Almost toric base diagrams: exact integral-affine convex polygons with
nodes, the three moves (nodal trade, nodal slide, transfer the cut), a
consistency checker, and per-Markov-triple generation with lens readouts.

Points are pairs of Fractions; eigenvectors are primitive integer vectors.
Every move returns a new diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .errors import (
    InternalConsistencyError,
    InvariantError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from .farey import IntMat2, _bezout
from .lens import S1XS2, S3, LensSpace
from .markov import MarkovTriple
# unused here, but bench/test_bench.py checks that bench/tracer.py wraps this binding
from .markov import mutation_path  # noqa: F401

Point = tuple[Fraction, Fraction]
Vec = tuple[Fraction, Fraction]


def pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def _sub(p: Point, q: Point) -> Vec:
    return (p[0] - q[0], p[1] - q[1])


def _add(p: Point, v: Vec) -> Point:
    return (p[0] + v[0], p[1] + v[1])


def _cross(u: Vec, v: Vec):
    return u[0] * v[1] - u[1] * v[0]


def _scale(v: Vec, s) -> Vec:
    return (v[0] * s, v[1] * s)


def _primitive(v: Vec) -> tuple[int, int]:
    """The primitive integer vector spanning the same ray as v."""
    if v == (0, 0):
        raise PreconditionError("zero vector has no direction")
    x, y = Fraction(v[0]), Fraction(v[1])
    m = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    a, b = int(x * m), int(y * m)
    g = gcd(a, b)
    return (a // g, b // g)


def _apply_mat(m: IntMat2, v: Vec) -> Vec:
    return (m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment [a, b]."""
    if _cross(_sub(p, a), _sub(b, a)) != 0:
        return False
    lo = min(a[0], b[0]), min(a[1], b[1])
    hi = max(a[0], b[0]), max(a[1], b[1])
    return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Closed segments [a,b] and [c,d] share at least one point."""
    d1 = _cross(_sub(d, c), _sub(a, c))
    d2 = _cross(_sub(d, c), _sub(b, c))
    d3 = _cross(_sub(b, a), _sub(c, a))
    d4 = _cross(_sub(b, a), _sub(d, a))
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


def monodromy(a: int, b: int) -> IntMat2:
    """The focus-focus monodromy fixing the primitive vector (a, b)."""
    if gcd(a, b) != 1:
        raise PreconditionError(f"({a},{b}) is not primitive")
    return IntMat2(1 - a * b, a * a, -b * b, 1 + a * b)


@dataclass(frozen=True)
class AtfNode:
    """A focus-focus node: position, eigendirection, and branch cut running
    from the node to a boundary point."""

    position: Point
    eigenvector: tuple[int, int]
    cut_end: Point


@dataclass(frozen=True)
class AtfDiagram:
    """Strictly convex polygon (counterclockwise rational vertices) with
    nodes."""

    vertices: tuple[Point, ...]
    nodes: tuple[AtfNode, ...] = ()

    def __post_init__(self) -> None:
        verts = tuple((Fraction(x), Fraction(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(verts)
        if n < 3:
            raise InvariantError("polygon needs at least three vertices")
        for i in range(n):
            u = _sub(verts[(i + 1) % n], verts[i])
            w = _sub(verts[(i + 2) % n], verts[(i + 1) % n])
            if _cross(u, w) <= 0:
                raise InvariantError("vertices must be strictly convex counterclockwise")

    def contains_interior(self, p: Point) -> bool:
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            if _cross(_sub(b, a), _sub(p, a)) <= 0:
                return False
        return True

    def on_boundary(self, p: Point) -> bool:
        n = len(self.vertices)
        return any(
            _on_segment(p, self.vertices[i], self.vertices[(i + 1) % n])
            for i in range(n)
        )

    def vertex_index(self, p: Point) -> int | None:
        for i, v in enumerate(self.vertices):
            if v == p:
                return i
        return None

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
            verts = tuple(
                (Fraction(x), Fraction(y)) for x, y in obj["vertices"]
            )
            nodes = tuple(
                AtfNode(
                    (Fraction(n["position"][0]), Fraction(n["position"][1])),
                    (int(n["eigenvector"][0]), int(n["eigenvector"][1])),
                    (Fraction(n["cut_end"][0]), Fraction(n["cut_end"][1])),
                )
                for n in obj.get("nodes", ())
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvariantError(f"malformed diagram: {exc}") from exc
        return cls(verts, nodes)


def standard_cp2() -> AtfDiagram:
    """The toric triangle of side 3 (the scale is a free normalization)."""
    return AtfDiagram((pt(0, 0), pt(3, 0), pt(0, 3)))


def _flanking_directions(d: AtfDiagram, p: Point) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive boundary directions leaving p, (towards-previous,
    towards-next) when p is a vertex, the two along-edge directions when p
    is edge-interior."""
    n = len(d.vertices)
    i = d.vertex_index(p)
    if i is not None:
        prev_v = d.vertices[(i - 1) % n]
        next_v = d.vertices[(i + 1) % n]
        return _primitive(_sub(prev_v, p)), _primitive(_sub(next_v, p))
    for k in range(n):
        a, b = d.vertices[k], d.vertices[(k + 1) % n]
        if _on_segment(p, a, b) and p not in (a, b):
            return _primitive(_sub(a, p)), _primitive(_sub(b, p))
    raise PreconditionError("point is not on the polygon boundary")


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
    return u != (0, 0) and v != (0, 0) and _cross(u, v) == 0


def check_consistency(d: AtfDiagram) -> list[NodeReport]:
    """Per-node consistency: the eigendirection is fixed by its monodromy,
    the cut runs along it to the boundary, and the boundary directions
    flanking the cut end are matched by the monodromy."""
    reports = []
    for i, node in enumerate(d.nodes):
        a, b = node.eigenvector
        mat = monodromy(a, b)
        eigen_fixed = mat.apply_vec(a, b) == (a, b)
        cut_vec = _sub(node.cut_end, node.position)
        cut_parallel = cut_vec != (0, 0) and _cross(cut_vec, (Fraction(a), Fraction(b))) == 0
        cut_on_boundary = d.on_boundary(node.cut_end)
        position_interior = d.contains_interior(node.position)
        edges_match = False
        if cut_on_boundary:
            e_prev, e_next = _flanking_directions(d, node.cut_end)
            img_next = mat.apply_vec(*e_next)
            img_prev = mat.apply_vec(*e_prev)
            edges_match = _parallel(img_next, e_prev) or _parallel(img_prev, e_next)
        cut_disjoint = True
        for j, other in enumerate(d.nodes):
            if j == i:
                continue
            if _segments_intersect(
                node.position, node.cut_end, other.position, other.cut_end
            ):
                cut_disjoint = False
        reports.append(
            NodeReport(
                i,
                eigen_fixed,
                cut_parallel,
                cut_on_boundary,
                position_interior,
                edges_match,
                cut_disjoint,
            )
        )
    return reports


def is_consistent(d: AtfDiagram) -> bool:
    return all(r.passed for r in check_consistency(d))


def _ray_exit(d: AtfDiagram, origin: Point, direction: Vec) -> tuple[Fraction, Point]:
    """Smallest t > 0 with origin + t*direction on the boundary."""
    n = len(d.vertices)
    best: tuple[Fraction, Point] | None = None
    for i in range(n):
        a, b = d.vertices[i], d.vertices[(i + 1) % n]
        edge = _sub(b, a)
        denom = _cross(direction, edge)
        if denom == 0:
            continue
        t = _cross(_sub(a, origin), edge) / denom
        if t <= 0:
            continue
        hit = _add(origin, _scale(direction, t))
        if _on_segment(hit, a, b) and (best is None or t < best[0]):
            best = (t, hit)
    if best is None:
        raise UnsupportedConfigurationError("ray does not exit the polygon")
    return best


def nodal_trade(d: AtfDiagram, vertex_index: int) -> AtfDiagram:
    """Exchange a unimodular corner for a node with a cut to that corner."""
    n = len(d.vertices)
    v = d.vertices[vertex_index % n]
    if any(node.cut_end == v for node in d.nodes):
        raise PreconditionError("vertex already carries a cut")
    u = _primitive(_sub(d.vertices[(vertex_index - 1) % n], v))
    w = _primitive(_sub(d.vertices[(vertex_index + 1) % n], v))
    if abs(_cross(u, w)) != 1:
        raise PreconditionError("corner is not unimodular; cannot trade")
    ex, ey = u[0] + w[0], u[1] + w[1]
    g = gcd(ex, ey)
    eigen = (ex // g, ey // g)
    tstar, _ = _ray_exit(d, v, (Fraction(eigen[0]), Fraction(eigen[1])))
    position = _add(v, _scale((Fraction(eigen[0]), Fraction(eigen[1])), tstar / 2))
    node = AtfNode(position, eigen, v)
    out = AtfDiagram(d.vertices, d.nodes + (node,))
    if not is_consistent(out):
        raise InternalConsistencyError("nodal trade produced an inconsistent diagram")
    return out


def nodal_slide(d: AtfDiagram, node_index: int, new_position: Point) -> AtfDiagram:
    """Move a node along its eigenline, keeping the cut end fixed."""
    node = d.nodes[node_index]
    new_position = (Fraction(new_position[0]), Fraction(new_position[1]))
    ev = (Fraction(node.eigenvector[0]), Fraction(node.eigenvector[1]))
    if _cross(_sub(new_position, node.position), ev) != 0:
        raise PreconditionError("target is off the node's eigenline")
    if not d.contains_interior(new_position):
        raise PreconditionError("target is not strictly interior")
    moved = AtfNode(new_position, node.eigenvector, node.cut_end)
    nodes = d.nodes[:node_index] + (moved,) + d.nodes[node_index + 1 :]
    out = AtfDiagram(d.vertices, nodes)
    if not is_consistent(out):
        raise UnsupportedConfigurationError("slide would produce an inconsistent diagram")
    return out


def _boundary_ring(d: AtfDiagram, extra: list[Point]) -> list[Point]:
    """Vertex loop with the given boundary points spliced in where they are
    edge-interior."""
    n = len(d.vertices)
    ring: list[Point] = []
    for i in range(n):
        a, b = d.vertices[i], d.vertices[(i + 1) % n]
        ring.append(a)
        inserts = [
            p for p in extra if _on_segment(p, a, b) and p != a and p != b
        ]
        inserts.sort(key=lambda p: abs(p[0] - a[0]) + abs(p[1] - a[1]))
        ring.extend(inserts)
    return ring


def transfer_cut(d: AtfDiagram, node_index: int) -> AtfDiagram:
    """Cut along the full eigenline through the node, apply the monodromy
    (or its inverse) to one side, and re-glue so the cut leaves the node on
    the opposite side.  The old cut end flattens to an edge-interior point
    and the opposite exit point becomes a vertex."""
    node = d.nodes[node_index]
    x0 = node.position
    ev = (Fraction(node.eigenvector[0]), Fraction(node.eigenvector[1]))
    c_end = node.cut_end
    away = _sub(x0, c_end)  # direction from cut end through the node
    _, w_end = _ray_exit(d, x0, away)
    if w_end == c_end:
        raise InternalConsistencyError("eigenline exits where it entered")
    for j, other in enumerate(d.nodes):
        if j == node_index:
            continue
        if _on_segment(other.position, c_end, w_end) or _segments_intersect(
            c_end, w_end, other.position, other.cut_end
        ):
            raise UnsupportedConfigurationError(
                "eigenline meets another node or cut; slide the nodes first"
            )
    ring = _boundary_ring(d, [c_end, w_end])
    i_c = ring.index(c_end)
    i_w = ring.index(w_end)
    m = len(ring)
    chain1 = [ring[(i_c + k) % m] for k in range(1, (i_w - i_c) % m)]
    chain2 = [ring[(i_w + k) % m] for k in range(1, (i_c - i_w) % m)]
    if not chain1 or not chain2:
        raise UnsupportedConfigurationError("eigenline runs along the boundary")
    sign1 = 1 if _cross(ev, _sub(chain1[0], x0)) > 0 else -1
    mat_plus = monodromy(*node.eigenvector)
    candidates = []
    for mat in (mat_plus, mat_plus.inverse()):
        for side in (1, 2):
            candidates.append((mat, side))
    for mat, side in candidates:
        result = _try_transfer(d, node_index, mat, side, sign1, x0, c_end, w_end, chain1, chain2)
        if result is not None:
            return result
    raise UnsupportedConfigurationError("no monodromy re-gluing flattens the old cut end")


def _try_transfer(d, node_index, mat, side, sign1, x0, c_end, w_end, chain1, chain2):
    node = d.nodes[node_index]

    def transform(p: Point) -> Point:
        return _add(x0, _apply_mat(mat, _sub(p, x0)))

    new_chain1 = [transform(p) for p in chain1] if side == 1 else list(chain1)
    new_chain2 = [transform(p) for p in chain2] if side == 2 else list(chain2)
    loop = [c_end] + new_chain1 + [w_end] + new_chain2
    prev_p = loop[-1]
    next_p = loop[1]
    if _cross(_sub(c_end, prev_p), _sub(next_p, c_end)) != 0:
        return None  # old cut end does not flatten under this re-gluing
    loop = loop[1:]
    transformed_sign = sign1 if side == 1 else -sign1

    def on_transformed_side(p: Point) -> bool:
        ev = (Fraction(node.eigenvector[0]), Fraction(node.eigenvector[1]))
        c = _cross(ev, _sub(p, x0))
        return c != 0 and (1 if c > 0 else -1) == transformed_sign

    new_nodes = []
    for j, other in enumerate(d.nodes):
        if j == node_index:
            new_nodes.append(AtfNode(x0, node.eigenvector, w_end))
        elif on_transformed_side(other.position):
            eig = _apply_mat(mat, (Fraction(other.eigenvector[0]), Fraction(other.eigenvector[1])))
            new_nodes.append(
                AtfNode(transform(other.position), _primitive(eig), transform(other.cut_end))
            )
        else:
            new_nodes.append(other)
    try:
        out = AtfDiagram(tuple(loop), tuple(new_nodes))
    except InvariantError:
        return None
    if not is_consistent(out):
        return None
    return out


def node_boundary_lens(d: AtfDiagram, node_index: int) -> LensSpace:
    """Lens space traced out over a punctured neighborhood of the cut: read
    the corner at the cut end in a basis where the first boundary direction
    is (1, 0)."""
    report = check_consistency(d)[node_index]
    if not report.passed:
        raise PreconditionError("node fails the consistency check")
    p = d.nodes[node_index].cut_end
    if d.vertex_index(p) is None:
        raise UnsupportedConfigurationError("cut end is not a polygon vertex")
    u1, u2 = _flanking_directions(d, p)
    a, b = _bezout(u1[0], u1[1])
    x = a * u2[0] + b * u2[1]
    y = u1[0] * u2[1] - u1[1] * u2[0]
    order = abs(y)
    if order == 0:
        return S1XS2
    if order == 1:
        return S3
    return LensSpace(order, x % order)


def _reduced(corners: list[Point]) -> list[Point]:
    """The corners in the unimodular frame that Lagrange-reduces their
    second-moment form sum v v^T = [[a, b], [b, c]]: |2b| <= a <= c.  A
    reduced form is left as it is.  This frame keeps the coordinates small
    where a Bezout frame can give long slivers."""
    while True:
        a = sum(x * x for x, _ in corners)
        b = sum(x * y for x, y in corners)
        c = sum(y * y for _, y in corners)
        if abs(2 * b) > a:
            k = floor(Fraction(1, 2) - b / a)  # nearest integer to -b/a
            corners = [(x, y + k * x) for x, y in corners]
        elif c < a:
            corners = [(y, -x) for x, y in corners]
        else:
            return corners


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
        det = _cross(normals[i - 1], normals[i])
        corners.append((Fraction(b - d, det), Fraction(c - a, det)))
    corners = _reduced(corners)
    first = corners.index(min(corners))
    corners = corners[first:] + corners[:first]
    centre = pt(1, 1)
    nodes = tuple(
        AtfNode(
            _add(centre, _scale(v, Fraction(1, 4))),
            _primitive(_scale(v, -1)),
            _add(centre, v),
        )
        for v in corners
    )
    return AtfDiagram(tuple(_add(centre, v) for v in corners), nodes)


def affinely_equivalent(d1: AtfDiagram, d2: AtfDiagram) -> bool:
    """Equality up to an integral affine map (GL(2,Z) linear part, rational
    translation), allowing any cyclic relabeling or reflection of vertices."""
    n = len(d1.vertices)
    if n != len(d2.vertices) or len(d1.nodes) != len(d2.nodes):
        return False
    v1 = list(d1.vertices)
    for j in range(n):
        for step in (1, -1):
            v2 = [d2.vertices[(j + step * k) % n] for k in range(n)]
            u1, w1 = _sub(v1[1], v1[0]), _sub(v1[-1], v1[0])
            u2, w2 = _sub(v2[1], v2[0]), _sub(v2[-1], v2[0])
            det1 = _cross(u1, w1)
            if det1 == 0:
                continue
            # solve M*u1 = u2, M*w1 = w2
            ma = (u2[0] * w1[1] - w2[0] * u1[1]) / det1
            mb = (w2[0] * u1[0] - u2[0] * w1[0]) / det1
            mc = (u2[1] * w1[1] - w2[1] * u1[1]) / det1
            md = (w2[1] * u1[0] - u2[1] * w1[0]) / det1
            if any(x.denominator != 1 for x in (ma, mb, mc, md)):
                continue
            mat = IntMat2(int(ma), int(mb), int(mc), int(md))
            if abs(mat.det()) != 1:
                continue
            shift = _sub(v2[0], _apply_mat(mat, v1[0]))

            def image(p: Point) -> Point:
                return _add(_apply_mat(mat, p), shift)

            if any(image(v1[k]) != v2[k] for k in range(n)):
                continue
            targets = list(d2.nodes)
            ok = True
            for nd in d1.nodes:
                match = None
                for k, cand in enumerate(targets):
                    if (
                        image(nd.position) == cand.position
                        and image(nd.cut_end) == cand.cut_end
                        and _parallel(
                            _apply_mat(mat, nd.eigenvector), cand.eigenvector
                        )
                    ):
                        match = k
                        break
                if match is None:
                    ok = False
                    break
                targets.pop(match)
            if ok:
                return True
    return False
