"""Reference copies of three parts of `lenscalc.atf`.

The mutation replay is the original `atf_for_markov`: trade the three
corners of the standard triangle, then replay the triple's mutation word
with `transfer_cut`, halving every cut and retrying when a transfer is
blocked.  It is built only on the public moves of `lenscalc.atf`.  It fails
for some triples from tree depth 6 on, so `tests/test_atf_reference.py`
compares the closed-form construction against it at depth <= 5 only.

The Fraction checker is the original `check_consistency` with its helpers,
`node_boundary_lens` and the convexity test of `AtfDiagram`, all on Fraction
points.  The library now runs these predicates on integer points (the
diagram scaled by the lcm of its denominators); `tests/test_atf_reference.py`
requires both to give the same reports, readouts and verdicts.

The Fraction construction is the closed-form `atf_for_markov` as it was
when its Lagrange reduction stepped the Fraction corners themselves.  The
library now steps the integer second-moment form and applies the product
map once; both must give the same diagram, JSON for JSON.

The map search is the original `affinely_equivalent`: for each labelling
of the second diagram's vertices it solves for the linear map in
Fractions and matches the nodes pair by pair.  The library compares
integer normal forms (`AtfDiagram.normal_form`); both must give the same
verdict, except on an eigenvector (0, 0), which the search calls unequal
even to itself.

The full normal form is the original `AtfDiagram.normal_form`: it maps
every node under each of the 2n labellings and takes the least image.  The
library maps only the labellings that start along a shortest edge, and the
nodes only under those that tie on the least ring of vertices; both must
give the same key.

The segment test is the original `_segments_intersect`, which computes all
four signs before it decides; the library's stops at the first two when
they decide.  Both must agree on every pair of segments.

The transfer search is the original `transfer_cut`, which tried the
monodromy and its inverse on either side of the eigenline and kept the
first re-gluing that flattens the old cut end.  It finds the exit point
and splices the boundary ring with its own copies of the original
`_ray_exit` and `_boundary_ring`, on Fraction points.  The library applies
the one re-gluing that can, on the vertex loop with the exit point spliced
in; both must give the same diagram, or raise the same error with the same
message.  The Fraction re-gluing is that one re-gluing as the library had
it before it moved onto the integral frame: the same steps, with the
monodromy images x0 + M(p - x0) in Fractions.

The rational builder (`rational_diagram`) is the original rational
constructor of `AtfDiagram`: it scales the Fraction points by the lcm of
their denominators and passes the integer frame to the one constructor.
The focus-focus monodromy as a matrix (`monodromy`) is the one the library
had before it applied the transvection to vectors.

The module imports only public names of `lenscalc.atf`, and keeps its own
copies of the point helpers (`_sub`, `_add`, `_integral`), so no helper it
checks is also one it runs on.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm

from farey_reference import transvection
from lenscalc.atf import (
    AtfDiagram,
    AtfNode,
    NodeReport,
    is_consistent,
    nodal_slide,
    nodal_trade,
    standard_cp2,
    transfer_cut,
)
from lenscalc.errors import (
    InternalConsistencyError,
    InvariantError,
    PreconditionError,
    UnsupportedConfigurationError,
)
from lenscalc.farey import IntMat2, _bezout, det
from lenscalc.lens import S1XS2, S3, LensSpace
from lenscalc.markov import MarkovTriple, mutation_path


def _shrink_cuts(d: AtfDiagram, n: int, m: int) -> AtfDiagram:
    """Slide every node towards its cut end so each cut has n/m of its
    current length."""
    out = d
    for i in range(len(d.nodes)):
        out = nodal_slide(out, i, n, m)
    return out


def atf_for_markov(t: MarkovTriple) -> AtfDiagram:
    """Almost toric diagram of CP^2 for a Markov triple: trade the three
    corners of the standard triangle, then replay the triple's mutation
    word, transferring the cut of the node carrying the mutated entry."""
    d = standard_cp2()
    for i in range(3):
        d = nodal_trade(d, i)
    entries = [1, 1, 1]
    node_for_entry = [0, 1, 2]
    for ch in mutation_path(t):
        slot = 0 if ch == "L" else 1
        ni = node_for_entry[slot]
        d = _transfer_with_retries(d, ni)
        others = [entries[k] for k in range(3) if k != slot]
        entries[slot] = 3 * others[0] * others[1] - entries[slot]
        order = sorted(range(3), key=lambda k: entries[k])
        entries = [entries[k] for k in order]
        node_for_entry = [node_for_entry[k] for k in order]
    return d


def _transfer_with_retries(d: AtfDiagram, node_index: int) -> AtfDiagram:
    for _ in range(12):
        try:
            return transfer_cut(d, node_index)
        except UnsupportedConfigurationError:
            d = _shrink_cuts(d, 1, 2)
    raise UnsupportedConfigurationError(
        "transfer remained blocked after shrinking all cuts"
    )


# --- the Fraction checker --------------------------------------------------

Point = tuple[Fraction, Fraction]
Vec = tuple[Fraction, Fraction]


def _sub(p: Point, q: Point) -> Vec:
    return (p[0] - q[0], p[1] - q[1])


def _add(p: Point, v: Vec) -> Point:
    return (p[0] + v[0], p[1] + v[1])


def _integral(points) -> tuple[int, list[tuple[int, int]]]:
    """The lcm of the points' denominators, and the points scaled by it as
    integer pairs."""
    den = lcm(*(Fraction(c).denominator for p in points for c in p))
    return den, [(int(x * den), int(y * den)) for x, y in points]


def rational_diagram(vertices, nodes=()) -> AtfDiagram:
    """The diagram of rational (Fraction or int) vertices and `AtfNode`s,
    built from its integral frame."""
    marks = [p for nd in nodes for p in (nd.position, nd.cut_end)]
    den, ints = _integral([*vertices, *marks])
    n = len(ints) - len(marks)
    eigens = [nd.eigenvector for nd in nodes]
    return AtfDiagram(den, ints[:n], ints[n::2], ints[n + 1 :: 2], eigens)


def monodromy(a: int, b: int) -> IntMat2:
    """The focus-focus monodromy fixing the primitive vector (a, b), as a
    matrix: the transvection along it with k = 1."""
    if gcd(a, b) != 1:
        raise PreconditionError(f"({a},{b}) is not primitive")
    return transvection(a, b, 1)


def _cross(u: Vec, v: Vec):
    return u[0] * v[1] - u[1] * v[0]


def _primitive(v: Vec) -> tuple[int, int]:
    """The primitive integer vector spanning the same ray as v."""
    if v == (0, 0):
        raise PreconditionError("zero vector has no direction")
    x, y = Fraction(v[0]), Fraction(v[1])
    m = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    a, b = int(x * m), int(y * m)
    g = gcd(a, b)
    return (a // g, b // g)


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


def validate_vertices(vertices) -> None:
    """The convexity test of `AtfDiagram`: a left turn at every vertex, and
    once round, where the edges' y-components change sign exactly twice."""
    verts = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
    n = len(verts)
    if n < 3:
        raise InvariantError("polygon needs at least three vertices")
    ys = []
    for i in range(n):
        u = _sub(verts[(i + 1) % n], verts[i])
        w = _sub(verts[(i + 2) % n], verts[(i + 1) % n])
        if _cross(u, w) <= 0:
            raise InvariantError("vertices must be strictly convex counterclockwise")
        if u[1] != 0:
            ys.append(u[1] > 0)
    if sum(a != b for a, b in zip(ys, ys[1:] + ys[:1])) != 2:
        raise InvariantError("vertices must be strictly convex counterclockwise")


def contains_interior(d: AtfDiagram, p: Point) -> bool:
    n = len(d.vertices)
    for i in range(n):
        a, b = d.vertices[i], d.vertices[(i + 1) % n]
        if _cross(_sub(b, a), _sub(p, a)) <= 0:
            return False
    return True


def on_boundary(d: AtfDiagram, p: Point) -> bool:
    n = len(d.vertices)
    return any(
        _on_segment(p, d.vertices[i], d.vertices[(i + 1) % n])
        for i in range(n)
    )


def vertex_index(d: AtfDiagram, p: Point) -> int | None:
    for i, v in enumerate(d.vertices):
        if v == p:
            return i
    return None


def _flanking_directions(d: AtfDiagram, p: Point) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive boundary directions leaving p, (towards-previous,
    towards-next) when p is a vertex, the two along-edge directions when p
    is edge-interior."""
    n = len(d.vertices)
    i = vertex_index(d, p)
    if i is not None:
        prev_v = d.vertices[(i - 1) % n]
        next_v = d.vertices[(i + 1) % n]
        return _primitive(_sub(prev_v, p)), _primitive(_sub(next_v, p))
    for k in range(n):
        a, b = d.vertices[k], d.vertices[(k + 1) % n]
        if _on_segment(p, a, b) and p not in (a, b):
            return _primitive(_sub(a, p)), _primitive(_sub(b, p))
    raise PreconditionError("point is not on the polygon boundary")


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
        cut_on_boundary = on_boundary(d, node.cut_end)
        position_interior = contains_interior(d, node.position)
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


def node_boundary_lens(d: AtfDiagram, node_index: int) -> LensSpace:
    """Lens space traced out over a punctured neighborhood of the cut: read
    the corner at the cut end in a basis where the first boundary direction
    is (1, 0)."""
    report = check_consistency(d)[node_index]
    if not report.passed:
        raise PreconditionError("node fails the consistency check")
    p = d.nodes[node_index].cut_end
    if vertex_index(d, p) is None:
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


# --- the Fraction construction ----------------------------------------------


def _reduced(corners: list[Point]) -> list[Point]:
    """The corners in the unimodular frame that Lagrange-reduces their
    second-moment form sum v v^T = [[a, b], [b, c]]: |2b| <= a <= c.  A
    reduced form is left as it is."""
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


def fraction_atf_for_markov(t: MarkovTriple) -> AtfDiagram:
    """The moment triangle of P(p1^2, p2^2, p3^2) with its corners traded,
    reduced on Fraction corners and translated by (1, 1)."""
    w = [p * p for p in t.entries()]
    x, y = _bezout(w[0], w[1])
    normals = ((w[1], -w[2] * x), (0, 1), (-w[0], -w[2] * y))
    corners = []
    for i in range(3):
        (a, b), (c, d) = normals[i - 1], normals[i]
        det = _cross(normals[i - 1], normals[i])
        corners.append((Fraction(b - d, det), Fraction(c - a, det)))
    corners = _reduced(corners)
    first = corners.index(min(corners))
    corners = corners[first:] + corners[:first]
    nodes = tuple(
        AtfNode((1 + v[0] / 4, 1 + v[1] / 4), _primitive((-v[0], -v[1])), (1 + v[0], 1 + v[1]))
        for v in corners
    )
    return rational_diagram(tuple((1 + v[0], 1 + v[1]) for v in corners), nodes)


# --- the map search ----------------------------------------------------------


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
            det1 = det(u1, w1)
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
            shift = _sub(v2[0], mat.apply_vec(*v1[0]))

            def image(p: Point) -> Point:
                return _add(mat.apply_vec(*p), shift)

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
                        and _parallel(mat.apply_vec(*nd.eigenvector), cand.eigenvector)
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


# --- the full normal form ----------------------------------------------------


def labellings(d: AtfDiagram) -> tuple[int, list[tuple[tuple, tuple]]]:
    """The frame's denominator over g, and the image (ring, nodes) of d under
    each of its 2n (start vertex, direction) labellings, every node mapped
    under every labelling: the original `AtfDiagram.normal_form`."""
    den, *groups, _ = d.frame
    ox, oy = groups[0][0]
    g = gcd(den, *(c for pts in groups for x, y in pts for c in (x - ox, y - oy)))
    verts, positions, ends = (
        tuple(((x - ox) // g, (y - oy) // g) for x, y in pts) for pts in groups
    )
    eigens = []
    for a, b in (nd.eigenvector for nd in d.nodes):
        k = gcd(a, b) or 1  # a JSON document can hold (0, 0)
        eigens.append((a // k, b // k))
    n = len(verts)
    keys = []
    for j in range(n):
        o = verts[j]
        for step in (1, -1):
            a, b = _primitive(_sub(verts[(j + step) % n], o))
            ex, ey = _sub(verts[(j + 2 * step) % n], verts[(j + step) % n])
            x, y = _bezout(a, b)
            sign = 1 if a * ey - b * ex > 0 else -1
            k = (x * ex + y * ey) // (sign * (a * ey - b * ex))
            m = IntMat2(x + k * sign * b, y - k * sign * a, -sign * b, sign * a)

            def image(p):
                return m.apply_vec(p[0] - o[0], p[1] - o[1])

            nodes = sorted(
                (image(p), max(m.apply_vec(u, v), m.apply_vec(-u, -v)), image(e))
                for p, (u, v), e in zip(positions, eigens, ends)
            )
            ring = tuple(image(verts[(j + step * i) % n]) for i in range(1, n))
            keys.append((ring, tuple(nodes)))
    return den // g, keys


def normal_form(d: AtfDiagram) -> tuple:
    """The least image over all 2n labellings."""
    scale, keys = labellings(d)
    return (scale, *min(keys))


# --- the transfer search -----------------------------------------------------


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
        hit = (origin[0] + direction[0] * t, origin[1] + direction[1] * t)
        if _on_segment(hit, a, b) and (best is None or t < best[0]):
            best = (t, hit)
    if best is None:
        raise UnsupportedConfigurationError("ray does not exit the polygon")
    return best


def _boundary_ring(d: AtfDiagram, extra: list[Point]) -> list[Point]:
    """Vertex loop with the given boundary points spliced in where they are
    edge-interior, each edge's in order from its start."""
    n = len(d.vertices)
    ring: list[Point] = []
    for i in range(n):
        a, b = d.vertices[i], d.vertices[(i + 1) % n]
        ring.append(a)
        inserts = [p for p in extra if _on_segment(p, a, b) and p != a and p != b]
        inserts.sort(key=lambda p: abs(p[0] - a[0]) + abs(p[1] - a[1]))
        ring.extend(inserts)
    return ring


def _chains(d: AtfDiagram, node_index: int):
    """The steps every transfer takes before it re-glues: the node checks,
    the exit point w_end, the blocking test, and the two chains of the
    boundary ring strictly between the cut end and w_end."""
    node_index = range(len(d.nodes))[node_index]  # as list indexing does
    if not d._reports[node_index].passed:
        raise PreconditionError("node fails the consistency check")
    node = d.nodes[node_index]
    x0 = node.position
    c_end = node.cut_end
    away = _sub(x0, c_end)  # direction from cut end through the node
    _, w_end = _ray_exit(d, x0, away)
    if w_end == c_end:
        raise InternalConsistencyError("eigenline exits where it entered")
    others = [p for j, o in enumerate(d.nodes) if j != node_index for p in (o.position, o.cut_end)]
    _, (c, w, *rest) = _integral([c_end, w_end] + others)
    for pos, end in zip(rest[::2], rest[1::2]):
        if _on_segment(pos, c, w) or _segments_intersect(c, w, pos, end):
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
    return node_index, w_end, chain1, chain2


def transfer_cut_search(d: AtfDiagram, node_index: int) -> AtfDiagram:
    """Cut along the full eigenline through the node, apply the monodromy
    (or its inverse) to one side, and re-glue so the cut leaves the node on
    the opposite side.  The old cut end flattens to an edge-interior point
    and the opposite exit point becomes a vertex.  The node must pass the
    consistency check."""
    node_index, w_end, chain1, chain2 = _chains(d, node_index)
    node = d.nodes[node_index]
    x0, ev, c_end = node.position, node.eigenvector, node.cut_end
    sign1 = 1 if det(ev, _sub(chain1[0], x0)) > 0 else -1
    for mat in (monodromy(*ev), transvection(*ev, -1)):
        for side in (1, 2):
            result = _try_transfer(d, node_index, mat, side, sign1, x0, c_end, w_end, chain1, chain2)
            if result is not None:
                return result
    raise UnsupportedConfigurationError("no monodromy re-gluing flattens the old cut end")


def fraction_transfer_cut(d: AtfDiagram, node_index: int) -> AtfDiagram:
    """The one re-gluing of `transfer_cut`, with the monodromy images
    x0 + M(p - x0) of chain1 and of the nodes on its side in Fractions."""
    node_index, w_end, chain1, chain2 = _chains(d, node_index)
    node = d.nodes[node_index]
    x0, ev, c_end = node.position, node.eigenvector, node.cut_end
    mat = monodromy(*ev)

    def transform(p: Point) -> Point:
        return _add(x0, mat.apply_vec(*_sub(p, x0)))

    if _cross(_sub(c_end, chain2[-1]), _sub(transform(chain1[0]), c_end)) != 0:
        raise InternalConsistencyError("the monodromy does not flatten the old cut end")
    upper = _cross(ev, _sub(chain1[0], x0)) > 0  # the side of chain1
    new_nodes = []
    for j, other in enumerate(d.nodes):
        if j == node_index:
            other = AtfNode(x0, ev, w_end)
        else:
            side = _cross(ev, _sub(other.position, x0))
            if side != 0 and (side > 0) == upper:
                eig = _primitive(mat.apply_vec(*other.eigenvector))
                other = AtfNode(transform(other.position), eig, transform(other.cut_end))
        new_nodes.append(other)
    ring = [transform(p) for p in chain1] + [w_end] + chain2
    try:
        out = rational_diagram(tuple(ring), tuple(new_nodes))
    except InvariantError:
        raise UnsupportedConfigurationError("the re-glued polygon is not convex") from None
    if not is_consistent(out):
        raise UnsupportedConfigurationError("the re-glued diagram is inconsistent")
    return out


def _try_transfer(d, node_index, mat, side, sign1, x0, c_end, w_end, chain1, chain2):
    node = d.nodes[node_index]

    def transform(p: Point) -> Point:
        return _add(x0, mat.apply_vec(*_sub(p, x0)))

    new_chain1 = [transform(p) for p in chain1] if side == 1 else list(chain1)
    new_chain2 = [transform(p) for p in chain2] if side == 2 else list(chain2)
    loop = [c_end] + new_chain1 + [w_end] + new_chain2
    prev_p = loop[-1]
    next_p = loop[1]
    if det(_sub(c_end, prev_p), _sub(next_p, c_end)) != 0:
        return None  # old cut end does not flatten under this re-gluing
    loop = loop[1:]
    transformed_sign = sign1 if side == 1 else -sign1

    def on_transformed_side(p: Point) -> bool:
        c = det(node.eigenvector, _sub(p, x0))
        return c != 0 and (1 if c > 0 else -1) == transformed_sign

    new_nodes = []
    for j, other in enumerate(d.nodes):
        if j == node_index:
            new_nodes.append(AtfNode(x0, node.eigenvector, w_end))
        elif on_transformed_side(other.position):
            eig = _primitive(mat.apply_vec(*other.eigenvector))
            new_nodes.append(
                AtfNode(transform(other.position), eig, transform(other.cut_end))
            )
        else:
            new_nodes.append(other)
    try:
        out = rational_diagram(tuple(loop), tuple(new_nodes))
    except InvariantError:
        return None
    if not is_consistent(out):
        return None
    return out
