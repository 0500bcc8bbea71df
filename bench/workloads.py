"""The four benchmark workloads.

A workload builds its inputs from a seed, runs one operation per input
(`op`), and checks each output (`check`) with code of its own rather than
with the library functions being measured.  `op` may raise a
`LenscalcError`; the runner counts that as a failed operation with the
error's code.  `check` returns None when the output is right, or a short
error code.

Workloads, and why each was chosen:

- verify_all: the acceptance sweep users run, ``lenscalc verify all --depth
  8``, in-process.  Dominated by the Farey BFS oracle (criterion 7) and the
  almost toric pipeline (criterion 8).  Fixed inputs; the seed is unused.
- farey_paths: few long Farey paths (16 to 1024 vertices, coefficients up
  to 64 bits) with quadratic path scans, where verify_all has many short
  ones.  Path lengths follow a fixed ladder over that band, so that a pass
  does nearly the same work for every seed; each detour adds a bounded
  number of vertices, so no input is heavy-tailed.
- markov_tree: q-triples, handle diagrams, slides and lens normal forms on
  big integers (up to about 1270 bits at tree depth 14), with a sample
  stratified by integer size.
- atf_tree: almost toric diagrams for every triple to depth 6, including
  the four depth-6 triples the library rejects today; those count as
  failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from math import gcd

from lenscalc import atf, cli, farey, handles, lens, markov, svg
from lenscalc.errors import LenscalcError
from lenscalc.farey import DecoratedPath, EdgeSign, Slope


# ---------------------------------------------------------------- references


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def lens_normal(r: int, s: int) -> tuple[int, int]:
    """Orientation-preserving normal form of L(r, s) (-r/s surgery on the
    unknot): r >= 0 and s the smaller of s and s^-1 mod r."""
    if r < 0:
        r, s = -r, -s
    if r == 0:
        return (0, 1)
    if r == 1:
        return (1, 0)
    s %= r
    return (r, min(s, pow(s, -1, r)))


def mirror(form: tuple[int, int]) -> tuple[int, int]:
    return lens_normal(form[0], -form[1])


def lens_summands(manifold) -> list[tuple[int, int]]:
    """Normal forms of the summands of a connected sum other than S^3, read
    from the raw coefficients."""
    forms = [lens_normal(l.r, l.s) for l in manifold.summands]
    return sorted(f for f in forms if f != (1, 0))


def lens_sum(*pairs: tuple[int, int]) -> list[tuple[int, int]]:
    """Normal forms of the connected sum of L(r, s) for the given (r, s)."""
    return sorted(f for f in (lens_normal(r, s) for r, s in pairs) if f != (1, 0))


def equal_up_to_orientation(a: list, b: list) -> bool:
    """The two sums agree after mirroring some summands of a."""
    rest = list(b)
    for form in a:
        hit = next((k for k, other in enumerate(rest) if other in (form, mirror(form))), None)
        if hit is None:
            return False
        rest.pop(hit)
    return not rest


def tree_levels(depth: int) -> list[list[tuple[tuple[int, int, int], str]]]:
    """Markov triples by tree depth, with their mutation words: the left
    child keeps (p2, p3), the right one (p1, p3); the stem (1,1,1) ->
    (1,1,2) -> (1,2,5) has a single child per level."""
    levels = [[((1, 1, 1), "")]]
    seen = {(1, 1, 1)}
    for _ in range(depth):
        nxt = []
        for (p1, p2, p3), word in levels[-1]:
            for child, letter in (
                (tuple(sorted((p2, p3, 3 * p2 * p3 - p1))), "L"),
                (tuple(sorted((p1, p3, 3 * p1 * p3 - p2))), "R"),
            ):
                if child not in seen:
                    seen.add(child)
                    nxt.append((child, word + letter))
        levels.append(nxt)
    return levels


# ----------------------------------------------------------------- workloads


class Workload:
    """Inputs for one seed plus the operation and its check.  `tiny`
    shrinks the inputs for the benchmark's own tests."""

    name = ""
    inputs: list

    def label(self, inp) -> str:
        return str(inp)

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        """Exact sizes of one pass's inputs and of the outputs checked."""
        return {}


class VerifyAll(Workload):
    """One op: the CLI acceptance sweep, stdout captured."""

    name = "verify_all"

    def __init__(self, seed: int, tiny: bool = False):
        depth = "0" if tiny else "8"
        self.inputs = [("verify", "all", "--depth", depth)]

    def label(self, inp) -> str:
        return " ".join(inp)

    def op(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inp))
        return code, buf.getvalue()

    def check(self, inp, out) -> str | None:
        code, text = out
        lines = text.splitlines()
        if code != 0:
            return f"exit-{code}"
        oks = [l for l in lines if re.match(r"ok \d - ", l)]
        if len(oks) != 9 or len(lines) != 10 or lines[-1] != "all criteria passed":
            return "criterion-failed"
        return None


def _oriented(v: tuple[int, int]) -> tuple[int, int]:
    """The representative Slope normalises to: den > 0, or 1/0."""
    n, d = v
    if d < 0 or (d == 0 and n < 0):
        return (-n, -d)
    return (n, d)


class FareyPaths(Workload):
    """Each op: the minimal path between seeded endpoints, classified with
    random interior signs, and a detour through 1-3 intermediate slopes,
    classified (which shortens it).

    Paths are built backwards from their continued fraction: in a frame
    where the source is 1/0, vertices w_{i+1} = b_i w_i - w_{i-1} with all
    b_i >= 2 form the unique chord-free clockwise path, which a random
    determinant-1 matrix A moves to the seeded endpoints.  The expected
    minimal path is therefore known without calling the library.
    """

    name = "farey_paths"
    OPS = 256
    MIN_VERTICES, MAX_VERTICES = 16, 1024
    # Op j has MIN * (MAX/MIN) ** (((j + 0.5) / OPS) ** SKEW) vertices: a
    # fixed ladder, so a pass does the same amount of path work for every
    # seed, and the seed moves endpoints, coefficients, signs and detours.
    SKEW = 5
    FRAME_BITS, MATRIX_BITS = 28, 24

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"farey_paths:{seed}")
        self.inputs = []
        ops = 12 if tiny else self.OPS
        top = 64 if tiny else self.MAX_VERTICES
        ratio = top / self.MIN_VERTICES
        for j in range(ops):
            n = round(self.MIN_VERTICES * ratio ** (((j + 0.5) / ops) ** self.SKEW))
            self.inputs.append(self._make(rng, n, legs=1 + j % 3))

    def _make(self, rng: random.Random, n: int, legs: int) -> dict:
        cap = 1 << self.FRAME_BITS
        frame = [(1, 0), (rng.randint(-256, 256), -1)]
        while len(frame) < n:
            (a0, a1), (c0, c1) = frame[-2], frame[-1]
            b = 2
            if rng.random() < 0.15:
                b = rng.randint(3, 64)
            nxt = (b * c0 - a0, b * c1 - a1)
            if max(abs(nxt[0]), abs(nxt[1])) >= cap:
                nxt = (2 * c0 - a0, 2 * c1 - a1)
            frame.append(nxt)
        while True:
            a = rng.getrandbits(self.MATRIX_BITS) | 1
            c = rng.getrandbits(self.MATRIX_BITS)
            g, x, y = ext_gcd(a, c)
            if g == 1:
                break
        mat = (a, -y, c, x)  # a*x - (-y)*c = 1

        def image(v):
            return _oriented((mat[0] * v[0] + mat[1] * v[1], mat[2] * v[0] + mat[3] * v[1]))

        # Detours sit on interior edges (never a ring edge).  A detour of
        # size k on edge (u, v) is k*u+v, ..., u+v or u+v, ..., u+k*v: its
        # far end is adjacent to only one of u, v, so the detour path has
        # chords, and each leg of it is still chord-free.
        edges = sorted(rng.sample(range(1, n - 2), legs))
        detour = list(frame[:1])
        stops = []
        extras = []  # detour indices of the vertices off the minimal path
        prev = 0
        for i in edges:
            detour.extend(frame[prev + 1 : i + 1])
            (u0, u1), (v0, v1) = frame[i], frame[i + 1]
            k = rng.randint(2, 8)
            if rng.random() < 0.5:
                extra = [(j * u0 + v0, j * u1 + v1) for j in range(k, 0, -1)]
                stops.append(extra[0])
            else:
                extra = [(u0 + j * v0, u1 + j * v1) for j in range(1, k + 1)]
                stops.append(extra[-1])
            extras.extend(range(len(detour), len(detour) + k))
            detour.extend(extra)
            prev = i
        detour.extend(frame[prev + 1 :])
        uniform = rng.random() < 0.25
        first = rng.choice((EdgeSign.PLUS, EdgeSign.MINUS))
        interior = [
            first if uniform else rng.choice((EdgeSign.PLUS, EdgeSign.MINUS))
            for _ in range(n - 3)
        ]
        # The detour's interior edges carry one sign, or switch to the other
        # sign at one vertex: a vertex off the minimal path, or one on it.
        # Shortening merges a removed block into one of its flanking signs,
        # so a single switch stays single, and a junction of opposite signs
        # is removed exactly when the switch vertex is.
        left, right = rng.sample((EdgeSign.PLUS, EdgeSign.MINUS), 2)
        end = len(detour) - 2  # index of the last interior edge, plus one
        kind = rng.choice(("uniform", "off-path", "on-path"))
        if kind == "off-path":
            switch = rng.choice(extras)
        elif kind == "on-path":
            off = set(extras)
            switch = rng.choice([m for m in range(2, end) if m not in off])
        else:
            switch = end
        path = [image(v) for v in frame]
        return {
            "path": path,
            "stops": [Slope(*image(v)) for v in stops],
            "signs": (EdgeSign.RING, *interior, EdgeSign.RING),
            "detour": [image(v) for v in detour],
            "detour_signs": (EdgeSign.RING,)
            + (left,) * (switch - 1)
            + (right,) * (end - switch)
            + (EdgeSign.RING,),
            "switch": switch if switch < end else None,
        }

    def label(self, inp) -> str:
        src, dst = inp["path"][0], inp["path"][-1]
        return f"{src[0]}/{src[1]} -> {dst[0]}/{dst[1]} ({len(inp['path'])} vertices)"

    def op(self, inp):
        src, dst = Slope(*inp["path"][0]), Slope(*inp["path"][-1])
        path = farey.minimal_path(src, dst)
        main = farey.classify(DecoratedPath(tuple(path), inp["signs"]))
        detour = [src]
        for a, b in zip([src] + inp["stops"], inp["stops"] + [dst]):
            detour.extend(farey.minimal_path(a, b)[1:])
        decorated = DecoratedPath(tuple(detour), inp["detour_signs"])
        return path, main, decorated, farey.classify(decorated)

    def check(self, inp, out) -> str | None:
        path, main, detour, detour_class = out
        want = inp["path"]
        if [(s.num, s.den) for s in path] != want:
            return "minimal-path"
        if [(s.num, s.den) for s in detour.slopes] != inp["detour"]:
            return "detour-path"
        if [(s.num, s.den) for s in farey.shorten(detour).path.slopes] != want:
            return "shortened-detour"
        interior = set(inp["signs"][1:-1])
        expected = (
            farey.Classification.UNIVERSALLY_TIGHT
            if len(interior) == 1
            else farey.Classification.VIRTUALLY_OVERTWISTED
        )
        if main is not expected:
            return "classify-minimal"
        # a detour always has chords; it is overtwisted exactly when the
        # sign switch sits on a vertex that shortening removes
        switch = inp["switch"]
        if switch is not None and inp["detour"][switch] not in want:
            expected = farey.Classification.OVERTWISTED
        else:
            expected = farey.Classification.UNDETERMINED
        if detour_class is not expected:
            return "classify-detour"
        return None

    def sizes(self) -> dict[str, int]:
        paths = [inp["path"] for inp in self.inputs]
        return {
            "path_vertices": sum(len(p) for p in paths),
            "detour_vertices": sum(len(inp["detour"]) for inp in self.inputs),
            "removed_vertices": sum(len(i["detour"]) - len(i["path"]) for i in self.inputs),
            "max_vertices": max(len(p) for p in paths),
            "max_bits": max(abs(c).bit_length() for p in paths for v in p for c in v),
        }


class MarkovTree(Workload):
    """One op enumerating the tree to depth 10, then one op per triple:
    every triple to depth 10 and a seeded sample of each depth 11-14.
    Each depth's triples are sorted by their largest entry and cut into
    equal strata, and the sample takes one triple from each stratum, so
    that the integer sizes of a pass hardly depend on the seed."""

    name = "markov_tree"
    FULL_DEPTH = 10
    SAMPLED_DEPTHS = (11, 12, 13, 14)
    PER_DEPTH = 256

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"markov_tree:{seed}")
        full = 3 if tiny else self.FULL_DEPTH
        sampled = (5, 6) if tiny else self.SAMPLED_DEPTHS
        per_depth = 4 if tiny else self.PER_DEPTH
        levels = tree_levels(max(sampled))
        self.levels = levels[: full + 1]
        self.inputs = [("tree", full)]
        for level in self.levels:
            self.inputs.extend(("triple", p, word) for p, word in level)
        for depth in sampled:
            level = sorted(levels[depth], key=lambda entry: entry[0][2])
            size = len(level) // per_depth
            for k in range(per_depth):
                p, word = rng.choice(level[k * size : (k + 1) * size])
                self.inputs.append(("triple", p, word))

    def label(self, inp) -> str:
        if inp[0] == "tree":
            return f"enumerate_tree({inp[1]})"
        return f"{inp[1]} {inp[2]}"

    def op(self, inp):
        if inp[0] == "tree":
            return markov.enumerate_tree(inp[1])
        t = markov.MarkovTriple(*inp[1])
        q = markov.derive_q(t)
        report = markov.verify_q(t, q)
        x_diagram = handles.build_X(t, q)
        cp2, x = handles.recognize_cp2(x_diagram)
        sub = handles.two_curve_subdiagram(x_diagram)
        before = handles.boundary_of_diagram(sub)
        slides = []
        for slot in (handles.Slot.FIRST, handles.Slot.SECOND):
            slid = handles.slide_mutation(sub, slot)
            after = handles.boundary_of_diagram(slid)
            slides.append((slid, after, before.homeomorphic(after, lens.Orientation.EITHER)))
        # criterion 4: meridians on both sides of the two-curve diagram, read
        # on the torus between the curves; the dual knot is slope 0 there.
        p1, p2, p3 = t.entries()
        lam, mu = handles.twist_matrix(handles.TorusCurve(-p2, q.q2)).apply_vec(1, 0)
        m_in = Slope(mu, lam)
        lam, mu = handles.twist_matrix(handles.TorusCurve(p1, q.q1)).inverse().apply_vec(1, 0)
        m_out = Slope(mu, lam)
        ambient = lens.lens_from_meridian_slopes(m_in, m_out)
        _, u, v = ext_gcd(m_out.num, m_out.den)
        basis = farey.IntMat2(m_out.den, -m_out.num, u, v)
        split = lens.surgery_splitting(basis.apply(Slope(0, 1)), basis.apply(m_in))
        want = lens.ThreeManifold(
            (lens.LensSpace(p1 * p1, p1 * q.q1 - 1), lens.LensSpace(p2 * p2, p2 * q.q2 - 1))
        )
        split_ok = split.homeomorphic(want, lens.Orientation.EITHER)
        word = markov.mutation_path(t)
        back = markov.replay(word)
        return q, report, x_diagram, cp2, x, before, slides, ambient, split, split_ok, word, back

    def check(self, inp, out) -> str | None:
        if inp[0] == "tree":
            got = [(t.entries(), w) for t, w in out]
            want = [entry for level in self.levels for entry in level]
            return None if got == want else "enumerate-tree"
        (p1, p2, p3), word = inp[1], inp[2]
        q, report, x_diagram, cp2, x, before, slides, ambient, split, split_ok, got_word, back = out
        q1, q2, q3 = q.q1, q.q2, q.q3
        if not report.passed:
            return "verify-q"
        if p3 * p3 != (p1 * q1 - 1) * p2 * p2 + p1 * p1 * (p2 * q2 - 1):
            return "q-condition-1"
        if p3 * q3 - 1 != p2 * p2 * q1 * q1 + (p1 * q1 + 1) * (p2 * q2 - 1):
            return "q-condition-2"
        g1, g2, g3 = x_diagram.curves
        want_x = tuple(
            a.mu * b.lam - b.mu * a.lam for a, b in ((g2, g3), (g1, g3), (g1, g2))
        )
        if not cp2 or x != want_x or x[0] ** 2 + x[1] ** 2 + x[2] ** 2 != x[0] * x[1] * x[2]:
            return "recognize-cp2"
        boundary = lens_sum((-p3 * p3, p3 * q3 - 1))
        if lens_summands(before) != boundary:
            return "two-curve-boundary"
        expected_moved = ((3 * p2 * p3 - p1, 3 * q2 * p3 + q1), (3 * p1 * p3 - p2, 3 * q1 * p3 + q2))
        for (slid, after, homeomorphic), moved in zip(slides, expected_moved):
            curve = slid.curves[1]
            if (curve.mu, curve.lam) != moved:
                return "slide-identity"
            if not homeomorphic or not equal_up_to_orientation(lens_summands(after), boundary):
                return "slide-boundary"
        if lens_sum((ambient.r, ambient.s)) != boundary:
            return "surgery-ambient"
        want_split = lens_sum((p1 * p1, p1 * q1 - 1), (p2 * p2, p2 * q2 - 1))
        if not split_ok or not equal_up_to_orientation(lens_summands(split), want_split):
            return "surgery-splitting"
        if got_word != word or back.entries() != (p1, p2, p3):
            return "mutation-path"
        return None

    def sizes(self) -> dict[str, int]:
        triples = [inp[1] for inp in self.inputs if inp[0] == "triple"]
        return {
            "triples": len(triples),
            "max_bits": max(max(p).bit_length() for p in triples),
        }


def _primitive(x, y) -> tuple[int, int]:
    """Primitive integer direction of a rational vector."""
    den = x.denominator * y.denominator
    a, b = int(x * den), int(y * den)
    g = gcd(a, b)
    return a // g, b // g


def corner_order(d, point) -> int:
    """|det| of the primitive edge directions at a polygon vertex."""
    verts = d.vertices
    if point not in verts:
        return 0
    i = verts.index(point)
    prev_v, next_v = verts[i - 1], verts[(i + 1) % len(verts)]
    u = _primitive(prev_v[0] - point[0], prev_v[1] - point[1])
    w = _primitive(next_v[0] - point[0], next_v[1] - point[1])
    return abs(u[0] * w[1] - u[1] * w[0])


_SVG_META = re.compile(r"<!-- lenscalc:diagram (.*) -->")


class AtfTree(Workload):
    """One op per triple to depth 6: diagram, consistency, readouts, SVG,
    then the CLI move path: a JSON round trip and a transfer of every cut,
    each accepted transfer undone by a second one."""

    name = "atf_tree"
    DEPTH = 6

    def __init__(self, seed: int, tiny: bool = False):
        depth = 2 if tiny else self.DEPTH
        self.inputs = [p for level in tree_levels(depth) for p, _ in level]
        # triple -> (largest vertex denominator in bits, SVG bytes), noted by
        # `check`, since outputs are dropped once checked
        self.out_sizes: dict[tuple[int, int, int], tuple[int, int]] = {}

    def op(self, inp):
        t = markov.MarkovTriple(*inp)
        d = atf.atf_for_markov(t)
        consistent = atf.is_consistent(d)
        readouts = [atf.node_boundary_lens(d, i) for i in range(len(d.nodes))]
        picture = svg.render_svg(d)
        moved = atf.AtfDiagram.from_json_obj(json.loads(json.dumps(d.to_json_obj())))
        transfers = []
        for i in range(len(moved.nodes)):
            try:
                there = atf.transfer_cut(moved, i)
            except LenscalcError as exc:
                transfers.append(("rejected", exc.code))
                continue
            try:
                back = atf.transfer_cut(there, i)
            except LenscalcError as exc:
                transfers.append(("undo-rejected", exc.code))
                continue
            transfers.append(("accepted", atf.affinely_equivalent(moved, back)))
        return d, consistent, readouts, picture, moved, transfers

    def check(self, inp, out) -> str | None:
        d, consistent, readouts, picture, moved, transfers = out
        den_bits = max(c.denominator.bit_length() for v in d.vertices for c in v)
        self.out_sizes[inp] = (den_bits, len(picture.encode("utf-8")))
        squares = sorted(p * p for p in inp)
        if not consistent:
            return "inconsistent"
        if sorted(l.r for l in readouts) != squares:
            return "readout-orders"
        if sorted(corner_order(d, n.cut_end) for n in d.nodes) != squares:
            return "corner-orders"
        meta = _SVG_META.search(picture)
        if meta is None or json.loads(meta.group(1)) != d.to_json_obj():
            return "svg-metadata"
        if moved != d:
            return "json-round-trip"
        for outcome, detail in transfers:
            if outcome == "undo-rejected" or (outcome == "accepted" and detail is not True):
                return "transfer-not-undone"
        return None

    def sizes(self) -> dict[str, int]:
        return {
            "triples": len(self.inputs),
            "max_den_bits": max((b for b, _ in self.out_sizes.values()), default=0),
            "svg_bytes": sum(n for _, n in self.out_sizes.values()),
        }


WORKLOADS = {w.name: w for w in (VerifyAll, FareyPaths, MarkovTree, AtfTree)}
