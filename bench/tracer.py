"""Span tracing of lenscalc from outside the library.

`Tracer.install()` replaces each traced function by a wrapper at every place
it is bound: a module-level function is replaced in every `lenscalc` module
whose namespace holds it (``handles`` imports ``verify_q``, ``atf`` imports
``mutation_path``), and methods and properties are replaced on their class.
`uninstall()` restores the originals, so untraced passes run the library
unmodified.

Each call records a span (name, start, end, parent) in flat in-memory arrays.
`self_times` turns a span table into per-name calls, total time and self
time, where self time is a span's duration minus the durations of its child
spans.  A few wrappers also record sizes (path vertices, integer bit sizes)
and typed failures; those are counts that repeat exactly for given inputs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

from lenscalc.errors import LenscalcError


def _bits(*values: int) -> int:
    return max(abs(v).bit_length() for v in values)


def _path_bits(path) -> int:
    return max(_bits(s.num, s.den) for s in path)


def _diagram_den_bits(d) -> int:
    coords = [c for v in d.vertices for c in v]
    for n in d.nodes:
        coords.extend(n.position)
        coords.extend(n.cut_end)
    return max(c.denominator.bit_length() for c in coords)


def _record_minimal_path(tr, args, path) -> None:
    tr.counts["farey.minimal_path.vertices"] += len(path)
    tr.raise_max("farey.max_bits", _path_bits(path))


def _record_shorten(tr, args, result) -> None:
    removed = len(args[0].slopes) - len(result.path.slopes)
    tr.counts["farey.shorten.removed_vertices"] += removed


def _record_derive_q(tr, args, q) -> None:
    tr.raise_max("markov.max_bits", _bits(*args[0].entries(), *q.entries()))


def _record_atf(tr, args, d) -> None:
    tr.raise_max("atf.max_den_bits", _diagram_den_bits(d))


def _record_svg(tr, args, text) -> None:
    tr.counts["svg.bytes"] += len(text.encode("utf-8"))


# (module, attribute, span name, result hook, counter bumped on a typed error).
# An attribute "Cls.meth" is a method or property of a class in that module;
# "Cls.__init__" times construction, validation included.
TARGETS = [
    ("farey", "minimal_path", "farey.minimal_path", _record_minimal_path, None),
    ("farey", "is_farey_edge", "farey.is_farey_edge", None, None),
    ("farey", "Slope.__init__", "farey.Slope", None, None),
    ("farey", "DecoratedPath.__init__", "farey.DecoratedPath", None, None),
    ("farey", "DecoratedPath.is_minimal", "farey.DecoratedPath.is_minimal", None, None),
    ("farey", "classify", "farey.classify", None, None),
    ("farey", "shorten", "farey.shorten", _record_shorten, None),
    ("markov", "enumerate_tree", "markov.enumerate_tree", None, None),
    ("markov", "derive_q", "markov.derive_q", _record_derive_q, None),
    ("markov", "verify_q", "markov.verify_q", None, None),
    ("markov", "mutation_path", "markov.mutation_path", None, None),
    ("handles", "build_X", "handles.build_X", None, None),
    ("handles", "twist_matrix", "handles.twist_matrix", None, None),
    ("handles", "boundary_of_diagram", "handles.boundary_of_diagram", None, None),
    ("handles", "slide_mutation", "handles.slide_mutation", None, None),
    ("handles", "recognize_cp2", "handles.recognize_cp2", None, None),
    ("lens", "LensSpace.canonical", "lens.LensSpace.canonical", None, None),
    ("lens", "lens_from_meridian_slopes", "lens.lens_from_meridian_slopes", None, None),
    ("lens", "surgery_splitting", "lens.surgery_splitting", None, None),
    ("lens", "ThreeManifold.homeomorphic", "lens.ThreeManifold.homeomorphic", None, None),
    ("atf", "atf_for_markov", "atf.atf_for_markov", _record_atf, "atf.atf_for_markov.failed"),
    ("atf", "transfer_cut", "atf.transfer_cut", None, "atf.transfer_cut.rejected"),
    ("atf", "nodal_slide", "atf.nodal_slide", None, None),
    ("atf", "check_consistency", "atf.check_consistency", None, None),
    ("atf", "node_boundary_lens", "atf.node_boundary_lens", None, None),
    ("svg", "render_svg", "svg.render_svg", _record_svg, None),
    ("verify", "crit1_q_sweep", "verify.crit1", None, None),
    ("verify", "crit2_cp2_recognition", "verify.crit2", None, None),
    ("verify", "crit3_two_curve_boundary", "verify.crit3", None, None),
    ("verify", "crit4_surgery", "verify.crit4", None, None),
    ("verify", "crit5_decorated_paths", "verify.crit5", None, None),
    ("verify", "crit6_mutation_slide", "verify.crit6", None, None),
    ("verify", "crit7_farey_oracle", "verify.crit7", None, None),
    ("verify", "crit8_atf_pipeline", "verify.crit8", None, None),
    ("verify", "crit9_boundary_cross_check", "verify.crit9", None, None),
    ("cli", "main", "cli.main", None, None),
]

SPAN_NAMES = [name for _, _, name, _, _ in TARGETS]
COUNTERS = [
    "farey.minimal_path.vertices",
    "farey.shorten.removed_vertices",
    "atf.atf_for_markov.failed",
    "atf.transfer_cut.rejected",
    "svg.bytes",
]
MAXIMA = ["farey.max_bits", "markov.max_bits", "atf.max_den_bits"]


def self_times(name_ids, parents, starts, ends) -> tuple[Counter, Counter, Counter]:
    """Per-name (calls, total seconds, self seconds) of a span table.

    Span i has name `name_ids[i]`, runs from `starts[i]` to `ends[i]`, and
    was opened inside span `parents[i]` (-1 for a root).  Spans come from a
    single thread, so the children of a span nest inside it and do not
    overlap each other: the part of a span its children cover is the sum
    of their durations.
    """
    child = array("d", bytes(8 * len(starts)))
    for p, s, e in zip(parents, starts, ends):
        if p >= 0:
            child[p] += e - s
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for nid, s, e, c in zip(name_ids, starts, ends, child):
        calls[nid] += 1
        total[nid] += e - s
        own[nid] += (e - s) - c
    return calls, total, own


class Tracer:
    """Span recorder and function wrapper for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay installed."""
        for a in (self.name_ids, self.parents, self.starts, self.ends):
            del a[:]
        self.stack.clear()
        self.counts.clear()
        self.maxima.clear()

    def wrap(self, fn, name: str, on_result=None, error_counter: str | None = None):
        nid = self.name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack, clock = self.starts, self.ends, self.stack, self.clock
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except LenscalcError:
                ends[i] = clock()
                stack.pop()
                if error_counter is not None:
                    tracer.counts[error_counter] += 1
                raise
            except BaseException:
                ends[i] = clock()
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = [m for k, m in sorted(sys.modules.items()) if k.startswith("lenscalc")]
        for modname, attr, name, on_result, error_counter in TARGETS:
            home = sys.modules[f"lenscalc.{modname}"]
            if "." in attr:
                clsname, member = attr.split(".")
                cls = getattr(home, clsname)
                orig = cls.__dict__[member]
                if isinstance(orig, property):
                    new = property(self.wrap(orig.fget, name, on_result, error_counter))
                else:
                    new = self.wrap(orig, name, on_result, error_counter)
                self._patch(cls, member, new)
                continue
            orig = getattr(home, attr)
            new = self.wrap(orig, name, on_result, error_counter)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def summary(self) -> dict[str, dict]:
        """Per-name calls, total and self seconds of the recorded spans."""
        calls, total, own = self_times(self.name_ids, self.parents, self.starts, self.ends)
        return {
            self.names[nid]: {"calls": calls[nid], "total_s": total[nid], "self_s": own[nid]}
            for nid in calls
        }

    def write(self, directory: str, stem: str) -> None:
        """Write the recorded spans as four raw arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, stem)
        with open(base + ".spans", "wb") as fh:
            for a in (self.name_ids, self.parents, self.starts, self.ends):
                a.tofile(fh)
        index = {
            "spans": len(self.starts),
            "names": self.names,
            "layout": [
                ["name_id", self.name_ids.typecode, self.name_ids.itemsize],
                ["parent", self.parents.typecode, self.parents.itemsize],
                ["start_s", self.starts.typecode, self.starts.itemsize],
                ["end_s", self.ends.typecode, self.ends.itemsize],
            ],
            "byteorder": sys.byteorder,
        }
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)
