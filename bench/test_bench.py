"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lenscalc import atf, farey, handles, markov  # noqa: E402


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # 0 a [0, 10]            self 10 - 3 - 4 = 3
        # 1   b [1, 4]           self 3 - 1 = 2
        # 2     c [2, 3]         self 1
        # 3   d [5, 9]           self 4
        # 4 a [20, 22]           self 2 (a second root)
        names = array("i", [0, 1, 2, 3, 0])
        parents = array("i", [-1, 0, 1, 0, -1])
        starts = array("d", [0, 1, 2, 5, 20])
        ends = array("d", [10, 4, 3, 9, 22])
        calls, total, own = tracer.self_times(names, parents, starts, ends)
        self.assertEqual(dict(calls), {0: 2, 1: 1, 2: 1, 3: 1})
        self.assertEqual(dict(total), {0: 12, 1: 3, 2: 1, 3: 4})
        self.assertEqual(dict(own), {0: 5, 1: 2, 2: 1, 3: 4})

    def test_recorded_spans_nest(self):
        ticks = iter(range(100))
        tr = tracer.Tracer(clock=lambda: next(ticks))
        inner = tr.wrap(lambda: None, "inner")
        outer = tr.wrap(lambda: inner() or inner(), "outer")
        outer()
        self.assertEqual(list(tr.parents), [-1, 0, 0])
        summary = tr.summary()
        self.assertEqual(summary["inner"]["calls"], 2)
        self.assertEqual(summary["outer"]["self_s"], (5 - 0) - 2)


class InstallTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        original = markov.verify_q
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(handles.verify_q, original)
            self.assertIs(handles.verify_q, markov.verify_q)
            self.assertIs(atf.mutation_path, markov.mutation_path)
            self.assertIsNot(atf.mutation_path.__wrapped__, atf.mutation_path)
            t = markov.MarkovTriple(1, 2, 5)
            handles.build_X(t, markov.derive_q(t))
        finally:
            tr.uninstall()
        self.assertIs(handles.verify_q, original)
        self.assertIs(markov.verify_q, original)
        summary = tr.summary()
        self.assertEqual(summary["markov.verify_q"]["calls"], 1)
        self.assertEqual(summary["handles.build_X"]["calls"], 1)
        # verify_q ran inside build_X, through the binding in handles
        build = tr.names.index("handles.build_X")
        verify = tr.names.index("markov.verify_q")
        spans = list(zip(tr.name_ids, tr.parents))
        parent = next(p for nid, p in spans if nid == verify)
        self.assertEqual(tr.name_ids[parent], build)


class InputsTest(unittest.TestCase):
    def test_seed_changes_only_seeded_workloads(self):
        for name, seeded in (("farey_paths", True), ("markov_tree", True), ("verify_all", False)):
            cls = workloads.WORKLOADS[name]
            one, again, two = cls(1).inputs, cls(1).inputs, cls(2).inputs
            self.assertEqual(one, again, name)
            self.assertEqual(one != two, seeded, name)

    def test_atf_tree_keeps_the_rejected_triples(self):
        inputs = workloads.AtfTree(0).inputs
        self.assertEqual(len(inputs), 33)
        for p in ((433, 37666, 48928105), (29, 14701, 1278818)):
            self.assertIn(p, inputs)

    def test_reference_paths_are_chord_free(self):
        def det(u, v):
            return u[0] * v[1] - u[1] * v[0]

        def chords(path):
            return [
                (i, j)
                for i in range(len(path))
                for j in range(i + 2, len(path))
                if abs(det(path[i], path[j])) == 1
            ]

        for inp in workloads.FareyPaths(7, tiny=True).inputs:
            path = inp["path"]
            self.assertTrue(all(abs(det(u, v)) == 1 for u, v in zip(path, path[1:])))
            self.assertEqual(chords(path), [])
            self.assertNotEqual(chords(inp["detour"]), [])
            self.assertLessEqual(max(abs(c).bit_length() for v in path for c in v), 64)


    def test_detour_classes_follow_the_sign_switch(self):
        work = workloads.FareyPaths(5, tiny=True)
        seen = set()
        for inp in work.inputs:
            out = work.op(inp)
            self.assertIsNone(work.check(inp, out))
            seen.add(out[3])
        self.assertEqual(seen, {farey.Classification.OVERTWISTED, farey.Classification.UNDETERMINED})


class RunTest(unittest.TestCase):
    def run_bench(self, name: str, trace: int) -> dict:
        out = io.StringIO()
        argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        with contextlib.redirect_stdout(out):
            self.assertEqual(run.main(argv, tiny=True), 0)
        lines = out.getvalue().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record["failures"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, record["failures"])
        return result["metrics"]

    def test_every_workload_prints_the_declared_metrics(self):
        for name in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    metrics = self.run_bench(name, trace)
                    self.assertEqual(
                        {k: v["unit"] for k, v in metrics.items()}, declared(section)
                    )

    def test_workload_names_match_the_declaration(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
