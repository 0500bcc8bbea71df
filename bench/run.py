"""Benchmark for lenscalc: one closed-loop, single-process workload per run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in `workloads.py`.  A run first times cold starts of
the CLI (a fresh interpreter importing `lenscalc.cli` and building its
parser), then repeats passes over the workload's inputs, one operation at a
time, until the next pass would end after `--seconds`.  Every output is
checked right after its op, outside the op's timed span, and then dropped;
an output equal to that of the same op in the first pass is not checked
twice.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of `tracer.py`, from traced
passes that alternate with untraced ones, and the tracing overhead.  The
line before it is a JSON record of the run: Python version, git commit,
processor count, seed, sample counts, exact sizes and every failed
operation with its error code.  Traced runs write their spans under
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Sampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
COLD_STARTS = 11

_COLD_START = """\
import time
from speed import probe_time
before = probe_time(5)
t0 = time.perf_counter()
import lenscalc.cli
t1 = time.perf_counter()
lenscalc.cli.build_parser()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, (before + probe_time(5)) / 2)
"""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def cold_starts(count: int) -> list[tuple[float, float, float]]:
    """(import, build_parser, probe) seconds of `count` fresh interpreters,
    after one discarded start that leaves the bytecode cache warm.  Each
    interpreter probes its speed just before and just after the import."""
    env = dict(os.environ)
    path = [str(SRC), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    starts = []
    for _ in range(count + 1):
        out = subprocess.run(
            [sys.executable, "-c", _COLD_START],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout.split()
        starts.append(tuple(float(x) for x in out))
    return starts[1:]


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check(workload, inp, out) -> str | None:
    try:
        err = workload.check(inp, out)
    except Exception as exc:
        err = f"check-error:{type(exc).__name__}"
    return None if err is None else "check:" + err


class Pass:
    """One pass over the inputs: per-op latency and the failures found by
    the op or its check.

    Each output is checked right after its op, outside the op's timed span,
    and then dropped, so that peak memory reflects one op's output rather
    than a pass's.  A pass keeps a digest of each output's repr; an output
    whose digest matches that of the same op in `reference`, an earlier
    pass whose outputs were all checked, is not checked again.

    With a `sampler`, latencies leave out the time spent probing machine
    speed and are scaled to reference speed (`speed.py`); without one they
    are raw.  `raw_wall` is the sum of the raw latencies.
    """

    def __init__(self, workload, op, reference: "Pass | None", sampler: Sampler | None = None):
        from lenscalc.errors import LenscalcError

        gc.collect()
        self.digests: list[bytes] = []
        self.errors: list[str | None] = []
        self.failures: list[dict] = []
        self.wrong = 0
        clock = time.perf_counter
        spans = []
        with sampler or contextlib.nullcontext():
            for k, inp in enumerate(workload.inputs):
                t0 = clock()
                try:
                    out = op(inp)
                    err = None
                except LenscalcError as exc:
                    out, err = None, exc.code
                except Exception as exc:  # an untyped error is a wrong answer
                    out, err = None, f"exception:{type(exc).__name__}"
                spans.append((t0, clock()))
                digest = b"" if err else hashlib.blake2b(repr(out).encode()).digest()
                if err is None:
                    if reference is not None and reference.digests[k] == digest:
                        err = reference.errors[k]
                    else:
                        err = check(workload, inp, out)
                del out
                self.digests.append(digest)
                self.errors.append(err)
                if err is None:
                    continue
                if err.startswith(("check", "exception")):
                    self.wrong += 1
                self.failures.append({"op": k, "input": workload.label(inp), "code": err})
        if sampler is None:
            self.latencies = [t1 - t0 for t0, t1 in spans]
            self.raw_wall = sum(self.latencies)
        else:
            measured = [sampler.measure(t0, t1) for t0, t1 in spans]
            self.latencies = [scaled for _, scaled in measured]
            self.raw_wall = sum(raw for raw, _ in measured)
        self.wall = sum(self.latencies)


def run(workload, seconds: float, trace: bool, started: float) -> dict:
    """Repeat passes until the next one would end after the deadline."""
    deadline = started + seconds
    untraced, traced, summaries = [], [], []
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    while True:
        cycle = time.perf_counter()
        reference = untraced[0] if untraced else None
        untraced.append(Pass(workload, workload.op, reference, Sampler()))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                op = tracer.wrap(workload.op, "bench.op")
                traced.append(Pass(workload, op, untraced[0]))
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())
        now = time.perf_counter()
        if now + (now - cycle) > deadline:
            break
    return {"untraced": untraced, "traced": traced, "summaries": summaries, "tracer": tracer}


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each op's median latency over the passes.  Every pass runs the same
    inputs, so percentiles over ops do not depend on the number of passes."""
    ops = range(len(passes[0].latencies))
    return [statistics.median(p.latencies[k] for p in passes) for k in ops]


def e2e_metrics(passes: list[Pass], starts: list[tuple[float, float, float]]) -> dict:
    latencies = op_latencies(passes)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    setup = [(imp + par) * REFERENCE_S / probe for imp, par, probe in starts]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def layer_metrics(result: dict, starts: list[tuple[float, float, float]]) -> dict:
    from tracer import COUNTERS, MAXIMA, SPAN_NAMES

    summaries = result["summaries"]
    tracer = result["tracer"]
    last = summaries[-1]

    def median_of(name: str, key: str) -> float:
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (last.get(name, {}).get("calls", 0), "count")
        metrics[f"{name}.self_s"] = (median_of(name, "self_s"), "s")
        if name.startswith("verify."):
            metrics[f"{name}.span_s"] = (median_of(name, "total_s"), "s")
    for name in COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for name in MAXIMA:
        metrics[name] = (tracer.maxima.get(name, 0), "bits")
    transfers = last.get("atf.transfer_cut", {}).get("calls", 0)
    rejected = tracer.counts.get("atf.transfer_cut.rejected", 0)
    metrics["atf.transfer_cut.useful_ratio"] = (
        (transfers - rejected) / transfers if transfers else 0.0,
        "frac",
    )
    metrics["cli.import_s"] = (statistics.median(imp for imp, _, _ in starts), "s")
    metrics["cli.build_parser_s"] = (statistics.median(par for _, par, _ in starts), "s")
    plain = statistics.median(p.raw_wall for p in result["untraced"])
    with_spans = statistics.median(p.raw_wall for p in result["traced"])
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.traced_wall_s"] = (with_spans, "s")
    metrics["trace.overhead_frac"] = (with_spans / plain - 1, "frac")
    spans = sum(v["calls"] for v in last.values())
    metrics["trace.spans"] = (spans, "count")
    return metrics


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lenscalc" / "__init__.py").is_file():
        print(f"bench: no lenscalc sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    starts = cold_starts(2 if tiny else COLD_STARTS)
    workload = WORKLOADS[args.workload](args.seed, tiny=tiny)
    result = run(workload, args.seconds, bool(args.trace), started)
    passes = result["untraced"] + result["traced"]
    if args.trace:
        metrics = layer_metrics(result, starts)
        result["tracer"].write(str(OUT_DIR), args.workload)
    else:
        metrics = e2e_metrics(passes, starts)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": {"untraced": len(result["untraced"]), "traced": len(result["traced"])},
        "ops_per_pass": len(workload.inputs),
        "op_samples": attempted,
        "failed_frac": failed / attempted,
        "failures": passes[0].failures,
        "sizes": workload.sizes(),
        "raw": {
            "setup_s": statistics.median(imp + par for imp, par, _ in starts),
            "setup_probe_s": statistics.median(probe for _, _, probe in starts),
            "wall_s": statistics.median(p.raw_wall for p in result["untraced"]),
        },
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not any(p.wrong for p in passes),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
