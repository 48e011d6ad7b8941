"""Benchmark of cardcsp: relax -> solve -> condition -> round -> repair, and
the worst-case certificates.

    python3 perfbench/run.py --workload suite-l2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  BLAS is pinned to one thread before numpy loads.  The run sets up
its inputs from the seed several times, to time set-up, then repeats whole
rounds of the workload's operations until the next round would end past
``--seconds``, checking every output.  Times are reported in reference
seconds (see ``speed.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1`` the
first half of the time runs untraced and the second half traced, the metrics
are the per-layer ones, and the spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ratio_mean": "1"}

PER_LAYER = {
    "lasserre.build_s": "s",
    "lasserre.feasibility_s": "s",
    "lasserre.dim": "count",
    "lasserre.rows": "count",
    "sdp_solver.solve_s": "s",
    "sdp_solver.iterations": "count",
    "sdp_solver.psd_ms_per_iter": "ms",
    "sdp_solver.psd_s": "s",
    "sdp_solver.setup_s": "s",
    "sdp_solver.other_ms_per_iter": "ms",
    "sdp_solver.nonoptimal": "count",
    "independence.decorrelate_s": "s",
    "independence.conditioning_steps": "count",
    "independence.alpha_independence_calls": "count",
    "independence.achieved_alpha_mean": "bit",
    "rounding.pipeline_s": "s",
    "rounding.bias_decompose_s": "s",
    "rounding.round_s": "s",
    "rounding.repair_s": "s",
    "rounding.repair_moves": "count",
    "landscape.ratio_search_cut_s": "s",
    "landscape.ratio_search_max2sat_s": "s",
    "landscape.sqrt_eps_s": "s",
    "landscape.grid_cells_per_s": "1/s",
    "dictator.build_gadget_s": "s",
    "dictator.soundness_s": "s",
    "dictator.functions_enumerated": "count",
    "oracle.brute_force_s": "s",
    "instance.generate_s": "s",
    "lasserre.self_s": "s",
    "sdp_solver.self_s": "s",
    "independence.self_s": "s",
    "rounding.self_s": "s",
    "landscape.self_s": "s",
    "dictator.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.self_share": "1",
    "trace.spans": "count",
    "speed.scale": "1",
}

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS to one thread, then import cardcsp from this checkout's
    sources and nothing else."""
    for var in BLAS_THREAD_VARIABLES:
        os.environ[var] = "1"
    if not (SRC / "cardcsp" / "__init__.py").is_file():
        sys.exit(f"run.py: no cardcsp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cardcsp
    if Path(cardcsp.__file__).resolve().parent != SRC / "cardcsp":
        sys.exit(f"run.py: cardcsp imported from {cardcsp.__file__}, not {SRC}")


def startup_seconds():
    """Wall time of a fresh interpreter that imports cardcsp, as a command
    line user pays it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import cardcsp"],
                   check=True)
    return time.perf_counter() - t0


class Rounds:
    """Whole rounds of ops and their check results.  ``times`` holds, per
    op, (raw seconds, speed sample just before, speed sample just after)."""

    def __init__(self, speed):
        self.speed = speed
        self.times = {}
        self.solver_setup_times = []    # raw seconds
        self.ratios = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []      # why ops failed
        self.wrong = []         # checks that outputs failed

    def run(self, ops, seconds, tracer=None):
        from checks import CheckFailed
        from workloads import OpFailed, run_op

        start = time.perf_counter()
        round_times = []
        while True:
            began = time.perf_counter()
            for op in ops:
                # a fixed starting heap, so the peak memory does not depend
                # on when the cyclic collector last ran
                gc.collect()
                before = self.speed.sample()
                self.attempted += 1
                if tracer is not None:
                    tracer.paused = False
                t0 = time.perf_counter()
                try:
                    out = run_op(op)
                except OpFailed as exc:
                    self.failed += 1
                    self.problems.append(str(exc))
                    continue
                finally:
                    if tracer is not None:
                        tracer.paused = True
                elapsed = time.perf_counter() - t0
                self.times.setdefault(op.name, []).append(
                    (elapsed, before, self.speed.sample()))
                try:
                    ratio = op.check(out)
                except OpFailed as exc:
                    self.failed += 1
                    self.problems.append(str(exc))
                    continue
                except CheckFailed as exc:
                    self.wrong.append(str(exc))
                    continue
                if ratio is not None:
                    self.ratios.append(ratio)
                if tracer is not None and op.solver_setup is not None:
                    t0 = time.perf_counter()
                    op.solver_setup()
                    self.solver_setup_times.append(time.perf_counter() - t0)
            self.rounds += 1
            round_times.append(time.perf_counter() - began)
            if (time.perf_counter() - start + statistics.median(round_times)
                    > seconds):
                return

    def wall(self):
        """One round's time in reference seconds: the sum over ops of each
        op's median time, every time scaled by its own speed samples."""
        return sum(statistics.median(self.speed.reference(*sample)
                                     for sample in samples)
                   for samples in self.times.values())

    def raw_wall(self):
        """One round's time in raw seconds, by per-op medians."""
        return sum(statistics.median(sample[0] for sample in samples)
                   for samples in self.times.values())


def _spans_named(spans, name, kind=None):
    return [s for s in spans if s[0] == name
            and (kind is None or (s[4] or {}).get("kind") == kind)]


def _note_sum(spans, key):
    return sum((s[4] or {}).get(key, 0) for s in spans)


def per_layer_metrics(tracer, first_round_span, setups, traced, untraced, scale):
    """Per-round layer figures from the spans of the traced rounds (and, for
    the set-up layers, of the traced set-ups).  Span times are converted to
    reference seconds with the run's speed ``scale``, so that they add up.
    The round times, and so the tracing overhead, are scaled op by op, like
    ``wall_s``; ``trace.self_share`` compares raw times."""
    from spans import self_times

    all_spans = tracer.spans
    own = self_times(all_spans)
    setup_spans = all_spans[:first_round_span]
    rounds_spans = all_spans[first_round_span:]
    per = 1.0 / traced.rounds

    def seconds(spans):
        return sum(s[2] - s[1] for s in spans) / 1e9 * scale

    def round_s(name, kind=None):
        return seconds(_spans_named(rounds_spans, name, kind)) * per

    def setup_s(name):
        return seconds(_spans_named(setup_spans, name)) / setups

    def per_iteration_ms(total):
        return 1e3 * total / iterations if iterations else 0.0

    solves = _spans_named(rounds_spans, "sdp_solver.solve")
    iterations = _note_sum(solves, "iterations")
    solve_total = seconds(solves)
    psd_total = seconds(_spans_named(rounds_spans, "sdp_solver.project_psd"))
    setup_total = sum(traced.solver_setup_times) * scale
    decorrelations = _spans_named(rounds_spans, "independence.decorrelate")
    grids = _spans_named(rounds_spans, "landscape.bvn_cdf_grid")
    grid_seconds = seconds(grids)
    self_by_layer = {}
    for s, t in zip(rounds_spans, own[first_round_span:]):
        layer = s[0].split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + t * scale * per
    self_sum = sum(self_by_layer.values())
    traced_wall = traced.wall()
    untraced_wall = untraced.wall()
    traced_raw = traced.raw_wall()

    values = {
        "lasserre.build_s": round_s("lasserre.build_relaxation"),
        "lasserre.feasibility_s": round_s("lasserre.check_feasibility"),
        "lasserre.dim": _note_sum(rounds_spans, "dim") * per,
        "lasserre.rows": _note_sum(rounds_spans, "rows") * per,
        "sdp_solver.solve_s": solve_total * per,
        "sdp_solver.iterations": iterations * per,
        "sdp_solver.psd_ms_per_iter": per_iteration_ms(psd_total),
        "sdp_solver.psd_s": psd_total * per,
        "sdp_solver.setup_s": setup_total * per,
        "sdp_solver.other_ms_per_iter":
            per_iteration_ms(solve_total - setup_total - psd_total),
        "sdp_solver.nonoptimal":
            sum(1 for s in solves if s[4]["status"] != "optimal") * per,
        "independence.decorrelate_s": seconds(decorrelations) * per,
        "independence.conditioning_steps": _note_sum(decorrelations, "steps") * per,
        "independence.alpha_independence_calls":
            len(_spans_named(rounds_spans, "independence.alpha_independence")) * per,
        "independence.achieved_alpha_mean":
            (statistics.fmean(s[4]["achieved_alpha"] for s in decorrelations)
             if decorrelations else 0.0),
        "rounding.pipeline_s": round_s("rounding.pipeline"),
        "rounding.bias_decompose_s": round_s("rounding.bias_decompose"),
        "rounding.round_s": round_s("rounding.round_profile"),
        "rounding.repair_s": round_s("rounding.repair_balance"),
        "rounding.repair_moves": _note_sum(rounds_spans, "moves") * per,
        "landscape.ratio_search_cut_s": round_s("landscape.ratio_search", "cut"),
        "landscape.ratio_search_max2sat_s": round_s("landscape.ratio_search", "max2sat"),
        "landscape.sqrt_eps_s": round_s("landscape.sqrt_eps_curve"),
        "landscape.grid_cells_per_s": (_note_sum(grids, "cells") / grid_seconds
                                       if grid_seconds else 0.0),
        "dictator.build_gadget_s": round_s("dictator.build_gadget"),
        "dictator.soundness_s": round_s("dictator.soundness_enumerate"),
        "dictator.functions_enumerated": _note_sum(rounds_spans, "functions") * per,
        "oracle.brute_force_s": setup_s("oracle.brute_force"),
        "instance.generate_s": setup_s("instance.generate"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": self_sum,
        "trace.self_share": self_sum / scale / traced_raw if traced_raw else 0.0,
        "trace.spans": len(rounds_spans) * per,
        "speed.scale": scale,
    }
    for layer in ("lasserre", "sdp_solver", "independence", "rounding",
                  "landscape", "dictator"):
        values[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    prepare()
    import spans
    import workloads
    from speed import SpeedProbe

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer("cardcsp") if args.trace else None

    # set-up: interpreter start-up and import, then inputs and references
    speed = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        startup = startup_seconds()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        ops = setup(args.seed)
        elapsed = startup + time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        setup_times.append(speed.reference(elapsed, before, speed.sample()))

    untraced = Rounds(speed)
    if tracer is None:
        untraced.run(ops, args.seconds)
        runs = [untraced]
        metrics = {
            "wall_s": untraced.wall(),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ratio_mean": statistics.fmean(untraced.ratios) if untraced.ratios else 0.0,
        }
        units = END_TO_END
    else:
        untraced.run(ops, args.seconds / 2)
        first_round_span = len(tracer.spans)
        traced = Rounds(speed)
        tracer.install()
        try:
            traced.run(ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        metrics = per_layer_metrics(tracer, first_round_span, SETUP_REPEATS,
                                    traced, untraced, speed.scale())
        units = PER_LAYER
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")

    for problem in sorted({p for r in runs for p in r.problems}):
        print(f"failed: {problem}", file=sys.stderr)
    for problem in sorted({p for r in runs for p in r.wrong}):
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
