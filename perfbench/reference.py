"""Full-size reference figures, one traced pass per operation.

    python3 perfbench/reference.py suite-l2 [--seed 0]

Runs the workload once on the full-size inputs the timed runs leave out
(``workloads.FULL_SIZE``): every bundled suite instance but planted12_e10,
the cycle, planted and gnp level-3 instances at n = 6, and the ratio searches
at resolution 200.  Prints, per operation, its checked ratio and the layer
figures of its spans in raw seconds.  suite-l2 takes about two minutes on one
core, level3-n6 and certificates under a minute each.
"""

import argparse

import run

FIGURES = ("lasserre.dim", "lasserre.rows", "lasserre.build_s",
           "lasserre.feasibility_s", "sdp_solver.solve_s",
           "sdp_solver.iterations", "sdp_solver.psd_ms_per_iter",
           "sdp_solver.other_ms_per_iter", "sdp_solver.setup_s",
           "independence.conditioning_steps", "rounding.pipeline_s",
           "landscape.ratio_search_cut_s", "landscape.ratio_search_max2sat_s",
           "landscape.sqrt_eps_s", "dictator.soundness_s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run.prepare()
    import spans
    import workloads
    from speed import SpeedProbe

    ops = workloads.WORKLOADS[args.workload](
        args.seed, **workloads.FULL_SIZE[args.workload])
    tracer = spans.Tracer("cardcsp")
    tracer.install()
    for op in ops:
        mark = len(tracer.spans)
        rounds = run.Rounds(SpeedProbe())
        rounds.run([op], 0, tracer)      # exactly one round
        values = run.per_layer_metrics(tracer, mark, 1, rounds, rounds, 1.0)
        shown = ", ".join(f"{k} {values[k]:.4g}" for k in FIGURES if values[k])
        ratio = f"ratio {rounds.ratios[0]:.5f}, " if rounds.ratios else ""
        status = "; ".join(rounds.problems + rounds.wrong) or "checks pass"
        print(f"{op.name}: {status}; {ratio}{shown}", flush=True)
    tracer.uninstall()


if __name__ == "__main__":
    main()
