"""fastgate benchmark: gate design time and quality, stage 1, trajectory analysis.

Usage, from the repository root:

    python3 perfbench/run.py --workload gate-n5-middle --seed 1 --seconds 20 --trace 0

Workloads: gate-n5-middle, gate-n100-edge, stage1-scan, train-analysis (see
perfbench/README.md).  With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics, whose times are normalised to a reference
machine speed (speed.py); with --trace 1 the run alternates untraced and
traced rounds, reports the per-layer metrics in raw seconds, and writes its
spans to .perfbench/trace-<workload>-<seed>.json.  BLAS runs single-threaded
and the program runs in this one process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

START = time.perf_counter()

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up samples per run: this process plus fresh interpreters, because the
# imports can only be timed once per process.
SETUP_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_in_fresh_interpreter(args) -> float:
    """Seconds from start to the end of set-up in a new interpreter."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout.strip().splitlines()[-1])


def import_program():
    """Put the checkout's source tree first on the path and import it."""
    source = ROOT / "src"
    if not (source / "fastgate" / "__init__.py").is_file():
        sys.exit(f"benchmark: no fastgate source tree under {source}")
    sys.path.insert(0, str(source))
    import scipy.optimize  # noqa: F401  -- loaded lazily by stage 2 otherwise
    import workloads

    return workloads


def install_tracer(tracer):
    import scipy.optimize
    from fastgate import chain, cli, dynamics, fidelity, optimize, sequence

    for module, attribute, name in (
        (cli, "main", "cli.main"),
        (cli, "build_chain", "chain.build_chain"),
        (chain, "build_chain", "chain.build_chain"),
        (cli, "optimize_gate", "optimize.optimize_gate"),
        (cli, "trajectory_samples", "dynamics.trajectory_samples"),
        (dynamics, "trajectory_samples", "dynamics.trajectory_samples"),
        (optimize, "stage1", "optimize.stage1"),
        (optimize, "stage2", "optimize.stage2"),
        (scipy.optimize, "least_squares", "optimize.least_squares"),
        (optimize, "evaluate_train", "fidelity.evaluate_train"),
        (fidelity, "evaluate_train", "fidelity.evaluate_train"),
        (fidelity, "propagate", "dynamics.propagate"),
        (optimize, "expand_groups", "sequence.expand_groups"),
        (sequence, "expand_groups", "sequence.expand_groups"),
        (optimize, "jitter_sensitivity", "optimize.jitter_sensitivity"),
    ):
        tracer.wrap(module, attribute, name)


def per_layer(setup_stats, round_stats, round_result, output_s, overhead_s, wall_s, kernel_s):
    """Per-layer metrics over one set-up plus one traced round, in raw wall
    seconds, plus the untraced rounds' raw time and the machine-speed kernel."""
    def total(name, key):
        return sum(stats[name][key] for stats in (setup_stats, round_stats) if name in stats)

    ls_calls = total("optimize.least_squares", "calls")
    ls_s = total("optimize.least_squares", "s")
    extra = round_result.extra
    values = {
        "optimize.least_squares.calls": (ls_calls, "count"),
        "optimize.least_squares.s": (ls_s, "s"),
        "optimize.least_squares.ms_per_call": (1e3 * ls_s / ls_calls if ls_calls else 0.0, "ms"),
        "optimize.stage2.calls": (total("optimize.stage2", "calls"), "count"),
        "optimize.stage2.failed": (total("optimize.stage2", "failed"), "count"),
        "optimize.stage2.s": (total("optimize.stage2", "s"), "s"),
        "optimize.stage2.evaluations": (extra["stage2_evaluations"], "count"),
        "optimize.stage2.self_s": (total("optimize.stage2", "self_s"), "s"),
        "optimize.stage1.s": (total("optimize.stage1", "s"), "s"),
        "optimize.stage1.evaluations": (extra["stage1_evaluations"], "count"),
        "optimize.stage1.candidates": (extra["stage1_candidates"], "count"),
        "optimize.sdk_count": (extra["sdk_count"], "count"),
        "chain.build_chain.calls": (total("chain.build_chain", "calls"), "count"),
        "chain.build_chain.s": (total("chain.build_chain", "s"), "s"),
        "dynamics.propagate.calls": (total("dynamics.propagate", "calls"), "count"),
        "dynamics.propagate.s": (total("dynamics.propagate", "s"), "s"),
        "fidelity.evaluate_train.calls": (total("fidelity.evaluate_train", "calls"), "count"),
        "fidelity.evaluate_train.s": (total("fidelity.evaluate_train", "s"), "s"),
        "sequence.expand_groups.calls": (total("sequence.expand_groups", "calls"), "count"),
        "sequence.expand_groups.s": (total("sequence.expand_groups", "s"), "s"),
        "optimize.jitter_sensitivity.s": (total("optimize.jitter_sensitivity", "s"), "s"),
        "cli.output_s": (output_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "wall.time_to_result_s": (wall_s, "s"),
        "speed.kernel_ms": (1e3 * kernel_s, "ms"),
    }
    return values


def wall(intervals):
    return sum(end - begin for begin, end in intervals)


def main(argv=None):
    meter = SpeedMeter()
    meter.start()
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer)
        state = workload.setup(args.seed, out_dir)
        setup_stats = tracer.summary()
        tracer.unwrap_all()
    else:
        state = workload.setup(args.seed, out_dir)
        own = meter.normalised([(START, time.perf_counter())])
        if args.setup_only:
            meter.stop()
            print(own)
            return 0
        samples = [own] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(samples)

    rounds, traced_rounds = [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        result = workload.run_round(state)
        rounds.append(result)
        if tracer is not None:
            install_tracer(tracer)
            mark = len(tracer.spans)
            traced = workload.run_round(state)
            tracer.unwrap_all()
            stats = tracer.summary(since=mark)
            # The optimize command's own output work: all of cli.main except
            # the chain build and the optimisation it calls.
            output_s = stats["cli.main"]["s"] - tracer.time_inside(
                "cli.main", ("chain.build_chain", "optimize.optimize_gate"), since=mark
            ) if "cli.main" in stats else 0.0
            traced_rounds.append((traced, stats, output_s))
        # Whole rounds only: stop before a round that would overrun --seconds.
        now = time.perf_counter()
        if now - started + (now - round_started) > args.seconds:
            break
    meter.stop()

    checked = rounds + [traced for traced, _, _ in traced_rounds]
    problems = [line for r in checked for line in r.problems]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    for line in problems[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "time_to_result_s": (
                statistics.median(meter.normalised(r.intervals) for r in rounds), "s"),
            "ideal_infidelity": (statistics.median(r.ideal_infidelity for r in rounds), "1"),
            "adjusted_infidelity": (statistics.median(r.adjusted_infidelity for r in rounds), "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        plain_s = statistics.median(wall(r.intervals) for r in rounds)
        overhead = (statistics.median(meter.normalised(t.intervals) for t, _, _ in traced_rounds)
                    - statistics.median(meter.normalised(r.intervals) for r in rounds))
        traced, stats, output_s = sorted(
            traced_rounds, key=lambda item: wall(item[0].intervals))[len(traced_rounds) // 2]
        metrics = per_layer(setup_stats, stats, traced, output_s, overhead, plain_s,
                            meter.mean_kernel_s())
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
