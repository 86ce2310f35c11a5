"""Command-line interface.

Commands: `modes` (chain model report), `optimize` (full two-stage gate
design), `sweep` (batch runs over one variable), `stark` (shelved-qubit
phase budget), `evaluate` (re-score a stored result).  A single JSON config
file drives everything; flags win over the file.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path


from . import __version__
from .chain import (
    ChainModel,
    EquilibriumNotConverged,
    NonConfiningPotential,
    build_chain,
)
from .dynamics import PhaseSymmetryError, trajectory_blocks
# nothing here calls trajectory_samples; the name stays because perfbench's tracer wraps it
from .dynamics import trajectory_samples  # noqa: F401
from .fidelity import (
    PULSE_COUNTINGS,
    ThermalSpec,
    evaluate_train,
    evaluate_train_thermals,
    pulse_count_for,
)
from .jsonnumbers import json_integer, json_number
from .optimize import (
    NoCandidatesError,
    OptimizationResult,
    final_key,
    jitter_sensitivity,
    optimize_gate,
    refine_candidates,
    stage1,
)
from .runconfig import ConfigError, RunConfig, load_run_config_file, normalized_config_dict
from .sequence import BurstOverlap, GridResolutionError, KickTrain
from .stark import (
    gate_phase_budget,
    level_shift,
    load_atomic_data,
    qubit_phase_per_pulse,
    scenario_from_data,
    stark_shift,
)

NUMERICAL_ERRORS = (
    EquilibriumNotConverged,
    NonConfiningPotential,
    BurstOverlap,
    GridResolutionError,
    NoCandidatesError,
    PhaseSymmetryError,
)


def _provenance(config: RunConfig) -> dict:
    return {
        "schema_version": 2,
        "package": f"fastgate {__version__}",
        "seed": config.seed,
        "config": normalized_config_dict(config),
    }


def _write_json(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


@contextlib.contextmanager
def _csv_file(path: Path, provenance: dict, header: list):
    """An open CSV file with the provenance line and the header written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        csv.writer(handle).writerow(header)
        yield handle


def _write_csv(path: Path, provenance: dict, header: list, rows: list):
    with _csv_file(path, provenance, header) as handle:
        csv.writer(handle).writerows(rows)


def cmd_modes(config: RunConfig, out_dir: Path) -> int:
    chain = build_chain(config.trap)
    freqs_mhz = chain.mode_frequencies / (2.0 * math.pi * 1e6)
    print(f"ion chain: N = {chain.num_ions}, "
          f"axial frequency {config.trap.axial_freq / (2 * math.pi * 1e6):.4f} MHz")
    print("positions (um):", " ".join(f"{x * 1e6:.3f}" for x in chain.positions))
    print(" mode    freq (MHz)    Lamb-Dicke")
    for m, (f, eta) in enumerate(zip(freqs_mhz, chain.lamb_dicke)):
        print(f"  {m:3d}    {f:9.4f}    {eta:.5f}")
    data = {"provenance": _provenance(config)}
    data.update(chain.to_json_dict())
    _write_json(out_dir / "modes.json", data)
    print(f"wrote {out_dir / 'modes.json'}")
    return 0


def _result_document(config: RunConfig, chain: ChainModel, result: OptimizationResult) -> dict:
    document = result.to_json_dict(chain=chain)
    document["provenance"] = _provenance(config)
    return document


def _optimize_once(config: RunConfig, threads: int):
    stage1_config = config.stage1_config()  # checks the targets and nbar before any work
    chain = build_chain(config.trap)
    result = optimize_gate(chain, stage1_config, config.stage2, seed=config.seed, threads=threads)
    return chain, result


def _summary_lines(result: OptimizationResult) -> list:
    report = result.report
    lines = [
        f"gate targets          : {result.train.target_ions}",
        f"SDK count             : {report.sdk_count} ({report.pulse_count} pi pulses)",
        f"gate duration         : {result.gate_duration * 1e6:.4f} us "
        f"(designed {result.telemetry.get('design_gate_time_s', result.sequence.gate_time) * 1e6:.2f} us)",
        f"entangling phase      : {report.entangling_phase:+.6f} rad (target +-pi/4)",
        f"phase mismatch        : {report.phase_mismatch:+.3e} rad",
        f"motional infidelity   : {report.motional_infidelity:.3e}",
        f"ideal infidelity      : {report.ideal_infidelity:.3e}",
        f"pulse error epsilon   : {result.epsilon:.3g}",
        f"adjusted fidelity     : {result.adjusted_fidelity:.6f}",
        f"group sizes           : {list(result.sequence.group_sizes)}",
    ]
    return lines


def _write_trajectory_csv(path: Path, provenance: dict, train: KickTrain, chain: ChainModel):
    """trajectory.csv: the samples of the (1, 1) and (1, -1) basis states,
    written block by block as `trajectory_blocks` computes them, with the
    bytes csv.writer would write for `trajectory_samples` rows.

    Each block is written by one `%`: every sample time heads one row per
    mode and is formatted once.
    """
    header = ["time_s", "mode", "Q_m", "V_m", "s_mu", "s_nu"]
    modes = list(range(chain.num_ions))
    with _csv_file(path, provenance, header) as handle:
        for basis in ((1, 1), (1, -1)):
            row_format = ",%d,%.12e,%.12e," + "%d,%d\r\n" % basis
            for times, qs, vs in trajectory_blocks(train, chain, basis):
                values = [0] * (3 * qs.size)  # mode, Q, V of each row
                values[0::3] = modes * len(times)
                values[1::3] = qs.ravel().tolist()
                values[2::3] = vs.ravel().tolist()
                lines = "".join(("%.12e" % t + row_format) * len(modes) for t in times.tolist())
                handle.write(lines % tuple(values))


def cmd_optimize(config: RunConfig, out_dir: Path, threads: int) -> int:
    started = time.perf_counter()
    chain, result = _optimize_once(config, threads)
    _write_json(out_dir / "result.json", _result_document(config, chain, result))
    _write_trajectory_csv(out_dir / "trajectory.csv", _provenance(config), result.train, chain)
    summary = _summary_lines(result)
    (out_dir / "summary.txt").write_text(
        "\n".join(["# " + json.dumps(_provenance(config), sort_keys=True)] + summary) + "\n",
        encoding="utf-8",
    )
    for line in summary:
        print(line)
    print(f"wall time             : {time.perf_counter() - started:.1f} s")
    print(f"wrote {out_dir / 'result.json'}, trajectory.csv, summary.txt")
    return 0


SWEEP_HEADER = [
    "variable", "value", "ideal_infidelity", "motional_infidelity", "phase_mismatch",
    "sdk_count", "pulse_count", "adjusted_infidelity", "added_infidelity_mean",
    "added_infidelity_p95", "gate_duration_us", "design_gate_time_us", "seed",
]


def _sweep_row(variable, value, report, adjusted_inf, result, extra=None):
    return [
        variable, f"{value:.10g}", f"{report.ideal_infidelity:.12e}",
        f"{report.motional_infidelity:.12e}", f"{report.phase_mismatch:.12e}",
        report.sdk_count, report.pulse_count, f"{adjusted_inf:.12e}",
        "" if extra is None else f"{extra['mean_added']:.12e}",
        "" if extra is None else f"{extra['p95_added']:.12e}",
        f"{result.gate_duration * 1e6:.6f}",
        f"{result.telemetry.get('design_gate_time_s', 0.0) * 1e6:.6f}",
        result.seed,
    ]


def cmd_sweep(config: RunConfig, out_dir: Path, threads: int) -> int:
    if config.sweep_variable is None:
        raise ConfigError("sweep requires a sweep block in the config")
    variable = config.sweep_variable
    rows, skipped = [], []

    def skip(value, exc):
        print(f"numerical failure: {variable}={value:g} skipped: {exc}", file=sys.stderr)
        skipped.append(value)

    if variable == "num_ions":
        # every swept N is checked before the first run
        stage1_configs = [config.stage1_config(num_ions=n) for n in config.sweep_values]
        for n, stage1_config in zip(config.sweep_values, stage1_configs):
            try:
                chain = build_chain(replace(config.trap, num_ions=n))
                result = optimize_gate(
                    chain, stage1_config, config.stage2, seed=config.seed, threads=threads
                )
            except NUMERICAL_ERRORS as exc:
                skip(n, exc)
                continue
            rows.append(_sweep_row(variable, n, result.report,
                                   1.0 - result.adjusted_fidelity, result))
            print(f"num_ions={n}: ideal {result.report.ideal_infidelity:.3e}")
    elif variable == "repetition_rate":
        stage1_config = config.stage1_config()  # checks the targets and nbar before any work
        chain = build_chain(config.trap)
        candidates, _ = stage1(chain, stage1_config, seed=config.seed, threads=threads)
        for value in config.sweep_values:
            stage2_config = replace(config.stage2, repetition_rate=value * 1e6)
            try:
                results, _ = refine_candidates(
                    candidates, chain, stage1_config, stage2_config,
                    seed=config.seed, threads=threads,
                )
            except NUMERICAL_ERRORS as exc:
                skip(value, exc)
                continue
            best = min(results, key=final_key)
            rows.append(_sweep_row(variable, value, best.report,
                                   1.0 - best.adjusted_fidelity, best))
            print(f"repetition_rate={value:g} MHz: ideal {best.report.ideal_infidelity:.3e}")
    else:
        chain, result = _optimize_once(config, threads)
        report = result.report
        if variable == "epsilon":
            for value in config.sweep_values:
                adjusted_inf = report.adjusted_infidelity(value)
                rows.append(_sweep_row(variable, value, report, adjusted_inf, result))
                print(f"epsilon={value:g}: 1-F {adjusted_inf:.3e}")
        elif variable == "temperature":
            thermals = [ThermalSpec(nbar=None, temperature=value) for value in config.sweep_values]
            hot_reports = evaluate_train_thermals(
                result.train, chain, thermals, counting=config.stage1.pulse_counting
            )
            for value, hot in zip(config.sweep_values, hot_reports):
                rows.append(_sweep_row(variable, value, hot,
                                       hot.adjusted_infidelity(result.epsilon), result))
                print(f"temperature={value:g} K: motional {hot.motional_infidelity:.3e}")
        elif variable == "jitter":
            for value in config.sweep_values:
                stats = jitter_sensitivity(
                    result, chain, value, samples=config.jitter_samples, seed=config.seed
                )
                rows.append(_sweep_row(variable, value, report,
                                       1.0 - result.adjusted_fidelity, result, extra=stats))
                print(f"jitter={value:g}: added mean {stats['mean_added']:.3e}")
    _write_csv(out_dir / "sweep.csv", _provenance(config), SWEEP_HEADER, rows)
    print(f"wrote {out_dir / 'sweep.csv'}")
    return 3 if skipped else 0


def cmd_stark(config: RunConfig, out_dir: Path, args) -> int:
    if args.pairs < 0:
        raise ConfigError("--pairs must be non-negative")
    if not 0.0 < args.rabi_rate < math.inf:
        raise ConfigError("--rabi-rate must be positive and finite")
    try:
        data = load_atomic_data(args.atomic_data)
        scenario = scenario_from_data(data, args.rabi_rate)
        # a route resonant with the drive is a ValueError too
        per_pulse = qubit_phase_per_pulse(scenario)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad atomic data file: {exc}") from exc
    budget = gate_phase_budget(per_pulse, args.pairs)
    print(f"drive: {data['drive']['label']} at {data['drive']['wavelength_nm']} nm, "
          f"Omega = {args.rabi_rate:.4g} s^-1, tau_pi = {scenario.pi_time * 1e12:.3f} ps")
    print(" level        route                shift (s^-1)")
    levels = []
    for level in scenario.shelf_levels:
        total = level_shift(level, scenario)
        for route in level.routes:
            print(f"  {level.label:10s} {route.label:20s} {stark_shift(route, scenario):+.4e}")
        print(f"  {level.label:10s} {'total':20s} {total:+.4e}")
        levels.append({"level": level.label, "shift_s": total})
    print(f"phase per pulse       : {per_pulse:+.4e} rad")
    print(f"budget for {args.pairs} pairs  : {budget:+.4e} rad")
    _write_json(out_dir / "stark.json", {
        "provenance": _provenance(config),
        "rabi_rate_s": args.rabi_rate,
        "pi_time_s": scenario.pi_time,
        "levels": levels,
        "phase_per_pulse_rad": per_pulse,
        "pulse_pairs": args.pairs,
        "gate_phase_budget_rad": budget,
    })
    print(f"wrote {out_dir / 'stark.json'}")
    return 0


def _read_result_document(path: str):
    """The chain, train, thermal spec, stored figures, epsilon and pulse
    counting of a result.json."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        chain = ChainModel.from_json_dict(document["chain"])
        train = KickTrain.from_json_dict(document["train"])
        thermal = ThermalSpec.from_json_dict(document["thermal"])
        stored = {key: json_number(document["report_ideal"][key], f"report_ideal.{key}")
                  for key in ("ideal_inf", "motional_inf", "dphi")}
        stored["pulses"] = json_integer(document["report_ideal"]["pulses"], "report_ideal.pulses")
        stored["adjusted_fidelity"] = json_number(document["adjusted_fidelity"],
                                                  "adjusted_fidelity")
        epsilon = json_number(document["epsilon"], "epsilon")
        if not 0.0 <= epsilon < math.inf:
            raise ValueError(f"epsilon {epsilon!r} is not a non-negative finite number")
        counting = document["provenance"]["config"]["stage1"]["pulse_counting"]
        if counting not in PULSE_COUNTINGS:
            raise ValueError(f"unknown pulse counting {counting!r}")
        pulses = pulse_count_for(train.num_kicks, counting)
        if pulses * epsilon >= 1.0:  # Stage1Config's rule: past it F grows with N_p
            raise ValueError(f"epsilon {epsilon:g} times the {pulses} pulses of the train "
                             "must be below 1")
        targets = train.target_ions
        if not (len(set(targets)) == len(targets) == 2
                and all(0 <= ion < chain.num_ions for ion in targets)):
            raise ValueError(f"train targets {list(targets)} are not two ions of the "
                             f"{chain.num_ions}-ion chain")
        thermal.occupations(chain.mode_frequencies)  # a per-mode nbar list must fit the chain
    except KeyError as exc:
        raise ConfigError(f"stored result {path} lacks key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot read stored result {path}: {exc}") from exc
    return chain, train, thermal, stored, epsilon, counting


def cmd_evaluate(args, out_dir: Path) -> int:
    chain, train, thermal, stored, epsilon, counting = _read_result_document(args.result)
    report = evaluate_train(train, chain, thermal, counting=counting)
    adjusted = report.adjusted_fidelity(epsilon)
    fields = [
        ("ideal_inf", stored["ideal_inf"], report.ideal_infidelity),
        ("motional_inf", stored["motional_inf"], report.motional_infidelity),
        ("dphi", stored["dphi"], report.phase_mismatch),
        ("pulses", stored["pulses"], report.pulse_count),
        ("adjusted_fid", stored["adjusted_fidelity"], adjusted),
    ]
    worst = 0.0
    for name, was, now in fields:
        drift = abs(now - was) / max(abs(was), 1e-300)
        # a non-finite stored or re-evaluated figure reproduces nothing
        worst = max(worst, drift if math.isfinite(drift) else math.inf)
        print(f"{name:14s} stored {was:+.12e}   re-evaluated {now:+.12e}")
    print(f"adjusted fidelity at eps={epsilon:g} ({counting}): {adjusted:.9f}")
    if worst > 1e-12:
        print(f"MISMATCH: stored report drifts by {worst:.3e} (> 1e-12 relative)")
        return 3
    print("stored report reproduced to 1e-12 relative")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastgate",
        description="Design and evaluate pulsed entangling gates in long ion chains.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("modes", help="build the chain model and print the mode table")
    sub.add_parser("optimize", help="run the two-stage gate optimisation")
    sub.add_parser("sweep", help="run the sweep described in the config")
    stark_parser = sub.add_parser("stark", help="shelved-qubit Stark phase budget")
    stark_parser.add_argument("--atomic-data", metavar="PATH", default=None,
                              help="transition data JSON (default: shipped Ca-40 file)")
    stark_parser.add_argument("--rabi-rate", type=float, default=3.0e11,
                              help="drive Rabi frequency, angular s^-1 (default 3e11)")
    stark_parser.add_argument("--pairs", type=int, default=30,
                              help="counter-propagating pulse pairs in the budget")
    evaluate_parser = sub.add_parser("evaluate", help="re-score a stored result.json")
    evaluate_parser.add_argument("result", help="path to a stored result.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be a positive integer")
        if args.command == "evaluate":
            return cmd_evaluate(args, out_dir)
        config = load_run_config_file(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a non-negative integer")
            config = replace(config, seed=args.seed)
        if args.command == "modes":
            return cmd_modes(config, out_dir)
        if args.command == "optimize":
            return cmd_optimize(config, out_dir, args.threads)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, args.threads)
        if args.command == "stark":
            return cmd_stark(config, out_dir, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
