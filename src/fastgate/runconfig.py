"""Run configuration: a single JSON document in user units.

Frequencies arrive in MHz, times in microseconds, wavelengths in nm and
masses in amu; everything is validated and normalised to SI here, before
any physics sees it.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .chain import TrapConfig
from .constants import CONSTANTS
from .fidelity import ThermalSpec
from .jsonnumbers import json_float
from .optimize import EXHAUSTIVE_LIMIT, Stage1Config, Stage2Config


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


SWEEP_VARIABLES = ("num_ions", "repetition_rate", "epsilon", "temperature", "jitter")
# The most entries of a {start, stop, step} scan or a sweep; the largest restarts,
# z_bound_max and sweep samples
ENTRY_LIMIT = 10_000
# The most grid slots a gate time may span.  Float kick times resolve the
# grid only to a few ulps, so `KickTrain` allows eight ulps of the latest kick
# time off the grid where that exceeds 1e-6 periods, and rejects a train whose
# eight ulps pass 2**-13 of a period; below this limit they stay under it.
SLOT_LIMIT = 2**36


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get_number(block: dict, key: str, where: str, default=None, positive=False):
    value = block.get(key, default)
    return None if value is None else _number(value, f"{where}.{key}", positive)


def _number(value, name: str, positive=False) -> float:
    """`value` as a float; a JSON boolean, string, non-finite value or
    integer past the float range is not a number."""
    number = json_float(value)
    if number is None or not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number")
    if positive and not number > 0:
        raise ConfigError(f"{name} must be positive")
    return number


def _get_int(block: dict, key: str, name: str, default=None, least=None, most=None):
    """The integer at `key`, within [least, most] where given, or `default`
    when the key is absent; a JSON boolean or null is not an integer."""
    if key not in block:
        return default
    value = block[key]
    if not isinstance(value, int) or isinstance(value, bool) or (
        least is not None and value < least
    ):
        kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        raise ConfigError(f"{name} must be {kind.get(least, f'an integer of at least {least}')}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be at most {most}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated, SI-normalised run description."""

    trap: TrapConfig
    stage1: Stage1Config       # targets: (mu, nu) pair or "edge" / "middle"
    stage2: Stage2Config
    sweep_variable: str | None
    sweep_values: tuple
    jitter_samples: int
    seed: int

    def resolved_targets(self, num_ions: int | None = None) -> tuple:
        n = num_ions if num_ions is not None else self.trap.num_ions
        if self.stage1.targets == "edge":
            pair = (0, 1)
        elif self.stage1.targets == "middle":
            lo = max(0, (n - 1) // 2)
            pair = (lo, lo + 1)
        else:
            pair = tuple(self.stage1.targets)
        if not (0 <= pair[0] < n and 0 <= pair[1] < n):
            raise ConfigError(f"target ions {pair} out of range for {n} ions")
        return pair

    def stage1_config(self, num_ions: int | None = None) -> Stage1Config:
        """`stage1` with its targets resolved for `num_ions` ions; a per-mode
        nbar list must have one entry per mode."""
        n = num_ions if num_ions is not None else self.trap.num_ions
        nbar = self.stage1.thermal.nbar
        if isinstance(nbar, tuple) and len(nbar) not in (1, n):
            raise ConfigError(f"thermal.nbar has {len(nbar)} entries for {n} modes")
        return replace(self.stage1, targets=self.resolved_targets(n))


def _parse_trap(block: dict) -> TrapConfig:
    _check_keys(
        block,
        {"num_ions", "radial_freq_mhz", "axial_freq_mhz", "mass_amu",
         "wavelength_nm", "quartic_j_per_m4"},
        "trap",
    )
    kwargs = {"num_ions": _get_int(block, "num_ions", "trap.num_ions", default=5, least=1)}
    radial = _get_number(block, "radial_freq_mhz", "trap", default=5.0, positive=True)
    kwargs["radial_frequency"] = 2.0 * math.pi * radial * 1e6
    axial = _get_number(block, "axial_freq_mhz", "trap", positive=True)
    if axial is not None:
        kwargs["axial_frequency_override"] = 2.0 * math.pi * axial * 1e6
    mass = _get_number(block, "mass_amu", "trap", positive=True)
    if mass is not None:
        kwargs["ion_mass"] = mass * CONSTANTS.atomic_mass_unit
    wavelength = _get_number(block, "wavelength_nm", "trap", positive=True)
    if wavelength is not None:
        kwargs["laser_wavelength"] = wavelength * 1e-9
    quartic = _get_number(block, "quartic_j_per_m4", "trap")
    if quartic is not None:
        kwargs["quartic_coefficient"] = quartic
    try:
        return TrapConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_thermal(block: dict) -> ThermalSpec:
    _check_keys(block, {"nbar", "temperature_k"}, "thermal")
    if "nbar" in block and "temperature_k" in block:
        raise ConfigError("thermal: give either nbar or temperature_k, not both")
    nbar = block.get("nbar", 0.1)
    if "temperature_k" in block:
        spec = {"nbar": None, "temperature": _get_number(block, "temperature_k", "thermal")}
    elif isinstance(nbar, list):
        spec = {"nbar": tuple(_number(v, "thermal.nbar entry") for v in nbar)}
    else:
        spec = {"nbar": _number(nbar, "thermal.nbar")}
    try:
        return ThermalSpec(**spec)
    except ValueError as exc:
        raise ConfigError(f"thermal: {exc}") from exc


def _parse_targets(value):
    if value in ("edge", "middle"):
        return value
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in value)
    ):
        raise ConfigError('stage1.targets must be "edge", "middle", or a pair of ion indices')
    if abs(value[0] - value[1]) != 1:
        raise ConfigError(f"stage1.targets {list(value)} is not a neighbouring pair of ions")
    return (value[0], value[1])


def _parse_stage1(block: dict, thermal: ThermalSpec) -> Stage1Config:
    _check_keys(
        block,
        {"targets", "group_count", "gate_time_scan_us", "z_bound_max", "epsilon",
         "top_k", "restarts", "max_sdks", "pulse_counting"},
        "stage1",
    )
    kwargs: dict = {"thermal": thermal, "targets": _parse_targets(block.get("targets", "middle"))}
    scan = block.get("gate_time_scan_us")
    if scan is not None:
        if isinstance(scan, dict):
            _check_keys(scan, {"start", "stop", "step"}, "stage1.gate_time_scan_us")
            start = _get_number(scan, "start", "scan", positive=True)
            stop = _get_number(scan, "stop", "scan", positive=True)
            step = _get_number(scan, "step", "scan", positive=True)
            if None in (start, stop, step) or stop < start:
                raise ConfigError("stage1.gate_time_scan_us needs start <= stop and a step")
            span = (stop - start) / step  # infinite when the step is tiny against the range
            if span >= ENTRY_LIMIT:
                raise ConfigError(f"stage1.gate_time_scan_us has more than {ENTRY_LIMIT} entries")
            count = int(round(span)) + 1
            values = [start + k * step for k in range(count) if start + k * step <= stop + 1e-12]
        elif isinstance(scan, list) and scan:
            values = [_number(v, "stage1.gate_time_scan_us entry", positive=True) for v in scan]
        else:
            raise ConfigError("stage1.gate_time_scan_us must be a list or {start, stop, step}")
        kwargs["gate_time_scan"] = tuple(v * 1e-6 for v in values)
    for key in ("epsilon",):
        if key in block:
            kwargs[key] = _get_number(block, key, "stage1")
    for key, least, most in (("group_count", 1, None), ("top_k", 1, None),
                             ("restarts", 0, ENTRY_LIMIT), ("max_sdks", 2, None),
                             ("z_bound_max", 1, ENTRY_LIMIT)):
        if key in block:
            kwargs[key] = _get_int(block, key, f"stage1.{key}", least=least, most=most)
    if "pulse_counting" in block:
        kwargs["pulse_counting"] = block["pulse_counting"]
    try:
        return Stage1Config(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"stage1: {exc}") from exc


def _parse_stage2(block: dict) -> Stage2Config:
    _check_keys(
        block, {"repetition_rate_mhz", "timing_variation", "local_restarts"}, "stage2"
    )
    kwargs = {}
    rate = _get_number(block, "repetition_rate_mhz", "stage2", positive=True)
    if rate is not None:
        kwargs["repetition_rate"] = rate * 1e6
    variation = _get_number(block, "timing_variation", "stage2")
    if variation is not None:
        kwargs["timing_variation"] = variation
    if "local_restarts" in block:
        kwargs["local_restarts"] = _get_int(block, "local_restarts", "stage2.local_restarts",
                                            least=0)
    try:
        return Stage2Config(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_sweep(block: dict):
    _check_keys(block, {"variable", "values", "start", "stop", "steps", "samples"}, "sweep")
    variable = block.get("variable")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep.variable must be one of {', '.join(SWEEP_VARIABLES)}; got {variable!r}"
        )
    samples = _get_int(block, "samples", "sweep.samples", default=100, least=1,
                       most=ENTRY_LIMIT)
    if "values" in block:
        values = block["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        values = [json_float(v) for v in values]
        if None in values:
            raise ConfigError("sweep.values must be numbers")
    else:
        start = _get_number(block, "start", "sweep")
        stop = _get_number(block, "stop", "sweep")
        steps = _get_int(block, "steps", "sweep.steps")
        if start is None or stop is None or steps is None or steps < 2:
            raise ConfigError("sweep needs values, or start/stop with steps >= 2")
        if steps > ENTRY_LIMIT:
            raise ConfigError(f"sweep has more than {ENTRY_LIMIT} steps")
        values = [start + (stop - start) * k / (steps - 1) for k in range(steps)]
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    if variable == "num_ions":
        if not all(v == int(v) >= 2 for v in values):
            raise ConfigError("sweep over num_ions needs integer values >= 2")
        values = [int(v) for v in values]
    elif variable == "repetition_rate" and not all(v > 0.0 for v in values):
        raise ConfigError("sweep over repetition_rate needs values > 0")
    elif variable == "jitter" and not all(0.0 <= v < 1.0 for v in values):
        raise ConfigError("sweep over jitter needs values in [0, 1)")
    elif not all(v >= 0.0 for v in values):
        raise ConfigError(f"sweep over {variable} needs values >= 0")
    return variable, tuple(values), samples


def load_run_config(data: dict | None) -> RunConfig:
    """Validate a parsed config document and normalise it to SI."""
    data = dict(data or {})
    _check_keys(
        data,
        {"schema_version", "trap", "thermal", "stage1", "stage2", "sweep", "seed"},
        "config",
    )
    for key in ("trap", "thermal", "stage1", "stage2", "sweep"):
        if key in data and not isinstance(data[key], dict):
            raise ConfigError(f"config.{key} must be an object")
    seed = _get_int(data, "seed", "seed", default=0, least=0)

    sweep_variable, sweep_values, samples = (None, (), 100)
    if "sweep" in data:
        sweep_variable, sweep_values, samples = _parse_sweep(data["sweep"])

    trap = _parse_trap(data.get("trap", {}))
    thermal = _parse_thermal(data.get("thermal", {}))
    stage1 = _parse_stage1(data.get("stage1", {}), thermal)
    stage2 = _parse_stage2(data.get("stage2", {}))
    for value in sweep_values if sweep_variable == "epsilon" else ():
        try:
            replace(stage1, epsilon=value)
        except ValueError as exc:
            raise ConfigError(f"sweep over epsilon: {exc}") from exc
    rates = [("stage2.repetition_rate_mhz", stage2.repetition_rate)]
    if sweep_variable == "repetition_rate":
        rates += [("sweep.values", value * 1e6) for value in sweep_values]
    gate_time = max(stage1.gate_time_scan)
    for name, rate in rates:
        if not rate * gate_time < SLOT_LIMIT:
            raise ConfigError(f"{name} too high: a {gate_time:g} s gate spans 2**36 or more "
                              "grid slots")
    return RunConfig(
        trap=trap,
        stage1=stage1,
        stage2=stage2,
        sweep_variable=sweep_variable,
        sweep_values=sweep_values,
        jitter_samples=samples,
        seed=seed,
    )


def load_run_config_file(path: str | None) -> RunConfig:
    if path is None:
        return load_run_config({})
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return load_run_config(data)


def normalized_config_dict(config: RunConfig) -> dict:
    """SI echo of the effective configuration, for provenance headers."""
    trap, stage1 = config.trap, config.stage1
    sweep = None
    if config.sweep_variable is not None:
        # repetition rates are swept in MHz; the other variables are in SI
        scale = 1e6 if config.sweep_variable == "repetition_rate" else 1
        sweep = {
            "variable": config.sweep_variable,
            "values": [value * scale for value in config.sweep_values],
            "samples": config.jitter_samples,
        }
    return {
        "trap": {
            "num_ions": trap.num_ions,
            "ion_mass_kg": trap.ion_mass,
            "laser_wavelength_m": trap.laser_wavelength,
            "radial_frequency_rad_s": trap.radial_frequency,
            "axial_frequency_rad_s": trap.axial_freq,
            "quartic_j_per_m4": trap.quartic,
        },
        "thermal": stage1.thermal.to_json_dict(),
        "targets": stage1.targets if isinstance(stage1.targets, str) else list(stage1.targets),
        "stage1": {
            "group_count": stage1.group_count,
            "gate_time_scan_s": list(stage1.gate_time_scan),
            "z_bound_schedule": list(range(1, stage1.z_bound_max + 1)),
            "epsilon": stage1.epsilon,
            "top_k": stage1.top_k,
            "restarts": stage1.restarts,
            "exhaustive_limit": EXHAUSTIVE_LIMIT,
            "max_sdks": stage1.max_sdks,
            "pulse_counting": stage1.pulse_counting,
        },
        "stage2": {
            "repetition_rate_hz": config.stage2.repetition_rate,
            "timing_variation": config.stage2.timing_variation,
            "local_restarts": config.stage2.local_restarts,
        },
        "sweep": sweep,
        "seed": config.seed,
    }
