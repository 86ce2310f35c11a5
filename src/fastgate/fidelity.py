"""State-averaged gate infidelity: phase mismatch, residual displacements,
thermal weighting and the pulse-area error model.

The ideal gate accumulates an entangling phase of +-pi/4 and returns every
motional mode to its initial state.  To leading order the state-averaged
infidelity is

    1 - F = (2/3) |dphi|^2 + (4/3) sum_m (1/2 + nbar_m) <|alpha_m(s)|^2>_s ,

where dphi = |Theta| - pi/4, alpha_m(s) is the residual displacement of mode
m for two-qubit basis state s, and <.>_s averages the four basis states.
When the residuals factor as alpha_m(s) = -(s_mu b_m^mu + s_nu b_m^nu)
dalpha_m the average reduces to the familiar ((b^mu)^2 + (b^nu)^2)|dalpha|^2
weighting.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainModel
from .constants import CONSTANTS
from .dynamics import BASIS_STATES, entangling_phase, propagate_lanes
from .dynamics import propagate  # noqa: F401  -- public here; perfbench's tracer wraps it
from .sequence import KickTrain, PulseGroupSequence

PHASE_TARGET = math.pi / 4.0


def thermal_occupation(temperature: float, mode_frequency: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(hbar w / kB T) - 1); 0 at T = 0."""
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    if not mode_frequency > 0.0:
        raise ValueError("mode_frequency must be positive")
    if temperature == 0.0:
        return 0.0
    x = CONSTANTS.hbar * mode_frequency / (CONSTANTS.boltzmann * temperature)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class ThermalSpec:
    """Initial thermal state: either mean occupations or a temperature.

    `nbar` may be a scalar (applied to every mode) or a per-mode sequence;
    alternatively give `temperature` in kelvin and occupations follow the
    Bose-Einstein law per mode.  Exactly one of the two must be set.
    """

    nbar: float | tuple | None = 0.1
    temperature: float | None = None

    def __post_init__(self):
        if (self.nbar is None) == (self.temperature is None):
            raise ValueError("specify exactly one of nbar or temperature")
        if self.temperature is not None and self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")
        if self.nbar is not None:
            values = np.atleast_1d(np.asarray(self.nbar, dtype=float))
            if np.any(values < 0.0):
                raise ValueError("mean occupations must be non-negative")

    def occupations(self, mode_frequencies: np.ndarray) -> np.ndarray:
        """Per-mode mean occupations for the given mode frequencies."""
        n_modes = len(mode_frequencies)
        if self.temperature is not None:
            return np.array(
                [thermal_occupation(self.temperature, w) for w in mode_frequencies]
            )
        values = np.atleast_1d(np.asarray(self.nbar, dtype=float))
        if values.size == 1:
            return np.full(n_modes, float(values[0]))
        if values.size != n_modes:
            raise ValueError(f"expected {n_modes} occupations, got {values.size}")
        return values.copy()

    def to_json_dict(self) -> dict:
        if self.temperature is not None:
            return {"temperature_k": float(self.temperature)}
        values = np.atleast_1d(np.asarray(self.nbar, dtype=float))
        return {"nbar": float(values[0]) if values.size == 1 else [float(v) for v in values]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThermalSpec":
        if "temperature_k" in data:
            return cls(nbar=None, temperature=float(data["temperature_k"]))
        nbar = data["nbar"]
        return cls(nbar=tuple(nbar) if isinstance(nbar, (list, tuple)) else float(nbar))


_SYMMETRY_PAIRS = {(1, 1): (-1, -1), (1, -1): (-1, 1)}


def _mean_square_residuals(residuals: dict) -> np.ndarray:
    """Basis-state average of |alpha_m|^2 from two or four basis states."""
    provided = {tuple(k): np.asarray(v) for k, v in residuals.items()}
    if set(provided) == set(BASIS_STATES):
        stack = [np.abs(provided[b]) ** 2 for b in BASIS_STATES]
    elif set(provided) == set(_SYMMETRY_PAIRS):
        # Global kick-sign flip maps each basis state to its partner with
        # identical |alpha|, so two propagations carry the full average.
        stack = [np.abs(provided[b]) ** 2 for b in _SYMMETRY_PAIRS] * 2
    else:
        raise ValueError(
            "residuals must cover all four basis states or the {(1,1),(1,-1)} pair"
        )
    return np.mean(stack, axis=0)


def infidelity(
    phase_mismatch: float,
    residuals: dict,
    chain: ChainModel,
    thermal: ThermalSpec,
) -> float:
    """State-averaged infidelity from phase mismatch and residual displacements.

    `residuals` maps basis states (s_mu, s_nu) to per-mode complex residual
    displacement arrays; either all four basis states or the ((1,1), (1,-1))
    pair (the other two follow by symmetry).
    """
    nbar = thermal.occupations(chain.mode_frequencies)
    return _ideal_and_motional(phase_mismatch, _mean_square_residuals(residuals), nbar)[0]


def _ideal_and_motional(phase_mismatch: float, mean_sq: np.ndarray, nbar: np.ndarray) -> tuple:
    """The (ideal, motional) infidelity of the module docstring's formula."""
    motional = (4.0 / 3.0) * float(np.sum((0.5 + nbar) * mean_sq))
    return (2.0 / 3.0) * phase_mismatch**2 + motional, motional


def apply_pulse_error(ideal_fidelity: float, pulse_count: int, epsilon: float) -> float:
    """Worst-case pulse-area error model: F = (1 - N_p eps)^2 F0.

    `pulse_count` counts individual pi pulses.  The truncated expansion is
    accurate for N_p eps << 1; a warning is emitted beyond 0.5.
    """
    if pulse_count < 0:
        raise ValueError("pulse_count must be non-negative")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if pulse_count * epsilon > 0.5:
        warnings.warn(
            f"pulse error model out of regime: N_p * eps = {pulse_count * epsilon:.3g} > 0.5",
            stacklevel=2,
        )
    return pulse_error_factor(pulse_count, epsilon) * ideal_fidelity


def pulse_error_factor(pulse_count, epsilon: float):
    """The fidelity factor of `apply_pulse_error`'s error model, for one
    pulse count or an array of them."""
    return (1.0 - pulse_count * epsilon) ** 2


def pulse_count_for(sdk_count: int, counting: str = "pi_pulses") -> int:
    """Number of error-carrying pulses for a train of `sdk_count` SDKs.

    Each SDK is a counter-propagating pi-pulse pair, so the default counts
    2 pulses per SDK; "sdks" counts the kicks themselves (sensitivity
    studies only).
    """
    if counting == "pi_pulses":
        return 2 * sdk_count
    if counting == "sdks":
        return sdk_count
    raise ValueError(f"unknown pulse counting mode: {counting!r}")


@dataclass(frozen=True, eq=False)
class GateReport:
    """Infidelity breakdown for one gate evaluation.

    `residual_magnitudes[m]` is the effective per-mode residual |dalpha_m| =
    sqrt(<|alpha_m(s)|^2>_s / ((b^mu)^2 + (b^nu)^2)); together with
    `weights[m]` = (1/2 + nbar_m)((b^mu)^2 + (b^nu)^2) it reproduces the
    motional infidelity exactly: motional = (4/3) sum_m weight |dalpha|^2.
    """

    entangling_phase: float          # rad
    phase_mismatch: float            # rad, |Theta| - pi/4
    mode_frequencies: np.ndarray     # rad/s
    residuals: np.ndarray            # complex effective dalpha_m
    weights: np.ndarray              # thermal-coupling weights
    ideal_infidelity: float
    motional_infidelity: float
    sdk_count: int
    pulse_count: int

    def adjusted_fidelity(self, epsilon: float) -> float:
        return apply_pulse_error(1.0 - self.ideal_infidelity, self.pulse_count, epsilon)

    def adjusted_infidelity(self, epsilon: float) -> float:
        return 1.0 - self.adjusted_fidelity(epsilon)

    def to_json_dict(self) -> dict:
        return {
            "dphi": float(self.phase_mismatch),
            "per_mode": [
                {
                    "omega": float(w),
                    "dalpha_re": float(a.real),
                    "dalpha_im": float(a.imag),
                    "weight": float(g),
                }
                for w, a, g in zip(self.mode_frequencies, self.residuals, self.weights)
            ],
            "ideal_inf": float(self.ideal_infidelity),
            "motional_inf": float(self.motional_infidelity),
            "pulses": int(self.pulse_count),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _build_report(
    chain: ChainModel,
    thermal: ThermalSpec,
    targets: tuple,
    theta: float,
    residuals: dict,
    sdk_count: int,
    counting: str,
) -> GateReport:
    mu, nu = targets
    nbar = thermal.occupations(chain.mode_frequencies)
    coupling_sq = chain.mode_couplings[:, mu] ** 2 + chain.mode_couplings[:, nu] ** 2
    mean_sq = _mean_square_residuals(residuals)
    phase_mismatch = abs(theta) - PHASE_TARGET
    ideal, motional = _ideal_and_motional(phase_mismatch, mean_sq, nbar)

    # Effective per-mode residual: magnitude chosen so the breakdown below is
    # exact, phase carried over from the (+,+) trajectory as a convention.
    safe = np.where(coupling_sq > 0.0, coupling_sq, 1.0)
    magnitudes = np.sqrt(mean_sq / safe) * (coupling_sq > 0.0)
    reference = np.asarray(residuals[(1, 1)]).astype(complex)
    ref_abs = np.abs(reference)
    phases = np.divide(reference, ref_abs, out=np.ones_like(reference), where=ref_abs > 0.0)
    return GateReport(
        entangling_phase=theta,
        phase_mismatch=phase_mismatch,
        mode_frequencies=chain.mode_frequencies.copy(),
        residuals=magnitudes * phases,
        weights=(0.5 + nbar) * coupling_sq,
        ideal_infidelity=ideal,
        motional_infidelity=motional,
        sdk_count=sdk_count,
        pulse_count=pulse_count_for(sdk_count, counting),
    )


def evaluate_train(
    train: KickTrain,
    chain: ChainModel,
    thermal: ThermalSpec,
    full_basis: bool = False,
    counting: str = "pi_pulses",
) -> GateReport:
    """Trajectory-based gate evaluation.

    Propagates two basis states (four with `full_basis`, asserting the phase
    symmetry between mirrored states) as one lane stack and assembles the
    infidelity breakdown; see `evaluate_trains`.
    """
    return evaluate_trains([train], [chain], thermal, full_basis, counting)[0]


def evaluate_trains(
    trains,
    chains,
    thermal: ThermalSpec,
    full_basis: bool = False,
    counting: str = "pi_pulses",
) -> list:
    """`evaluate_train` for each (train, chain) pair, all from one propagation.

    The pairs' basis states run as the lanes of `propagate_lanes`, so the
    trains must share their kick signs and targets (a jitter study's scaled
    copies of one train, each with its own scaled chain).  The lanes advance
    together through one per-kick loop, which computes a segment's rotations
    once when its duration is bitwise equal across the lanes.  Every report
    is bit-identical to evaluating its pair alone.
    """
    return [build(thermal) for build in _report_builders(trains, chains, full_basis, counting)]


def evaluate_train_thermals(train: KickTrain, chain: ChainModel, thermals,
                            counting: str = "pi_pulses") -> list:
    """`evaluate_train` at each thermal spec of `thermals`, from one
    propagation: the trajectories do not depend on the thermal occupations,
    so each report is bit-identical to evaluating the train at its spec."""
    (build,) = _report_builders([train], [chain], False, counting)
    return [build(thermal) for thermal in thermals]


def _report_builders(trains, chains, full_basis, counting) -> list:
    """For each (train, chain) pair, all propagated as the lanes of one
    stack, the function of a thermal spec that builds its report."""
    bases = BASIS_STATES if full_basis else ((1, 1), (1, -1))
    results = propagate_lanes(
        [(train, chain, b) for train, chain in zip(trains, chains) for b in bases]
    )
    builders = []
    for k, (train, chain) in enumerate(zip(trains, chains)):
        lanes = dict(zip(bases, results[k * len(bases):(k + 1) * len(bases)]))
        if full_basis:
            theta = entangling_phase(list(lanes.values()))
        else:
            theta = 0.5 * (lanes[(1, 1)].total_phase - lanes[(1, -1)].total_phase)
        builders.append(functools.partial(
            _build_report, chain, targets=train.target_ions, theta=theta, sdk_count=train.num_kicks,
            residuals={b: r.alphas for b, r in lanes.items()}, counting=counting))
    return builders


def analytic_phase_and_residuals(
    sequence: PulseGroupSequence, chain: ChainModel
) -> tuple[float, np.ndarray]:
    """Closed-form entangling phase and factored residuals of a group sequence.

    Valid in the instantaneous-group limit.  Theta = 8 sum_m eta_m^2 b_m^mu
    b_m^nu sum_{i>j} z_i z_j sin(w_m (t_i - t_j)); the factored residual is
    dalpha_m = 2 eta_m sum_k z_k sin(w_m t_k), with the basis-state residual
    alpha_m(s) = -(s_mu b^mu + s_nu b^nu) dalpha_m.
    """
    mu, nu = sequence.target_ions
    z = np.asarray(sequence.group_sizes, dtype=float)
    t = np.asarray(sequence.group_times, dtype=float)
    w = chain.mode_frequencies
    eta = chain.lamb_dicke
    b_mu = chain.mode_couplings[:, mu]
    b_nu = chain.mode_couplings[:, nu]

    dt = t[:, None] - t[None, :]                      # t_i - t_j
    pair_z = np.tril(np.outer(z, z), k=-1)            # i > j only
    sin_wdt = np.sin(w[:, None, None] * dt[None, :, :])
    pair_sums = np.einsum("ij,mij->m", pair_z, sin_wdt)
    theta = 8.0 * float(np.sum(eta**2 * b_mu * b_nu * pair_sums))

    dalpha = 2.0 * eta * (np.sin(w[:, None] * t[None, :]) @ z)
    return theta, dalpha


def analytic_report(
    sequence: PulseGroupSequence,
    chain: ChainModel,
    thermal: ThermalSpec,
    counting: str = "pi_pulses",
) -> GateReport:
    """Closed-form counterpart of `evaluate_train` (instantaneous groups)."""
    mu, nu = sequence.target_ions
    theta, dalpha = analytic_phase_and_residuals(sequence, chain)
    residuals = {
        s: -(s[0] * chain.mode_couplings[:, mu] + s[1] * chain.mode_couplings[:, nu]) * dalpha
        for s in ((1, 1), (1, -1))
    }
    return _build_report(
        chain, thermal, sequence.target_ions, theta, residuals, sequence.total_sdks, counting
    )


def analytic_cost(
    sequence: PulseGroupSequence, chain: ChainModel, thermal: ThermalSpec
) -> float:
    """Ideal infidelity of a sequence from the closed forms; Stage-1 objective."""
    return analytic_report(sequence, chain, thermal).ideal_infidelity
