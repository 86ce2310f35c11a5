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

The closed form of the phase and residuals of antisymmetric kick groups
lives here once, as the phasor kernel `_TimingCost`: instantaneous at period
0, it is the stage-1 cost and `analytic_report`; with the grid period it is
stage 2's surrogate.
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
# nothing in the package calls propagate; the name stays because perfbench's tracer wraps it
from .dynamics import propagate  # noqa: F401
from .jsonnumbers import json_number
from .sequence import KickTrain, PulseGroupSequence

PHASE_TARGET = math.pi / 4.0
PULSE_COUNTINGS = ("pi_pulses", "sdks")  # the names `pulse_count_for` knows


def thermal_occupation(temperature: float, mode_frequency: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(hbar w / kB T) - 1); 0 at T = 0."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError("temperature must be non-negative and finite")
    if not mode_frequency > 0.0:
        raise ValueError("mode_frequency must be positive")
    if temperature == 0.0:
        return 0.0
    x = CONSTANTS.hbar * mode_frequency / (CONSTANTS.boltzmann * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:  # above x ~ 709.8, where e^x - 1 is e^x to double precision
        return math.exp(-x)


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
        if self.temperature is not None and not 0.0 <= self.temperature < math.inf:
            raise ValueError("temperature must be non-negative and finite")
        if self.nbar is not None:
            values = np.atleast_1d(np.asarray(self.nbar, dtype=float))
            if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
                raise ValueError("mean occupations must be non-negative and finite")

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
            return cls(nbar=None,
                       temperature=json_number(data["temperature_k"], "thermal.temperature_k"))
        nbar = data["nbar"]
        if isinstance(nbar, list):
            return cls(nbar=tuple(json_number(v, "thermal.nbar entry") for v in nbar))
        return cls(nbar=json_number(nbar, "thermal.nbar"))


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


class _TimingCost:
    """Analytic cost as a function of the half times, burst spreading included.

    A group of n kicks spaced by the repetition period T and centred on its
    group time acts, mode by mode, like a single kick of effective size
    sin(n w T / 2) / sin(w T / 2) (the burst form factor), plus a closed-form
    within-burst contribution to the entangling phase.  With period = 0 this
    is the instantaneous-group closed form of stage 1 and `analytic_report`.
    Used inside stage 2 as a fast surrogate during continuous gap refinement
    and for re-scoring integer moves; the authoritative objective remains
    the trajectory evaluation of the expanded train.
    """

    def __init__(self, chain, targets, thermal, period: float = 0.0):
        mu, nu = targets
        self.w = chain.mode_frequencies
        self.eta = chain.lamb_dicke
        self.b_mu = chain.mode_couplings[:, mu]
        self.b_nu = chain.mode_couplings[:, nu]
        nbar = thermal.occupations(self.w)
        self.weights = (4.0 / 3.0) * (0.5 + nbar) * (self.b_mu**2 + self.b_nu**2)
        self.phase_scale = 8.0 * self.eta**2 * self.b_mu * self.b_nu
        self.alpha_scale = (2.0 * self.eta * np.sqrt(self.weights))[:, None]
        self.period = period
        self._form_cache: dict[int, tuple] = {}

    def _burst_terms(self, count: int) -> tuple:
        """(form factor, within-burst phase sum) per mode for an n-kick burst."""
        if count not in self._form_cache:
            x = self.w * self.period
            if self.period == 0.0 or count <= 1:
                form = np.full_like(self.w, float(count))
                within = np.zeros_like(self.w)
            else:
                form = np.sin(0.5 * count * x) / np.sin(0.5 * x)
                within = np.zeros_like(self.w)
                for gap in range(1, count):
                    within += (count - gap) * np.sin(gap * x)
            self._form_cache[count] = (form, within)
        return self._form_cache[count]

    def bind(self, z_half) -> "_BoundTimingCost":
        """Freeze the group sizes, one (d,) row shared by every lane or a
        (lanes, d) stack, caching their burst form factors."""
        z_half = np.asarray(z_half, dtype=float)
        counts = np.abs(z_half).astype(int)
        terms = [self._burst_terms(c) for c in range(int(np.max(counts, initial=0)) + 1)]
        forms = np.array([form for form, _ in terms])
        withins = np.array([within for _, within in terms])
        # positive-half slots only: a group's mirrored slot has the opposite sign
        effective = np.ascontiguousarray(
            np.swapaxes(np.sign(z_half)[..., None] * forms[counts], -1, -2)
        )
        # a mirrored burst has the same within-burst phase as its own
        within_total = np.zeros(counts.shape[:-1] + (len(self.w),))
        for slot in range(counts.shape[-1]):
            within_total += withins[counts[..., slot]]
        within_theta = 2.0 * np.sum(self.phase_scale * within_total, axis=-1)
        return _BoundTimingCost(self, effective, within_theta)

    def fixed_timing_forms(self, t_half) -> tuple:
        """The period-0 kernel at fixed half times as forms in the half sizes
        z: Theta = z^T K z and the weighted displacements S z.  With
        p = exp(i w t), S = 2 alpha_scale Im(p) and K sums phase_scale
        [L + L^T - Im(p p^T)] over the modes, L the strict lower triangle of
        Im(p p^H).  Entry (a, b <= a) of that sum is -2 sin(w t_b) cos(w t_a),
        which builds K exactly symmetric."""
        p = np.exp(1j * np.outer(self.w, t_half))
        mixed = (self.phase_scale[:, None] * p.imag).T @ p.real
        upper = np.triu(mixed)
        return -2.0 * (upper + np.triu(mixed, 1).T), 2.0 * self.alpha_scale * p.imag


# Phasor entries (rows x modes x groups) of each complex array of one block
# that `_BoundTimingCost.cost` scores, 256 KiB; a row's bits do not depend on
# its block.  The on-grid polish at N=100 scores up to 108 rows of 800
# entries at a time, whose arrays took 3.9 MB whole.  With trajectory.csv
# streamed, the benchmark's N=100 gate run peaked at 89.8-90.0 MB RSS with
# whole stacks, 90.1-90.2 MB at 1 << 16 entries, 87.6 MB at 1 << 15 and
# 86.5-86.9 MB at this cap.  N=5 rows (about 45 entries) stay one block.
_PHASOR_ENTRIES = 1 << 14


class _BoundTimingCost:
    """`_TimingCost` with the sizes frozen: fast residuals and an analytic
    Jacobian with respect to the positive-half group times.

    Residual entry 0 is the weighted phase mismatch, the rest are the
    weighted per-mode displacement residuals; the least-squares structure is
    what the Levenberg-Marquardt timing refinement exploits.  Every method
    takes the half times as a (lanes, d) stack and answers lane by lane,
    each lane computed exactly as it would be alone.  The sizes are one (d,)
    row shared by every lane or a (lanes, d) stack, one row per lane, held
    as what `_TimingCost.bind` derives from them: each slot's signed form
    factors and the within-burst phase, so the rows of several bindings
    make a binding too.
    """

    def __init__(self, parent: _TimingCost, effective, within_theta):
        self.parent, self.effective, self.within_theta = parent, effective, within_theta

    def _phasors(self, t_half, lanes=None):
        """Weighted phasors w_j of the positive-half slots of a (lanes, d)
        stack of half times, their exclusive prefix sums Q_j, their total A
        and the within-burst phase.  `lanes` picks the rows of a per-lane
        binding that the stack of times belongs to.

        Slot -t_j carries the negated conjugate of w_j, so the positive half
        determines the whole slot list: its pairs give, mode by mode,
        Theta_m = 2 sum_j Im(w_j conj Q_j) - Im(A^2), and its displacement
        sum is 2 Im(A).
        """
        effective, within_theta = self.effective, self.within_theta
        if lanes is not None and effective.ndim == 3:
            effective, within_theta = effective[lanes], within_theta[lanes]
        # a Fortran-ordered or strided stack would give the products and
        # sums below another memory order, and with it other rounding
        t_half = np.ascontiguousarray(t_half)
        half = np.exp(1j * (self.parent.w[:, None] * t_half[:, None, :])) * effective
        return half, half.cumsum(axis=-1) - half, half.sum(axis=-1), within_theta

    def _phase_and_sums(self, half, prefix, total, within_theta):
        """Theta and the per-mode sums of z_k sin(w t_k) over every slot.

        Complex products of two stacks go through `np.multiply`: `a * b()`
        lets numpy reuse a temporary b() of 256 KiB or more as the output,
        and that in-place complex loop rounds differently from the one a
        smaller stack takes, so a lane's bits would depend on its stack.
        """
        pairs = 2.0 * np.multiply(half, prefix.conj()).sum(axis=-1).imag - (total * total).imag
        return (self.parent.phase_scale * pairs).sum(axis=-1) + within_theta, 2.0 * total.imag

    def _residuals_from(self, *phasors):
        theta, sums = self._phase_and_sums(*phasors)
        out = np.empty((len(theta), 1 + len(self.parent.w)))
        out[:, 0] = math.sqrt(2.0 / 3.0) * (np.abs(theta) - PHASE_TARGET)
        out[:, 1:] = self.parent.alpha_scale[:, 0] * sums
        return out, theta

    def phase_and_sums(self, t_half) -> tuple:
        """Theta and the per-mode sums of z_k sin(w t_k) over every slot, for
        a (lanes, d) stack of half times."""
        return self._phase_and_sums(*self._phasors(t_half))

    def cost(self, t_half) -> np.ndarray:
        """Sum of squared residuals: the surrogate ideal infidelity.

        The rows are scored in blocks of at most `_PHASOR_ENTRIES` phasors;
        a lane's bits do not depend on its stack, so neither do the costs.
        """
        rows = max(1, _PHASOR_ENTRIES // (len(self.parent.w) * max(1, t_half.shape[-1])))
        blocks = [slice(start, start + rows) for start in range(0, max(1, len(t_half)), rows)]
        return np.concatenate([
            (self._residuals_from(*self._phasors(t_half[block], block))[0] ** 2).sum(axis=-1)
            for block in blocks
        ])

    def residuals_and_jacobian(self, t_half) -> tuple:
        """Residuals of a (lanes, d) stack of half times, and a function
        that gives the analytic (modes+1) x d Jacobian with respect to t_half
        of the rows it picks (every row by default), from the same phasors."""
        half, prefix, total, within_theta = self._phasors(t_half)
        out, theta = self._residuals_from(half, prefix, total, within_theta)
        w = self.parent.w[:, None]

        def jacobian(rows=slice(None)):
            h = half[rows]
            # dTheta_m/dt_k = 2 w_m Re(w_k conj(2 Q_k + w_k - 2 Re A))
            spread = 2.0 * prefix[rows] + h - 2.0 * total[rows].real[..., None]
            theta_grad = self.parent.phase_scale @ (2.0 * w * np.multiply(h, spread.conj()).real)
            jac = np.empty(h.shape[:-2] + out.shape[1:] + h.shape[-1:])
            jac[:, 0] = (math.sqrt(2.0 / 3.0) * np.copysign(1.0, theta[rows]))[:, None] * theta_grad
            jac[:, 1:] = 2.0 * self.parent.alpha_scale * (w * h.real)
            return jac

        return out, jacobian


def analytic_report(
    sequence: PulseGroupSequence,
    chain: ChainModel,
    thermal: ThermalSpec,
    counting: str = "pi_pulses",
) -> GateReport:
    """Closed-form counterpart of `evaluate_train` (instantaneous groups),
    from the period-0 kernel: dalpha_m = 2 eta_m sum_k z_k sin(w_m t_k) and
    alpha_m(s) = -(s_mu b^mu + s_nu b^nu) dalpha_m."""
    mu, nu = sequence.target_ions
    kernel = _TimingCost(chain, sequence.target_ions, thermal).bind(sequence.half_sizes)
    (theta,), (sums,) = kernel.phase_and_sums(np.array([sequence.half_times]))
    dalpha = 2.0 * chain.lamb_dicke * sums
    residuals = {
        s: -(s[0] * chain.mode_couplings[:, mu] + s[1] * chain.mode_couplings[:, nu]) * dalpha
        for s in ((1, 1), (1, -1))
    }
    return _build_report(
        chain, thermal, sequence.target_ions, float(theta), residuals, sequence.total_sdks, counting
    )


def analytic_cost(
    sequence: PulseGroupSequence, chain: ChainModel, thermal: ThermalSpec
) -> float:
    """Ideal infidelity of a sequence from the closed forms; Stage-1 objective."""
    return analytic_report(sequence, chain, thermal).ideal_infidelity
