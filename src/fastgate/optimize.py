"""Two-stage pulse-sequence optimisation.

One closed form, the phasor kernel `fidelity._TimingCost`, serves both
stages: stage 1 scores its quadratic forms at period 0 (`CostModel`), and
stage 2 uses it with the grid period as its fast surrogate.

Stage 1 searches integer group sizes at uniform timings against the
closed-form cost, tightening then gradually loosening the per-group bound
with warm starts; exhaustive enumeration replaces the heuristic below a size
threshold, and rounded continuous relaxations seed the search at the final
bound.  Every gate time of the scan (or of one worker's contiguous part of
it) runs in lockstep, one bound level at a time: a lane carries its gate
time's index, each gate time keeping its own rng, warm starts and finds,
and each lane ends where it would alone.  A descent pass screens every
move of every lane from the forms' products with the lane's sizes
(`CostModel.screened_moves`), then builds and scores exactly only the
trials within a proven rounding bound of the lane's best estimate; starts,
trials and exhaustive grids share one exact evaluator, so a row scores the
same bits wherever it comes from, and every decision uses exact scores.
The relaxations are box-bounded least-squares fits of the closed-form cost
on the stage-2 solver `_box_least_squares`, the twelve starts of every gate
time as lanes of one stack.

Stage 2 refines the group timings on the repetition-rate grid against the
trajectory-based cost, each inter-group gap constrained to within a fraction
of its Stage-1 value.  `stage2` drives named steps.  `_joint_paths` lets
integer moves from the same move matrix, re-scored by quick timing
refinement, escape the stiff uniform-timing lattice.  `_grid_solutions`
puts a timing on the grid at both phases as one integer slot per nonempty
group, each group time the centre of its burst, and polishes the slots by
shifts of one group or two adjacent groups, each pass scoring every shift
that keeps the bursts on the grid (`bursts_fit`) and inside the gap
windows (`_inside_windows`) as one stack and taking the best improving
one; it runs for the stage-1 seed and each refined joint solution, all in
the one set of stage-1 windows.  The best solution expands to the gate's
train exactly.  The timing refinement is a small projected
Levenberg-Marquardt solver on the box-bounded gaps, which clamps every start
into the box, written in numpy because the fits are tiny: one gap per group
against one residual per mode plus the phase.  Independent fits run as
lanes of one stack, each
lane doing exactly the arithmetic it would do alone, so the numpy call
overhead is paid once per stack: the joint paths yield their fit requests
(a refinement's starts, or a batch of integer moves) and `_lockstep` fits
every pending request in one stack per round.  A batch of moves abandons
the lanes after the first lane whose running cost already scores below the
bar, and takes the first improving move once the lanes before it have
finished, which keeps the decisions of scoring the moves one at a time.
The lanes per batch of moves follow from the mode count (`_lane_count`).
Both stages are deterministic under a seed, and parallel work is merged in
a fixed order so serial and parallel runs produce identical output.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import ChainModel
from .fidelity import (
    PHASE_TARGET,
    PULSE_COUNTINGS,
    GateReport,
    ThermalSpec,
    _TimingCost,
    evaluate_train,
    evaluate_trains,
    pulse_count_for,
    pulse_error_factor,
)
from .sequence import (
    GridResolutionError,
    KickTrain,
    PulseGroupSequence,
    burst_center,
    burst_slot,
    bursts_fit,
    expand_groups,
)

DEFAULT_GATE_TIME_SCAN = tuple(0.5e-6 + 50e-9 * k for k in range(21))  # 0.5-1.5 us
EXHAUSTIVE_LIMIT = 20000  # the most size vectors stage 1 enumerates at one bound
_GAP_UNIT = 1e-7  # seconds; rescales the stage-2 gap variables to O(1)


class NoCandidatesError(RuntimeError):
    """Stage 1 found no candidate sequence to refine."""


def default_group_count(num_ions: int, targets: tuple) -> int:
    """16 groups for edge pairs, 18 for pairs toward the middle of the chain."""
    lo, hi = sorted(targets)
    edge_distance = min(lo, num_ions - 1 - hi)
    return 16 if edge_distance <= num_ions / 8.0 else 18


@dataclass(frozen=True)
class Stage1Config:
    """Integer search over antisymmetric group sizes at uniform timings."""

    targets: tuple
    group_count: int | None = None          # even; None -> edge/middle default
    gate_time_scan: tuple = DEFAULT_GATE_TIME_SCAN   # s
    z_bound_max: int = 10                   # the per-group |z| bound rises 1, 2, ..., z_bound_max
    thermal: ThermalSpec = ThermalSpec(nbar=0.1)
    epsilon: float = 1e-5                   # pulse error used for model selection
    top_k: int = 10
    restarts: int = 8
    max_sdks: int = 100
    pulse_counting: str = "pi_pulses"

    def __post_init__(self):
        if self.group_count is not None and (self.group_count % 2 or self.group_count < 2):
            raise ValueError("group_count must be a positive even integer")
        if not self.gate_time_scan:
            raise ValueError("gate_time_scan must be non-empty")
        if (self.epsilon < 0.0 or self.top_k < 1 or self.restarts < 0 or self.z_bound_max < 1
                or self.max_sdks < 2):
            raise ValueError("invalid stage-1 configuration")
        if self.pulse_counting not in PULSE_COUNTINGS:
            raise ValueError('pulse_counting must be "pi_pulses" or "sdks"')


# scales of the candidate's sizes that start stage 2's joint refinements
_RESTART_SCALES = (1.0, 0.5, 0.7, 0.35, 0.85, 0.25, 0.6, 0.2)


@dataclass(frozen=True)
class Stage2Config:
    """Timing refinement on the repetition-rate grid."""

    repetition_rate: float = 300e6   # Hz
    timing_variation: float = 0.25   # allowed fractional change of each gap
    local_restarts: int = 4          # extra scaled joint-refinement starts, at most 7

    def __post_init__(self):
        if not self.repetition_rate > 0.0:
            raise ValueError("repetition_rate must be positive")
        if not 0.0 < self.timing_variation <= 0.5:
            raise ValueError("timing_variation must be in (0, 0.5]")
        if not 0 <= self.local_restarts < len(_RESTART_SCALES):
            raise ValueError(f"local_restarts must be in 0..{len(_RESTART_SCALES) - 1}")


_ROUNDOFF = 2.0**-53  # unit roundoff of a float
# The most trials one screening step of the descent holds: each step keeps
# about a dozen (lanes, moves) arrays, so this bounds the memory of a
# lockstep stack.  On the benchmark's N=20 scan, unbounded steps raised
# stage 1's traced memory peak from 2.4 to 7.5 MB, while 2 048, 4 096 and
# 8 192 took the same time.
_SCREEN_ROWS = 4096


def _quadratic_rows(rows, form):
    """r^T F r for each row r of a (..., rows, d) stack, the form F shared
    by every row or one (d, d) form per lane of a (lanes, rows, d) stack,
    broadcast over the lane's rows.  Each row is its own 1 x d product with
    the form, so its bits depend neither on the stack nor on how the form
    reaches it (a three-operand einsum's do at d = 2)."""
    rows = rows[..., None, :]
    return ((rows @ form[..., None, :, :]) @ rows.swapaxes(-1, -2))[..., 0, 0]


class CostModel:
    """Closed-form cost at fixed timings, reduced to two quadratic forms,
    for each gate time of a scan.

    For fixed group times the entangling phase and every residual are linear
    in the half-vector z, so the ideal infidelity collapses to two d x d
    quadratic forms (`_TimingCost.fixed_timing_forms`) evaluated in
    microseconds per candidate.  `half_times` is one (d,) row of group times
    or one row per gate time; the forms are stacked in that order, and a
    score names its gate time by that index (`gate`: one for every row, or
    one per lane of a (lanes, rows, d) stack).  Every exact score goes
    through one evaluator (`_quadratic_rows`), so a row gets the same bits
    alone or in any stack and next to any other gate time, and z and -z
    score equal.  `screened_moves` estimates the scores of every descent
    move at once, with a proven bound on each estimate's error;
    `evaluations` counts the rows scored or screened as feasible trials, and
    `rescored` the trials the screen sent to the exact evaluator.
    """

    def __init__(self, chain, config: Stage1Config, half_times):
        kernel = _TimingCost(chain, config.targets, config.thermal)
        forms = [kernel.fixed_timing_forms(row) for row in np.atleast_2d(half_times)]
        self.phase_quadratic = np.array([phase for phase, _ in forms])
        self.scaled = np.array([scaled for _, scaled in forms])
        self.residual_quadratic = np.array([scaled.T @ scaled for _, scaled in forms])
        deltas = _descent_moves(self.phase_quadratic.shape[-1])[0]
        # per form: delta^T F delta for every move at every gate time (at most
        # four nonzero products, each exact: the steps are powers of two), and
        # the largest |F_ij|
        self._moves = [
            (((deltas @ form) * deltas).sum(axis=-1), np.abs(form).max(axis=(1, 2)))
            for form in (self.phase_quadratic, self.residual_quadratic)
        ]
        self.epsilon = config.epsilon
        self.counting = config.pulse_counting
        self.max_sdk_half = config.max_sdks // 2
        self.evaluations = 0
        self.rescored = 0

    def ideal_infidelity(self, z: np.ndarray, gate=0):
        """A float for one (d,) row of half sizes, one per row of a stack."""
        rows = np.ascontiguousarray(np.atleast_2d(z), dtype=float)
        theta, motional = (_quadratic_rows(rows, form[gate])
                           for form in (self.phase_quadratic, self.residual_quadratic))
        costs = (2.0 / 3.0) * (np.abs(theta) - PHASE_TARGET) ** 2 + motional
        return float(costs[0]) if np.ndim(z) == 1 else costs

    def residuals_and_jacobian(self, z, gates=None) -> tuple:
        """The cost as a sum of squares for `_box_least_squares`: residual 0
        is the weighted phase mismatch, the rest the weighted per-mode
        displacements, row by row for a (lanes, d) stack, and a function
        that gives the (modes+1) x d Jacobian of the rows it picks (every
        row by default), the contract of `_fit_gaps`'s kernel.  Row l is at
        gate time `gates[l]` (gate time 0 for every row by default).
        """
        gate = 0 if gates is None else gates
        kz = (self.phase_quadratic[gate] @ z[:, :, None])[:, :, 0]
        theta = _rowdot(z, kz)
        out = np.empty((len(z), 1 + self.scaled.shape[-2]))
        out[:, 0] = math.sqrt(2.0 / 3.0) * (np.abs(theta) - PHASE_TARGET)
        out[:, 1:] = (self.scaled[gate] @ z[:, :, None])[:, :, 0]
        slope = (2.0 * math.sqrt(2.0 / 3.0) * np.copysign(1.0, theta))[:, None] * kz

        def jacobian(rows=slice(None)):
            # built on request, so a stack of lanes holds no Jacobian between calls
            jac = np.empty((len(slope[rows]),) + out.shape[1:] + (z.shape[1],))
            jac[:, 0] = slope[rows]
            jac[:, 1:] = self.scaled[gate if gates is None else gates[rows]]
            return jac

        return out, jacobian

    def _score(self, z, gate=0):
        """`selection_cost` without counting the rows."""
        pulses = pulse_count_for(2 * np.sum(np.abs(z), axis=-1), self.counting)
        ideal = self.ideal_infidelity(z, gate)
        return 1.0 - pulse_error_factor(pulses, self.epsilon) * (1.0 - ideal)

    def selection_cost(self, z: np.ndarray, gate=0) -> np.ndarray:
        """Pulse-error-adjusted infidelity used to rank candidates, one per
        row of a (rows, d) stack of half sizes or a (lanes, rows, d) one."""
        self.evaluations += np.size(z) // np.shape(z)[-1]
        return self._score(z, gate)

    def screened_moves(self, z, gates, pulses) -> tuple:
        """Estimates of `selection_cost` for every trial z + delta of the
        `_descent_moves` deltas, from a (lanes, d) stack of z, lane l at gate
        time `gates[l]`, whose trials carry the (lanes, moves) `pulses`;
        returns the (lanes, moves) estimates and bounds on their errors.

        Theta' = Theta + 2 delta^T K z + delta^T K delta, and the motional
        term M' likewise with the residual form R, from one matrix-vector
        product per lane.  The bound, with u the unit roundoff, g_n = n u /
        (1 - n u), S = |z|_1 + 2 (at least |y|_1 for every trial y, and at
        least 2) and A the largest |K_ij|: a product x^T K y of length-d
        vectors, in any summation order, is within g_2d |x|^T |K| |y| <=
        g_2d A |x|_1 |y|_1 of its value (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 3), which bounds the exact evaluator's
        Theta(y) and the estimate's Theta(z) by g_2d A S^2 each.  Kz is
        within g_d A |z|_1 per entry and |delta|_1 <= 2, so 2 delta^T Kz
        carries 2 g_d A S^2; delta's entries are powers of two, so delta^T Kz
        and delta^T K delta are sums of at most two and four exact products,
        whose roundings add 2 u A S^2 (once doubled) and g_3 A S^2; the two
        additions that join the terms, whose magnitudes sum to at most
        4 A S^2, add at most 8 u A S^2.  To first order
        Theta' and the exact Theta differ by (6d + 13) u A S^2, so by at most
        E = (6d + 16) u A S^2, and M' and the exact M by the same with R.
        The score is 1 - f (1 - I) with I = (2/3) (|Theta| - pi/4)^2 + M, f
        the pulse factor, the same float for a trial's estimate and its
        exact score.  The two inputs move it by at most f [(2/3) E (|Theta'|
        + |Theta| + pi/2) + E_M] <= f [1.4 E (|Theta'| + pi/4 + E) + E_M]
        (1.4 covers the rounded 2/3), and the seven roundings of each of the
        two scores add at most u [f (8 I + 3) + 1] each, which 16 u (1 + f (2
        + I)) covers with the exact I at most I + 1 (the input errors are
        below 1e-10).
        """
        deltas = _descent_moves(z.shape[1])[0]
        reach = ((6 * z.shape[1] + 16) * _ROUNDOFF) * (np.sum(np.abs(z), axis=1) + 2.0) ** 2
        terms = []
        for form, (moved, magnitude) in zip((self.phase_quadratic, self.residual_quadratic),
                                            self._moves):
            fz = (form[gates] @ z[:, :, None])[:, :, 0]
            value = _rowdot(z, fz)[:, None] + 2.0 * (fz @ deltas.T) + moved[gates]
            terms.append((value, (magnitude[gates] * reach)[:, None]))
        (theta, theta_error), (motional, motional_error) = terms
        factor = pulse_error_factor(pulses, self.epsilon)
        mismatch = (2.0 / 3.0) * (np.abs(theta) - PHASE_TARGET) ** 2
        estimate = 1.0 - factor * (1.0 - (mismatch + motional))
        error = factor * (
            1.4 * theta_error * (np.abs(theta) + PHASE_TARGET + theta_error) + motional_error
        ) + 16.0 * _ROUNDOFF * (1.0 + factor * (2.0 + mismatch + np.abs(motional)))
        return estimate, error


@functools.lru_cache(maxsize=None)
def _descent_moves(d: int):
    """Single +-1/+-2 moves plus paired +-1 moves on adjacent coordinates,
    in the fixed move order both stages search in.

    Returned read-only: the (moves, d) delta matrix, and as (moves, 2)
    arrays the two coordinates each move may touch, its step on each and
    whether it touches each (a single move's second slot repeats its
    coordinate with no step, untouched).
    """
    singles = [((i, i), (delta, 0)) for i in range(d) for delta in (1, -1, 2, -2)]
    pairs = [((i, i + 1), (di, dj)) for i in range(d - 1) for di in (1, -1) for dj in (1, -1)]
    coords, steps = (np.array(part) for part in zip(*(singles + pairs)))
    deltas = np.zeros((len(coords), d))
    np.add.at(deltas, (np.arange(len(coords))[:, None], coords), steps)
    touched = np.column_stack([np.ones(len(coords), dtype=bool), coords[:, 0] != coords[:, 1]])
    for part in (deltas, coords, steps, touched):
        part.flags.writeable = False
    return deltas, coords, steps, touched


def _move_reach(z: np.ndarray, bound: int, cap_half: int):
    """Which trials z + delta of the `_descent_moves` deltas are feasible,
    and each trial's half-sum of |z|, as (lanes, moves) arrays for a
    (lanes, d) stack of z, worked out from the coordinates each move touches
    alone.  A trial is feasible when each coordinate the move touches stays
    within `bound` and the half-sum of |z| stays within `cap_half`."""
    _, coords, steps, touched = _descent_moves(z.shape[1])
    before = z[:, coords]
    after = np.abs(before + steps)
    feasible = ~np.any(touched & (after > bound), axis=-1)
    # an untouched slot has no step, so it adds nothing to the norm
    norms = np.sum(np.abs(z), axis=1)[:, None] + np.sum(after - np.abs(before), axis=-1)
    return feasible & (norms <= cap_half), norms


def _coordinate_descent(model: CostModel, z0: np.ndarray, bound: int, max_passes: int = 400,
                        gates=None):
    """Greedy integer descent over single and adjacent-pair moves.

    Each pass takes the best strictly improving move (the first in move
    order on ties) until none remains.  `z0` is a (lanes, d) stack of
    starts whose descents run as lanes, lane l at gate time `gates[l]` of
    the model (gate time 0 for every lane by default); a lane stops on its
    own.  A pass works through the running lanes in steps of at most
    `_SCREEN_ROWS` trials (`_descent_pass`) and scores in two steps.  The
    screen (`CostModel.screened_moves`) estimates every trial at once, with
    feasibility and pulse counts from the touched coordinates alone
    (`_move_reach`).  With exact scores e, estimates s and error bounds b,
    the exact minimum j satisfies s_j - b_j <= e_j <= e_k <= s_k + b_k for
    the lowest estimate k, and so does every trial tied with it; the trials
    with s <= s_k + b_k + b alone are built and scored exactly, each lane's
    in move order against the lane's forms.  Every decision and reported
    cost uses the exact scores, so each lane moves as it would with every
    trial scored exactly.  `model.evaluations` counts every feasible
    trial.  Returns (z, cost) per lane.
    """
    z = np.array(z0, dtype=float)
    gates = np.zeros(len(z), dtype=int) if gates is None else np.asarray(gates)
    step = max(1, _SCREEN_ROWS // len(_descent_moves(z.shape[1])[0]))

    def blocks(lanes):
        return np.split(lanes, range(step, len(lanes), step))

    lanes = np.arange(len(z))
    cost = np.concatenate([model.selection_cost(z[b, None], gates[b])[:, 0] for b in blocks(lanes)])
    for _ in range(max_passes):
        if not len(lanes):
            break
        lanes = np.concatenate([b[_descent_pass(model, z, cost, b, gates[b], bound)]
                                for b in blocks(lanes)])
    return z.astype(int), cost


def _descent_pass(model, z, cost, lanes, gates, bound):
    """One pass of `_coordinate_descent` for the rows `lanes` of z, at
    gate times `gates`: moves each lane that has a strictly improving move,
    updating z and cost in place, and returns which lanes moved."""
    here = z[lanes]
    feasible, norms = _move_reach(here, bound, model.max_sdk_half)
    model.evaluations += int(np.count_nonzero(feasible))
    estimate, error = model.screened_moves(here, gates, pulse_count_for(2 * norms, model.counting))
    estimate[~feasible] = np.inf
    rows = np.arange(len(lanes))
    lead = np.argmin(estimate, axis=1)
    keep = feasible & (estimate <= (estimate[rows, lead] + error[rows, lead])[:, None] + error)
    # the kept moves of each lane in move order, padded with unkept ones
    picks = np.argsort(~keep, axis=1, kind="stable")[:, : max(1, keep.sum(axis=1).max())]
    trials = here[:, None, :] + _descent_moves(z.shape[1])[0][picks]
    model.rescored += picks.size
    costs = np.where(np.take_along_axis(keep, picks, axis=1), model._score(trials, gates), np.inf)
    best = np.argmin(costs, axis=1)
    best_cost = costs[rows, best]
    moved = feasible.any(axis=1) & ~(best_cost >= cost[lanes])
    z[lanes[moved]] = trials[moved, best[moved]]
    cost[lanes[moved]] = best_cost[moved]
    return moved


def _size_grid(d: int, bound: int) -> np.ndarray:
    """Every z in [-bound, bound]^d as float rows, the last coordinate fastest."""
    return (np.indices((2 * bound + 1,) * d).reshape(d, -1).T - bound).astype(float)


def _clip_to_sdk_cap(z: np.ndarray, cap: int) -> np.ndarray:
    """Deterministically shrink the largest entry (the first of equals) by
    one until sum |z| <= cap, for one (d,) row or each row of a stack."""
    z = np.array(z)
    rows = np.atleast_2d(z)
    while True:
        over = np.flatnonzero(np.sum(np.abs(rows), axis=1) > cap)
        if not len(over):
            return z
        largest = np.argmax(np.abs(rows[over]), axis=1)
        rows[over, largest] -= np.sign(rows[over, largest])


def _continuous_seeds(model: CostModel, bound: int, rngs, starts: int = 12):
    """Rounded continuous relaxations of the cost, with scaling sweeps, for
    each gate time of the model, gate time g drawing from `rngs[g]`.

    The integer landscape is a coarse lattice over narrow valleys; rounding
    the continuous optimum (and rescalings of it that keep the entangling
    phase near target) lands the descent inside the right basin.  The
    `starts` fits of every gate time run as lanes of one `_box_least_squares`
    stack.  Returns one list of seeds per gate time.
    """
    d = model.phase_quadratic.shape[-1]
    x0 = np.array([rng.uniform(-0.6 * bound, 0.6 * bound, size=d)
                   for rng in rngs for _ in range(starts)])
    gates = np.repeat(np.arange(len(rngs)), starts)
    funs, xs = _box_least_squares(
        lambda x, lanes: model.residuals_and_jacobian(x, gates[lanes]), x0, -bound, bound, 200
    )
    found = []
    for gate, rng in enumerate(rngs):
        span = slice(gate * starts, (gate + 1) * starts)
        optima = sorted(zip(funs[span].tolist(), xs[span]), key=lambda p: p[0])
        K = model.phase_quadratic[gate]
        seeds = []
        for _, zc in optima[:4]:
            theta = zc @ K @ zc
            if theta != 0.0:
                scale_star = math.sqrt(PHASE_TARGET / abs(theta))
                for s in np.linspace(0.75, 1.3, 8):
                    seeds.append(np.rint(np.clip(zc * s * scale_star, -bound, bound)))
            seeds.append(np.rint(np.clip(zc, -bound, bound)))
            for _ in range(2):
                dither = rng.uniform(-0.4, 0.4, size=d)
                seeds.append(np.rint(np.clip(zc + dither, -bound, bound)))
        found.append([s.astype(int) for s in seeds if np.any(s)])
    return found


@dataclass(frozen=True, eq=False)
class Stage1Candidate:
    sequence: PulseGroupSequence
    ideal_infidelity: float
    adjusted_infidelity: float
    sdk_count: int
    design_gate_time: float
    bound_found: int

    def sort_key(self):
        return (
            self.adjusted_infidelity,
            self.sdk_count,
            self.design_gate_time,
            self.sequence.group_sizes,
        )


def _stage1_gate_times(chain, config, scan_indices, seed):
    """Full bound-schedule search at the gate times `scan_indices` of the
    scan, run in lockstep: each bound level descends every gate time's
    starts as lanes of one stack.  Each gate time keeps its own rng, warm
    starts and finds, so its candidates do not depend on which gate times
    share its stack.  Returns each gate time's candidate list and the
    evaluations spent."""
    n_k = config.group_count or default_group_count(chain.num_ions, config.targets)
    d = n_k // 2
    gate_times = [config.gate_time_scan[index] for index in scan_indices]
    half_times = [[gate_time * ((j + 1) / n_k) for j in range(d)] for gate_time in gate_times]
    model = CostModel(chain, config, half_times)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1, index)))
            for index in scan_indices]
    gates = range(len(scan_indices))

    found = [[] for _ in gates]  # per gate time: (sizes, costs, bound) in the order found
    warm = [np.zeros((1, d), dtype=int) for _ in gates]
    for bound in range(1, config.z_bound_max + 1):
        if (2 * bound + 1) ** d <= EXHAUSTIVE_LIMIT:
            grid = _size_grid(d, bound)
            grid = grid[2 * np.sum(np.abs(grid), axis=1) <= config.max_sdks]
            for gate in gates:
                costs = model.selection_cost(grid, gate)
                order = np.lexsort((np.sum(np.abs(grid), axis=1), costs))
                kept = order[: max(40, 3 * config.top_k)]
                found[gate].append((grid[kept].astype(int), costs[kept], bound))
                warm[gate] = grid[order[:4]].astype(int)
            # the grid is the search's largest array: free it before the descents
            del grid, costs, order, kept
            continue
        starts = [[np.clip(z, -bound, bound) for z in warm[gate]]
                  + [rngs[gate].integers(-bound, bound + 1, size=d)
                     for _ in range(config.restarts)]
                  for gate in gates]
        if bound == config.z_bound_max:
            for gate, seeds in enumerate(_continuous_seeds(model, bound, rngs)):
                starts[gate] += seeds
        lane_gates = np.repeat(gates, [len(s) for s in starts])
        z, cost = _coordinate_descent(
            model, _clip_to_sdk_cap(np.concatenate(starts), model.max_sdk_half), bound,
            gates=lane_gates,
        )
        for gate in gates:
            mine = lane_gates == gate
            found[gate].append((z[mine], cost[mine], bound))
            warm[gate] = z[mine][np.lexsort((*z[mine].T[::-1], cost[mine]))[:4]]

    candidates = [
        _gate_time_candidates(config, model, gate, found[gate], half_times[gate], gate_times[gate])
        for gate in gates
    ]
    return candidates, model.evaluations


def _gate_time_candidates(config, model, gate, found, half_times, gate_time):
    """The candidates one gate time contributes, best first.

    A size vector found more than once keeps its first cost and bound (one
    evaluator scores a row the same wherever it comes from).  The rest are
    ranked by cost, then sum |z|, then lexicographic z.
    """
    sizes, costs = (np.concatenate(parts) for parts in list(zip(*found))[:2])
    bounds = np.repeat([bound for _, _, bound in found], [len(z) for z, _, _ in found])
    first = np.unique(sizes, axis=0, return_index=True)[1]
    sizes, costs, bounds = sizes[first], costs[first], bounds[first]
    norms = np.sum(np.abs(sizes), axis=1)
    order = np.lexsort((*sizes.T[::-1], norms, costs)).tolist()
    # Guarantee stage 2 sees a low-pulse-count pattern from this gate time:
    # large-|z| optima of the uniform-timing cost otherwise crowd out the
    # small patterns that refine best once timings move.
    selected = order[: config.top_k]
    small = [i for i in order if 2 * norms[i] <= 30]
    if small and small[0] not in selected:
        selected = selected[: max(1, config.top_k - 1)] + [small[0]]
    candidates = []
    for i in selected:
        seq = PulseGroupSequence.from_half(
            sizes[i].tolist(), half_times, config.targets, gate_time
        ).trimmed()
        candidates.append(
            Stage1Candidate(
                sequence=seq,
                ideal_infidelity=model.ideal_infidelity(sizes[i].astype(float), gate),
                adjusted_infidelity=float(costs[i]),
                sdk_count=seq.total_sdks,
                design_gate_time=gate_time,
                bound_found=int(bounds[i]),
            )
        )
    return candidates


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes for `tasks` tasks: at most `threads`, one per task
    and one per CPU, and at least one."""
    return max(1, min(threads, tasks, os.cpu_count() or 1))


def _map_ordered(fn, items, threads):
    """`fn(*item)` for each argument tuple of `items`, in a deterministic
    work pool of `_worker_count` workers: results always merged in
    submission order."""
    workers = _worker_count(threads, len(items))
    if workers == 1:
        return [fn(*item) for item in items]
    # the fork start method starts every worker at the first submit
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*items), chunksize=1))


def stage1(chain: ChainModel, config: Stage1Config, seed: int = 0, threads: int = 1):
    """Integer group-size search across the gate-time scan.

    The scan is split into `_worker_count` contiguous parts, one per
    worker, each searched in lockstep (`_stage1_gate_times`); a gate time's
    candidates do not depend on which gate times share its stack, so the
    result does not depend on `threads`.  Returns the global top-K
    `Stage1Candidate`s ranked by pulse-error-adjusted infidelity (ties
    broken by SDK count, gate time, then lexicographic z), plus a telemetry
    dict.
    """
    mu, nu = config.targets
    if abs(mu - nu) != 1:
        raise ValueError("stage-1 optimisation expects a neighbouring ion pair")
    if not (0 <= min(mu, nu) and max(mu, nu) < chain.num_ions):
        raise ValueError("target ions out of range")

    scan = np.arange(len(config.gate_time_scan))
    parts = np.array_split(scan, _worker_count(threads, len(scan)))
    tasks = [(chain, config, part.tolist(), seed) for part in parts]
    outputs = _map_ordered(_stage1_gate_times, tasks, threads)

    merged: list[Stage1Candidate] = []
    evaluations = 0
    for per_gate_time, evals in outputs:
        for candidates in per_gate_time:
            merged.extend(candidates)
        evaluations += evals
    merged.sort(key=Stage1Candidate.sort_key)
    telemetry = {
        "stage1_evaluations": evaluations,
        "stage1_candidates": len(merged),
    }
    # Diversity: each gate time contributes its best candidate before any
    # contributes a second, so stage 2 explores more than one basin.
    leaders: dict[float, Stage1Candidate] = {}
    for cand in merged:
        leaders.setdefault(cand.design_gate_time, cand)
    chosen = sorted(leaders.values(), key=Stage1Candidate.sort_key)[: config.top_k]
    # candidates compare by identity (eq=False)
    chosen += [c for c in merged if c not in chosen][: config.top_k - len(chosen)]
    return chosen, telemetry


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Optimised gate: refined sequence, expanded train, and reports."""

    sequence: PulseGroupSequence
    train: KickTrain
    report: GateReport             # ideal (epsilon = 0) trajectory evaluation
    epsilon: float
    adjusted_fidelity: float
    thermal: ThermalSpec
    seed: int
    telemetry: dict = field(default_factory=dict)

    @property
    def gate_duration(self) -> float:
        """Physical kick span of the trimmed gate, s."""
        if not self.train.kick_times:
            return 0.0
        return self.train.kick_times[-1] - self.train.kick_times[0]

    def to_json_dict(self, chain: ChainModel | None = None) -> dict:
        data = {
            "schema_version": 1,
            "seed": int(self.seed),
            "epsilon": float(self.epsilon),
            "thermal": self.thermal.to_json_dict(),
            "sequence": self.sequence.to_json_dict(),
            "train": self.train.to_json_dict(),
            "report_ideal": self.report.to_json_dict(),
            "adjusted_fidelity": float(self.adjusted_fidelity),
            "gate_duration_s": float(self.gate_duration),
            "telemetry": {
                k: v for k, v in self.telemetry.items() if k != "wall_time_s"
            },
        }
        if chain is not None:
            data["chain"] = chain.to_json_dict()
        return data


_LM_TOL = 1e-8  # ftol, xtol and gtol of the stage-2 timing fits
# Lanes times modes in one batch of speculative joint-refinement fits: with
# few modes an iteration is mostly numpy call overhead, so lanes are nearly
# free; with many, lanes abandoned after an accepted move are wasted work.
# Stage 2 of the N=100 benchmark candidate took a median 1.46 s of CPU at
# 800, against 1.61 s at 400 and 1.60 s at 1600.
_LANE_BUDGET = 800


def _lane_count(modes: int) -> int:
    """Lanes per batch of speculative joint-refinement moves for a chain
    with `modes` modes."""
    return max(1, _LANE_BUDGET // modes)


def _rowdot(a, b):
    """Per-lane dot products of two (lanes, n) stacks, each a 1-D dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _damped_steps(jac, grad, free, damping):
    """Marquardt-damped Gauss-Newton steps over each lane's free variables,
    every lane in one solve: a frozen variable gets an identity row and
    column and a zero right-hand side, so its step is zero and the free
    variables solve the system they would solve on their own.  An entry of
    J^T J reads only its own two columns of J, so the frozen rows and
    columns are zeroed after the product.
    """
    normal = np.where(free[:, :, None] & free[:, None, :], jac.swapaxes(1, 2) @ jac, 0.0)
    diagonal = normal.diagonal(axis1=1, axis2=2)
    # floor keeps the damped system definite when a free column of J vanishes
    scale = np.maximum(diagonal, 1e-12 * diagonal.max(axis=1, keepdims=True))
    normal.reshape(len(normal), -1)[:, :: normal.shape[-1] + 1] = np.where(
        free, diagonal + damping[:, None] * scale, 1.0
    )
    return np.linalg.solve(normal, np.where(free, -grad, 0.0)[:, :, None])[:, :, 0]


def _box_least_squares(fun, x0, lower, upper, budget, stop=None):
    """Minimise sum r(x)^2 subject to lower <= x <= upper, for a stack of
    independent fits.  The bounds are shared by every lane, or (lanes, d)
    stacks with one row per lane.

    Projected Levenberg-Marquardt (More 1978) with an active set: a variable
    at a bound whose gradient points out of the box is frozen for the step,
    and the Marquardt-damped normal equations are solved over the free
    variables only; starts and trial points are clamped into the box.  The
    damping is scaled by the diagonal of J^T J, so underdetermined fits
    (fewer residuals than variables) need no special case.  Each fit stops
    when the relative cost decrease (ftol), the relative step length (xtol)
    or the projected gradient (gtol) falls to `_LM_TOL`, or when its budget
    runs out.

    The fits run as lanes.  `x0` is a (lanes, d) stack of starts, and
    `budget` is shared or one per lane.  `fun(x, lanes)` gets the rows still
    running with their lane indices and returns their (rows, residuals)
    residuals and a function that gives the (rows, residuals, d) Jacobian of
    the rows a boolean mask picks; the solver asks only for the rows whose
    step it accepts.  All lanes advance one iteration at a time, each doing
    exactly the arithmetic it would do alone and stopping once the shared
    evaluation count reaches its budget.  A lane that stops drops out of the
    stack at the top of the next iteration; one that stops on its step
    length still evaluates that step, but keeps its point.
    `stop(finished, cost)`, if given, is called once per iteration, right
    after that iteration's retirements, and once more after every lane has
    stopped, with which lanes have finished and every lane's latest cost
    (final for a finished lane, NaN for an abandoned one); it returns a mask
    of the lanes to abandon, and a running lane it marks leaves the stack
    with NaN results.  Returns (sum r^2, x) per lane.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    lower, upper = np.broadcast_to(lower, x.shape), np.broadcast_to(upper, x.shape)
    budget = np.broadcast_to(budget, len(x))
    best_cost = np.full(len(x), np.nan)
    best_x = np.full_like(x, np.nan)
    finished = np.zeros(len(x), dtype=bool)
    lanes = np.arange(len(x))
    r, jacobian = fun(x, lanes)
    jac = jacobian(np.ones(len(x), dtype=bool))
    evaluations = 1
    cost = _rowdot(r, r)
    damping = np.full(len(x), 1e-3)
    growth = np.full(len(x), 2.0)
    ended = np.zeros(len(x), dtype=bool)  # stopped on the step length or cost decrease
    while True:
        grad = (jac.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        done = ended | (cost <= 0.0) | (np.abs(np.where(free, grad, 0.0)).max(axis=1) <= _LM_TOL)
        done |= evaluations >= budget[lanes]
        finished[lanes[done]] = True
        best_cost[lanes], best_x[lanes] = cost, x
        dropped = done if stop is None else done | stop(finished, best_cost)[lanes]
        best_cost[lanes[dropped & ~done]], best_x[lanes[dropped & ~done]] = np.nan, np.nan
        if dropped.any():
            lanes, x, r, jac, cost, damping, growth, grad, free, lower, upper = (
                a[~dropped]
                for a in (lanes, x, r, jac, cost, damping, growth, grad, free, lower, upper)
            )
        if not len(lanes):
            return best_cost, best_x
        x_new = np.minimum(np.maximum(x + _damped_steps(jac, grad, free, damping), lower), upper)
        delta = x_new - x
        ended = np.sqrt(_rowdot(delta, delta)) <= _LM_TOL * (_LM_TOL + np.sqrt(_rowdot(x, x)))
        linear = r + (jac @ delta[:, :, None])[:, :, 0]
        predicted = cost - _rowdot(linear, linear)
        r_new, jacobian = fun(x_new, lanes)
        evaluations += 1
        cost_new = _rowdot(r_new, r_new)
        # Nielsen's damping rule, floored because J^T J is singular when the
        # fit has fewer residuals than free variables
        accepted = ~ended & (predicted > 0.0) & (cost_new < cost)
        gain = cost - cost_new
        ratio = np.divide(gain, predicted, out=np.zeros_like(gain), where=accepted)
        # Python's float power, as a lone fit computes it: numpy's vectorised
        # power can differ in the last bit
        cube = np.array([u**3 for u in (2.0 * ratio - 1.0).tolist()])
        damping = np.where(
            accepted,
            np.maximum(damping * np.maximum(1.0 / 3.0, 1.0 - cube), 1e-12),
            damping * growth,
        )
        growth = np.where(accepted, 2.0, 2.0 * growth)
        ended |= accepted & (gain <= _LM_TOL * cost)
        x = np.where(accepted[:, None], x_new, x)
        r = np.where(accepted[:, None], r_new, r)
        jac[accepted] = jacobian(accepted)
        cost = np.where(accepted, cost_new, cost)


def _burst_floors(counts, period):
    """The least width of each gap on the grid of `period` for groups of
    `counts` kicks: half of each neighbouring burst plus one period, and
    half the first burst plus half a period before the first group (its
    mirror image lies across the midpoint): on the grid, burst centres
    whose gaps between the nonempty groups reach these floors have slots
    that fit (`bursts_fit`).  An empty group takes a half-width of -1/2,
    which splits the room its two neighbours need between the two gaps
    beside it: the two floors sum to the floor of the gap between those
    neighbours, so holding each gap to its own floor is sufficient but
    stricter than needed.  Row by row for a (lanes, d) stack of counts."""
    half = (np.asarray(counts, dtype=float) - 1.0) / 2.0
    return np.concatenate(
        [half[..., :1] + 0.5, half[..., :-1] + half[..., 1:] + 1.0], axis=-1
    ) * period


def _fit_gaps(bound_cost, start_gaps, gap_lo, gap_hi, budget, stop=None):
    """Timing fits of a stack of lanes, each from its own (d,) row of start
    gaps, every gap held inside [gap_lo, gap_hi].

    Each lane's lower bounds are raised to the burst floors of its sizes
    (`_burst_floors`, capped at `gap_hi`), so a fit whose floors fit its
    windows returns times whose bursts fit the grid.  The gaps are rescaled
    to O(1) for `_box_least_squares`; `budget` and `stop` are passed on to
    it.  Returns the per-lane sum r^2 and refined half times.
    """
    floors = _burst_floors(bound_cost.counts, bound_cost.parent.period)
    lower = np.maximum(gap_lo, np.minimum(floors, gap_hi))

    def residuals_and_jacobian(scaled_gaps, lanes):
        r, per_time = bound_cost.residuals_and_jacobian(
            (scaled_gaps * _GAP_UNIT).cumsum(axis=1), lanes
        )
        # d r / d gap_i = sum_{j >= i} d r / d t_j, rescaled to the gap unit
        return r, lambda rows: per_time(rows)[..., ::-1].cumsum(axis=-1)[..., ::-1] * _GAP_UNIT

    costs, scaled = _box_least_squares(
        residuals_and_jacobian, start_gaps / _GAP_UNIT, lower / _GAP_UNIT,
        gap_hi / _GAP_UNIT, budget, stop,
    )
    return costs, np.cumsum(scaled * _GAP_UNIT, axis=1)


def _lockstep(timing_cost, paths, gap_lo, gap_hi):
    """What each generator of timing-fit requests in `paths` returns.

    A request is (sizes, start gaps, budget, stop): (k, d) stacks, the
    budget of those k lanes, and a `_box_least_squares` hook over them or
    None.  Each round fits every path's pending request as lanes of one
    `_fit_gaps` stack inside [gap_lo, gap_hi], and sends each path its
    per-lane (costs, half times): the results it would get alone, since a
    lane's arithmetic does not depend on the stack.
    """
    results = [None] * len(paths)
    pending = dict.fromkeys(range(len(paths)))  # what each running path is sent next
    while True:
        requests = {}
        for path, sent in pending.items():
            try:
                requests[path] = paths[path].send(sent)
            except StopIteration as end:
                results[path] = end.value
        if not requests:
            return results
        sizes, starts, budgets, hooks = zip(*requests.values())
        edges = np.cumsum([0] + [len(start) for start in starts]).tolist()
        spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

        def stop(finished, cost):
            abandon = np.zeros(len(finished), dtype=bool)
            for hook, span in zip(hooks, spans):
                if hook is not None:
                    abandon[span] = hook(finished[span], cost[span])
            return abandon

        costs, times = _fit_gaps(
            timing_cost.bind(np.concatenate(sizes)), np.concatenate(starts), gap_lo, gap_hi,
            np.repeat(budgets, np.diff(edges)), stop,
        )
        pending = {path: (costs[span], times[span]) for path, span in zip(requests, spans)}


def _refine_times(z, t_start, gap_lo, gap_hi, budget, starts=1, rng=None):
    """Bounded least-squares refinement of the gaps inside the windows, a
    generator of one `_lockstep` request.  The sum of squared residuals
    (phase mismatch plus weighted per-mode displacements) is minimised over
    the gaps from `t_start` clipped into the windows and from extra starts
    jittered around them (drawn from `rng` in start order), each start a
    lane; returns every solution as (sum r^2, half times), best first.
    """
    gaps0 = np.clip(np.diff(np.concatenate([[0.0], t_start])), gap_lo, gap_hi)
    start_gaps = np.array([gaps0] + [
        gaps0 * (1.0 + rng.uniform(-0.15, 0.15, size=len(gaps0))) for _ in range(starts - 1)
    ])
    costs, times = yield np.broadcast_to(z, start_gaps.shape), start_gaps, budget, None
    return sorted(zip(costs.tolist(), times), key=lambda item: item[0])


def _first_improving(trials, t, cost, scorer):
    """The first of `trials`, in order, whose quick timing fit from `t`
    scores below `cost`, as (index, score, half times); None if none does.

    A generator of one `_lockstep` request, each trial a lane of a budget-60
    fit.  Its hook abandons the lanes after the first one whose running cost
    already scores below `cost`: accepted steps only lower a lane's cost and
    the score never falls as the cost rises, so that lane improves, and so
    the first improving lane is the one a trial-by-trial scan would take.
    """
    gaps = np.diff(np.concatenate([[0.0], t]))
    cleared = np.full(len(trials), np.inf)  # the lowest cost found not to improve
    cut = len(trials)  # the first lane known to improve

    def first_improvement(finished, fit_costs):
        nonlocal cut
        for lane in np.flatnonzero(fit_costs[:cut] < cleared[:cut]).tolist():
            if scorer(float(fit_costs[lane]), trials[lane]) < cost:
                cut = lane
                break
            cleared[lane] = fit_costs[lane]
        return np.arange(len(trials)) > cut

    fit_costs, times = yield trials, np.tile(gaps, (len(trials), 1)), 60, first_improvement
    if cut == len(trials):
        return None
    return cut, scorer(float(fit_costs[cut]), trials[cut]), times[cut]


def _joint_refine(timing_cost, z0, t0, gap_lo, gap_hi, bound, cap_half, scorer, rng):
    """Integer moves re-scored by quick timing refinement.

    Escapes the uniform-timing lattice: each candidate z is judged by the
    best analytic cost reachable inside the timing windows, not by its cost
    at the current timings.  `scorer(ideal, z)`, nondecreasing in `ideal`,
    folds in the pulse-error selection pressure.  A move is skipped when its
    burst floors (`_burst_floors`) exceed some gap's upper bound, since no
    timing in the windows expresses it on the grid, or when even a perfect
    fit would not improve on the current cost.  The moves are scored in
    move order, a batch of lanes at a time (`_lane_count`), with first
    improvement: the first improving move of a batch is taken, and the next
    batch starts after it from the new sizes and timings, so the decisions
    are those of scoring the moves one at a time.  A generator for
    `_lockstep`: it yields its timing-fit requests and returns (adjusted
    cost, sizes, half times).
    """
    z = np.asarray(z0, dtype=float)
    ideal, t = (yield from _refine_times(
        z, np.asarray(t0, dtype=float), gap_lo, gap_hi, 400, starts=3, rng=rng
    ))[0]
    cost = scorer(ideal, z)
    lanes = _lane_count(len(timing_cost.w))
    period = timing_cost.period
    for _ in range(6):
        improved = False
        move = 0
        while True:
            trials = z + _descent_moves(len(z))[0]
            # a move whose bursts cannot fit some gap's window is infeasible
            feasible = _move_reach(z[None], bound, cap_half)[0][0] & ~np.any(
                _burst_floors(np.abs(trials), period) > gap_hi, axis=1
            )
            batch = np.flatnonzero(feasible & np.any(trials, axis=1))
            batch = list(itertools.islice(
                (m for m in batch[batch >= move].tolist() if scorer(0.0, trials[m]) < cost), lanes
            ))
            if not batch:
                break
            taken = yield from _first_improving(trials[batch], t, cost, scorer)
            if taken is None:
                move = batch[-1] + 1
                continue
            # first improvement: the rest of the pass moves from the new z
            lane, cost, t = taken
            z = trials[batch[lane]]
            move = batch[lane] + 1
            improved = True
        if not improved:
            break
    ideal, t = (yield from _refine_times(z, t, gap_lo, gap_hi, 500))[0]
    return scorer(ideal, z), [int(v) for v in z], t


def _inside_windows(times, gap_lo, gap_hi, period):
    """Whether each group of a (k, d) stack of half times lies inside both
    of its gap windows, [gap_lo, gap_hi] from the group before (or from
    the midpoint) and to the group after, widened by a quarter slot; the
    last group has no window after it."""
    times = np.asarray(times, dtype=float)
    gap_lo, gap_hi = np.asarray(gap_lo, dtype=float), np.asarray(gap_hi, dtype=float)
    edge = np.full(times.shape[:-1] + (1,), np.inf)
    before = np.concatenate([np.zeros_like(edge), times[..., :-1]], axis=-1)
    after = times[..., 1:]
    low = np.maximum(before + gap_lo, np.concatenate([after - gap_hi[1:], -edge], axis=-1))
    high = np.minimum(before + gap_hi, np.concatenate([after - gap_lo[1:], edge], axis=-1))
    return (low - 0.25 * period <= times) & (times <= high + 0.25 * period)


def _grid_descent(timing_cost, half_sizes, slots, half_times, phase, gap_lo, gap_hi):
    """On-grid descent over the slots of the nonempty groups on the analytic
    surrogate, which matches the expanded-train trajectory cost to float
    precision on the grid.

    The state is the grid `phase` and the first slot of each nonempty
    group's burst, whose centre (`burst_center`) is the group's time, so a
    slot configuration scores the same whatever path reached it; an empty
    group keeps its time from `half_times`.  One move table: each nonempty
    group shifted by +-1 to +-5 slots, group by group, then each two
    adjacent nonempty groups together by +-1 or +-2.  A move must keep the
    bursts on the grid (`bursts_fit`) and each group it moves inside its gap
    windows (`_inside_windows`).  Each pass scores every feasible move as
    one stack and takes the best strictly improving one, the first in table
    order on ties, as stage 1's descent does.  Returns (cost, half times,
    trials scored); the cost is infinite when the start slots do not fit or
    when the descent ends with a group outside its windows (a snapped start
    may begin up to a slot outside them).
    """
    period = timing_cost.period
    active = np.flatnonzero(half_sizes)
    sizes = np.asarray(half_sizes)[active]
    slots = np.asarray(slots)

    def placed(rows):
        times = np.tile(np.asarray(half_times, dtype=float), rows.shape[:-1] + (1,))
        times[..., active] = burst_center(rows, sizes, period, phase)
        return times

    if not bursts_fit(slots, sizes, phase):
        return math.inf, placed(slots).tolist(), 0
    # the sizes are fixed for the whole descent: bind them once
    bound_cost = timing_cost.bind(half_sizes)
    cost = float(bound_cost.cost(placed(slots)[None])[0])
    evaluations = 1
    unit = np.eye(len(active), dtype=int)
    shifts = np.array([step * unit[i] for i in range(len(active))
                       for step in (*range(-5, 0), *range(1, 6))]
                      + [step * (unit[i] + unit[i + 1]) for i in range(len(active) - 1)
                         for step in (-2, -1, 1, 2)])
    for _ in range(40):
        trials = slots + shifts
        times = placed(trials)
        outside = (shifts != 0) & ~_inside_windows(times, gap_lo, gap_hi, period)[:, active]
        feasible = bursts_fit(trials, sizes, phase) & ~outside.any(axis=1)
        trials, times = trials[feasible], times[feasible]
        if not len(trials):
            break
        costs = bound_cost.cost(times)
        evaluations += len(trials)
        best = int(np.argmin(costs))
        if not costs[best] < cost:
            break
        cost, slots = float(costs[best]), trials[best]
    times = placed(slots)
    inside = _inside_windows(times, gap_lo, gap_hi, period)[active].all()
    return (cost if inside else math.inf), times.tolist(), evaluations


def _snapped_in_windows(half_sizes, half_times, rate, phase, gap_lo, gap_hi):
    """The slots of the nonempty groups on the grid of `rate` at `phase`,
    and the half times, placed group by group from the midpoint out so that
    each gap from the group before lies inside [gap_lo, gap_hi]: a nonempty
    group takes the slot nearest its snapped one (`burst_slot`) whose burst
    centre, its time, lies in the window widened by a quarter slot and
    whose burst fits after the ones before it (`bursts_fit`), or keeps its
    snapped slot when none does; an empty group is clipped into its window.
    Snapping moves each group by up to half a slot, so a gap that a fit
    left at the edge of its window may land up to a slot outside it."""
    period = 1.0 / rate
    sizes = [z for z in half_sizes if z != 0]
    slots, times = [], list(half_times)
    for index, size in enumerate(half_sizes):
        prev_t = times[index - 1] if index > 0 else 0.0
        low, high = prev_t + gap_lo[index], prev_t + gap_hi[index]
        if size == 0:
            times[index] = min(max(times[index], low), high)
            continue
        low, high = low - 0.25 * period, high + 0.25 * period
        slot = burst_slot(times[index], size, rate, phase)
        # every slot whose burst centre may lie in the window, and more
        trial = slot + np.arange(math.floor((low - times[index]) / period) - 1,
                                 math.ceil((high - times[index]) / period) + 2)
        centres = burst_center(trial, size, period, phase)
        rows = np.column_stack([np.tile(slots, (len(trial), 1)), trial])
        trial = trial[bursts_fit(rows, sizes[: len(slots) + 1], phase) & (low <= centres)
                      & (centres <= high)]
        if len(trial):
            slot = int(trial[np.argmin(np.abs(trial - slot))])
        slots.append(slot)
        times[index] = float(burst_center(slot, size, period, phase))
    return slots, times


def _adjusted_cost(ideal, z_half, epsilon, counting):
    """Pulse-error-adjusted infidelity of the half sizes `z_half` at ideal
    infidelity `ideal`."""
    pulses = pulse_count_for(2 * int(np.sum(np.abs(z_half))), counting)
    return 1.0 - pulse_error_factor(pulses, epsilon) * (1.0 - ideal)


def _joint_paths(timing_cost, sizes, times, gap_lo, gap_hi, bound, cap_half, restarts,
                 scorer, rng):
    """`_joint_refine` from scaled copies of the sizes and from two smooth
    same-sign envelopes, as (adjusted cost, sizes, half times), best first.

    The envelope starts matter because the exact-closure solutions at larger
    N are gentle same-sign pushes that score terribly at uniform timings and
    so never rank in stage 1.  The envelopes are clipped to +-`bound` per
    group and to a half-sum of |z| of `cap_half` (half the SDK cap), which
    the scaled copies already respect; an all-zero or repeated start is
    skipped.
    """
    z = np.asarray(sizes, dtype=float)
    envelope = np.sin(math.pi * (np.arange(len(z)) + 0.5) / len(z))
    starts = [np.rint(scale * z) for scale in _RESTART_SCALES[: 1 + restarts]] + [
        _clip_to_sdk_cap(np.clip(np.rint(scale * envelope), -bound, bound), cap_half)
        for scale in (1.3, 2.2)
    ]
    paths, seen = [], set()
    for start in starts:
        key = tuple(int(v) for v in start)
        if not np.any(start) or key in seen:
            continue
        seen.add(key)
        paths.append(_joint_refine(
            timing_cost, start, np.asarray(times, dtype=float), gap_lo, gap_hi,
            bound, cap_half, scorer, rng,
        ))
    return sorted(_lockstep(timing_cost, paths, gap_lo, gap_hi), key=lambda p: (p[0], tuple(p[1])))


def _grid_solutions(timing_cost, rate, half_sizes, half_times, gap_lo, gap_hi, scorer):
    """`half_times` put on slots at each grid phase inside the gap windows
    [gap_lo, gap_hi] (`_snapped_in_windows`) and polished there by the
    best-move slot descent `_grid_descent`.

    Returns a (adjusted cost, sizes, half times, phase) tuple for each phase
    whose snapped start fits the grid and whose polish ends inside the
    windows, each nonempty group's time the centre of its burst, and the
    trials the polishes scored.
    """
    solutions, evaluations = [], 0
    for phase in (0.0, 0.5 * timing_cost.period):
        cost, polished, spent = _grid_descent(
            timing_cost, half_sizes,
            *_snapped_in_windows(half_sizes, half_times, rate, phase, gap_lo, gap_hi),
            phase, gap_lo, gap_hi,
        )
        evaluations += spent
        if math.isfinite(cost):
            solutions.append((scorer(cost, half_sizes), tuple(half_sizes), tuple(polished), phase))
    return solutions, evaluations


def _stage2_result(candidate, gate, evaluations, chain, config, seed):
    """The `OptimizationResult` of a (sequence, train) gate refined from
    `candidate`, scored on its trajectories under the stage-1 `config`."""
    sequence, train = gate
    report = evaluate_train(train, chain, config.thermal, counting=config.pulse_counting)
    return OptimizationResult(
        sequence=sequence, train=train, report=report, epsilon=config.epsilon,
        adjusted_fidelity=report.adjusted_fidelity(config.epsilon), thermal=config.thermal,
        seed=seed, telemetry={
            "stage2_evaluations": evaluations,
            "stage1_ideal_infidelity": candidate.ideal_infidelity,
            "bound_at_optimum": candidate.bound_found,
            "design_gate_time_s": candidate.design_gate_time,
        },
    )


def stage2(
    candidate: Stage1Candidate,
    chain: ChainModel,
    stage1_config: Stage1Config,
    stage2_config: Stage2Config,
    seed: int = 0,
) -> OptimizationResult:
    """Refine one candidate on the repetition-rate grid.

    Continuous gap refinement and integer re-scoring against the analytic
    surrogate come first (`_joint_paths`); the stage-1 seed and the refit
    solutions of the best three joint paths are then put on grid slots and
    polished by a best-move descent over slot shifts (`_grid_solutions`),
    and the best solution, whose group times are its burst centres, is
    expanded and scored by the trajectory-based infidelity of its train.
    Every fit and polish keeps one window set: each gap within
    +-`timing_variation` of its Stage-1 value (a quarter slot wider on the
    grid), the solver clamping the fits' starts into it, and the
    negative-time half mirroring the positive half; a polish that cannot
    bring every group inside its windows gives no solution.  Whenever the
    grid expresses the snapped Stage-1 seed inside them, the result is never
    worse than that seed under the trajectory objective; when it does not,
    the joint paths, whose fits keep every gap at or above the burst floor
    of its sizes, may still give a gate.  Raises `GridResolutionError` only
    when no polish gives a solution.  Stage 2 searches under
    `stage1_config`'s thermal state, pulse error, pulse counting and limits:
    integer moves keep every group within `z_bound_max` (or the candidate's
    largest group) and the gate within `max_sdks` SDKs.
    `stage2_evaluations` counts every trial the on-grid polish scores.
    """
    rate = stage2_config.repetition_rate
    base = candidate.sequence.trimmed()
    targets = base.target_ions
    sizes0 = [z for z in base.half_sizes if z != 0]
    times0 = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
    if not sizes0:
        gate = (base, expand_groups(base, rate))
        return _stage2_result(candidate, gate, 0, chain, stage1_config, seed)

    gaps0 = np.diff(np.concatenate([[0.0], times0]))
    gap_lo = (1.0 - stage2_config.timing_variation) * gaps0
    gap_hi = (1.0 + stage2_config.timing_variation) * gaps0
    timing_cost = _TimingCost(chain, targets, stage1_config.thermal, period=1.0 / rate)
    scorer = functools.partial(_adjusted_cost, epsilon=stage1_config.epsilon,
                               counting=stage1_config.pulse_counting)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2)))

    joint = _joint_paths(
        timing_cost, sizes0, times0, gap_lo, gap_hi,
        max(max(map(abs, sizes0)), stage1_config.z_bound_max),
        stage1_config.max_sdks // 2, stage2_config.local_restarts, scorer, rng,
    )
    refits = _lockstep(timing_cost, [
        _refine_times(np.asarray(sizes, dtype=float), t_joint, gap_lo, gap_hi, 600, 3, rng)
        for _, sizes, t_joint in joint[:3]
    ], gap_lo, gap_hi)
    # the stage-1 seed first: the result is never worse than the seed
    starts = [(sizes0, times0)] + [(sizes, t) for (_, sizes, _), refined in zip(joint, refits)
                                   for _, t in refined]
    polished = [_grid_solutions(timing_cost, rate, sizes, times, gap_lo, gap_hi, scorer)
                for sizes, times in starts]
    solutions = [solution for found, _ in polished for solution in found]
    evaluations = sum(spent for _, spent in polished)
    if not solutions:
        raise GridResolutionError(
            f"repetition rate {rate:.3g} Hz cannot express any timing found "
            f"for gate time {candidate.design_gate_time:.3g} s"
        )
    _, sizes, times, phase = min(solutions)
    kept = [(z, t) for z, t in zip(sizes, times) if z != 0]
    sequence = PulseGroupSequence.from_half(*zip(*kept), targets, 2.0 * kept[-1][1])
    gate = (sequence, expand_groups(sequence, rate, grid_phase=phase))
    return _stage2_result(candidate, gate, evaluations, chain, stage1_config, seed)


def _stage2_task(*args):
    """Stage 2 of one candidate, returning rather than raising the error of a
    candidate the repetition rate cannot express, in a worker as in-process."""
    try:
        return stage2(*args)
    except GridResolutionError as exc:
        return exc


def refine_candidates(
    candidates: list,
    chain: ChainModel,
    stage1_config: Stage1Config,
    stage2_config: Stage2Config,
    seed: int = 0,
    threads: int = 1,
) -> tuple:
    """Stage 2 of every stage-1 candidate, results in candidate order.

    A candidate whose timings the repetition rate cannot express is dropped
    instead of aborting the batch.  Returns the results and the number of
    candidates dropped; raises `GridResolutionError` when none is left.
    """
    tasks = [(c, chain, stage1_config, stage2_config, seed) for c in candidates]
    outcomes = _map_ordered(_stage2_task, tasks, threads)
    results = [o for o in outcomes if isinstance(o, OptimizationResult)]
    if not results:
        raise GridResolutionError(
            f"all {len(outcomes)} stage-1 candidates are infeasible at "
            f"{stage2_config.repetition_rate:.3g} Hz; first: {outcomes[0]}"
        )
    return results, len(outcomes) - len(results)


def final_key(result: OptimizationResult) -> tuple:
    """Winner order among stage-2 results: pulse-error-adjusted infidelity,
    then fewer SDKs, shorter gate, lexicographic sizes."""
    return (
        1.0 - result.adjusted_fidelity,
        result.report.sdk_count,
        result.gate_duration,
        result.sequence.group_sizes,
    )


def optimize_gate(
    chain: ChainModel,
    stage1_config: Stage1Config,
    stage2_config: Stage2Config,
    seed: int = 0,
    threads: int = 1,
) -> OptimizationResult:
    """Full two-stage optimisation; deterministic under (seed, configs).

    Stage-1 top-K candidates are refined independently by Stage 2 and the
    winner is the first in `final_key` order.  Candidates stage 2 finds
    infeasible are dropped and counted as `stage2_infeasible`.
    """
    started = time.perf_counter()
    candidates, telemetry = stage1(chain, stage1_config, seed=seed, threads=threads)
    if not candidates:
        raise NoCandidatesError("stage 1 produced no candidates")
    results, infeasible = refine_candidates(
        candidates, chain, stage1_config, stage2_config, seed=seed, threads=threads
    )
    best = min(results, key=final_key)
    merged = dict(best.telemetry)
    merged.update(telemetry)
    merged["stage2_evaluations"] = sum(r.telemetry.get("stage2_evaluations", 0) for r in results)
    merged["stage2_candidates"] = len(candidates)
    merged["stage2_infeasible"] = infeasible
    merged["wall_time_s"] = time.perf_counter() - started
    return replace(best, telemetry=merged)


def jitter_sensitivity(
    result: OptimizationResult,
    chain: ChainModel,
    fractional_instability: float,
    samples: int = 100,
    seed: int = 0,
) -> dict:
    """Monte Carlo shot-to-shot timing jitter study.

    Each shot draws uniform fractional perturbations of the repetition rate
    and of the trap frequency (constant within the shot), re-evaluates the
    trajectory infidelity, and reports the mean and 95th percentile of the
    added infidelity.  The shifts are drawn shot by shot, rate before trap;
    the shots' scaled trains and frequency-scaled chains are then evaluated
    together (`evaluate_trains`), their 2 x `samples` basis-state lanes
    sharing one per-kick loop, each report bit-identical to evaluating its
    shot alone.  The unjittered train's lanes lead the same stack.
    """
    if not 0.0 <= fractional_instability < 1.0:
        # a rate shift of -1 or less would stop or reverse the scaled train
        raise ValueError("fractional_instability must be in [0, 1)")
    if samples < 1:
        raise ValueError("samples must be positive")
    if fractional_instability == 0.0:
        base = evaluate_train(result.train, chain, result.thermal).ideal_infidelity
        return {"mean_added": 0.0, "p95_added": 0.0, "base_infidelity": base}

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3)))
    trains, chains = [result.train], [chain]
    for _ in range(samples):
        rate_shift, trap_shift = rng.uniform(
            -fractional_instability, fractional_instability, size=2
        )
        trains.append(result.train.scaled_times(1.0 / (1.0 + rate_shift)))
        chains.append(chain.with_frequency_scale(1.0 + trap_shift))
    base, *shots = (r.ideal_infidelity for r in evaluate_trains(trains, chains, result.thermal))
    added = np.array([ideal - base for ideal in shots])
    return {
        "mean_added": float(np.mean(added)),
        "p95_added": float(np.percentile(added, 95)),
        "base_infidelity": base,
    }
