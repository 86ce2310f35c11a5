"""Two-stage pulse-sequence optimisation.

One closed form, the phasor kernel `fidelity._TimingCost`, serves both
stages: stage 1 scores its quadratic forms at period 0 (`CostModel`), and
stage 2 uses it with the grid period as its fast surrogate.

Stage 1 searches integer group sizes at uniform timings against the
closed-form cost, tightening then gradually loosening the per-group bound
with warm starts; exhaustive enumeration replaces the heuristic below a size
threshold, and rounded continuous relaxations seed the search at the final
bound.  Only the warm starts wait on the bound level before, so the search
runs in two phases: every level's random restarts and seeds descend as
lanes of one stack, each within its level's bound, then the warm starts
walk the levels in order.  Every gate time of the scan (or of one worker's
contiguous part of it) shares those stacks: a lane carries its gate time's
index, each gate time keeping its own rng, warm starts and finds, and each
lane ends where it would alone.  A descent pass screens every
move of every lane from the forms' products with the lane's sizes
(`CostModel.screened_moves`), then builds and scores exactly only the
trials within a proven rounding bound of the lane's best estimate; starts,
trials and exhaustive grids share one exact evaluator, so a row scores the
same bits wherever it comes from, and every decision uses exact scores.
The relaxations are box-bounded least-squares fits of the closed-form cost
on stage 2's solver step (`_box_least_squares`), the twelve starts of every
gate time as lanes of one stack.

Stage 2 refines the group timings on the repetition-rate grid against the
trajectory-based cost, each inter-group gap constrained to within a fraction
of its Stage-1 value.  `stage2` builds one context (`_Stage2`: surrogate,
windows, move limits, pulse-error table and memos) and drives named steps
on it: `_joint_paths` lets integer moves from the same move matrix,
re-scored by quick timing fits, escape the stiff uniform-timing lattice;
the best three joint solutions are refitted; `_grid_solutions` puts the
stage-1 seed and each refit solution on integer grid slots at both
phases, one slot per nonempty group whose time is the centre of its burst,
and polishes the slots by a best-move descent inside the gap windows
(`_grid_descent`); the best solution expands to the gate's train exactly.
Every stage-2 timing fit is a request of a `_SolverPool`: a projected
Levenberg-Marquardt fit of the box-bounded gaps, one lane per start, in
one stack of lanes (`_LMLanes`, the one solver step of both stages), each
lane doing exactly the arithmetic it would do alone.  A path of the pool
is a chain of `_JointPath` states, each waiting on one request; the pool's
docstring holds its rules for cutting a batch of moves and for
speculation.
Both stages are deterministic under a seed, and parallel work is merged in
a fixed order so serial and parallel runs produce identical output.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .chain import ChainModel
from .fidelity import (
    PHASE_TARGET,
    PULSE_COUNTINGS,
    GateReport,
    ThermalSpec,
    _BoundTimingCost,
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
        # at N_p epsilon >= 1 the factor (1 - N_p epsilon)^2 grows with N_p
        pulses = pulse_count_for(self.max_sdks, self.pulse_counting)
        if pulses * self.epsilon >= 1.0:
            raise ValueError(f"epsilon {self.epsilon:g} times the {pulses} pulses of max_sdks "
                             "must be below 1")


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


def _adjusted(ideal, factor):
    """The pulse-error-adjusted infidelity 1 - f (1 - ideal), elementwise
    for arrays of ideal costs and pulse-error factors f."""
    return 1.0 - factor * (1.0 - ideal)


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
        row by default), as `_LMLanes` asks of its function.  Row l is at
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
        return _adjusted(self.ideal_infidelity(z, gate), pulse_error_factor(pulses, self.epsilon))

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
        estimate = _adjusted(mismatch + motional, factor)
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


def _move_reach(z: np.ndarray, bound, cap_half: int):
    """Which trials z + delta of the `_descent_moves` deltas are feasible,
    and each trial's half-sum of |z|, as (lanes, moves) arrays for a
    (lanes, d) stack of z, worked out from the coordinates each move touches
    alone.  A trial is feasible when each coordinate the move touches stays
    within `bound` (one for every lane, or one per lane) and the half-sum of
    |z| stays within `cap_half`."""
    _, coords, steps, touched = _descent_moves(z.shape[1])
    before = z[:, coords]
    after = np.abs(before + steps)
    feasible = ~np.any(touched & (after > np.reshape(bound, (-1, 1, 1))), axis=-1)
    # an untouched slot has no step, so it adds nothing to the norm
    norms = np.sum(np.abs(z), axis=1)[:, None] + np.sum(after - np.abs(before), axis=-1)
    return feasible & (norms <= cap_half), norms


def _coordinate_descent(model: CostModel, z0: np.ndarray, bound, max_passes: int = 400,
                        gates=None):
    """Greedy integer descent over single and adjacent-pair moves.

    Each pass takes the best strictly improving move (the first in move
    order on ties) until none remains.  `z0` is a (lanes, d) stack of
    starts whose descents run as lanes, lane l at gate time `gates[l]` of
    the model (gate time 0 for every lane by default) and within the
    per-group bound `bound` (one for every lane, or one per lane); a lane
    stops on its own.  A pass works through the running lanes in steps of
    at most `_SCREEN_ROWS` trials (`_descent_pass`) and scores in two steps.  The
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
    bounds = np.broadcast_to(bound, len(z))
    step = max(1, _SCREEN_ROWS // len(_descent_moves(z.shape[1])[0]))

    def blocks(lanes):
        return np.split(lanes, range(step, len(lanes), step))

    lanes = np.arange(len(z))
    cost = np.concatenate([model.selection_cost(z[b, None], gates[b])[:, 0] for b in blocks(lanes)])
    for _ in range(max_passes):
        if not len(lanes):
            break
        lanes = np.concatenate([b[_descent_pass(model, z, cost, b, gates[b], bounds[b])]
                                for b in blocks(lanes)])
    return z.astype(int), cost


def _descent_pass(model, z, cost, lanes, gates, bounds):
    """One pass of `_coordinate_descent` for the rows `lanes` of z, at
    gate times `gates` and per-group bounds `bounds`: moves each lane that
    has a strictly improving move, updating z and cost in place, and
    returns which lanes moved."""
    here = z[lanes]
    feasible, norms = _move_reach(here, bounds, model.max_sdk_half)
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


def _lowest_rows(costs, norms, count):
    """The first `count` rows of `np.lexsort((norms, costs))`: lowest cost
    first, then lowest norm, then lowest index.  Only the rows at or below
    the count-th lowest cost (`np.partition`) are sorted; they hold the
    first `count` rows of the full order, in the same order."""
    rows = np.arange(len(costs))
    if len(costs) > count:
        rows = np.flatnonzero(costs <= np.partition(costs, count - 1)[count - 1])
    return rows[np.lexsort((norms[rows], costs[rows]))[:count]]


def _stage1_gate_times(chain, config, scan_indices, seed):
    """Full bound-schedule search at the gate times `scan_indices` of the
    scan.  A bound level at or below `EXHAUSTIVE_LIMIT` size vectors keeps
    the best of its whole grid; a level above it descends its warm starts
    (the best four finds of the level before, clipped to its bound), its
    random restarts and, at `z_bound_max`, the continuous seeds.  The
    enumerated levels are the lowest and come first.  Only the warm starts
    wait on the level before, so the descended levels run in two phases.
    Phase 1 draws every level's restarts and seeds, from each gate time's
    rng in the order a level-by-level search draws them, and descends them
    all as lanes of one stack, each lane within its level's bound.  Phase 2
    walks the descended levels in order, each level's warm starts of every
    gate time as lanes of one stack, and records a level's finds in the
    order warm starts, restarts, seeds.  Each gate time keeps its own rng, warm starts
    and finds, so its candidates depend neither on which gate times share
    its stacks nor on the phases.  Returns each gate time's candidate list
    and the evaluations spent."""
    n_k = config.group_count or default_group_count(chain.num_ions, config.targets)
    d = n_k // 2
    gate_times = [config.gate_time_scan[index] for index in scan_indices]
    half_times = [[gate_time * ((j + 1) / n_k) for j in range(d)] for gate_time in gate_times]
    model = CostModel(chain, config, half_times)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1, index)))
            for index in scan_indices]
    gates = range(len(scan_indices))
    levels = range(1, config.z_bound_max + 1)
    enumerated = [bound for bound in levels if (2 * bound + 1) ** d <= EXHAUSTIVE_LIMIT]
    descended = levels[len(enumerated):]

    # the enumerated levels start the warm chain
    found = [[] for _ in gates]  # per gate time: (sizes, costs, bound) in the order found
    warm = [np.zeros((1, d), dtype=int) for _ in gates]
    for bound in enumerated:
        grid = _size_grid(d, bound)
        grid = grid[2 * np.sum(np.abs(grid), axis=1) <= config.max_sdks]
        norms = np.sum(np.abs(grid), axis=1)
        for gate in gates:
            costs = model.selection_cost(grid, gate)
            kept = _lowest_rows(costs, norms, max(40, 3 * config.top_k))
            found[gate].append((grid[kept].astype(int), costs[kept], bound))
            warm[gate] = grid[kept[:4]].astype(int)
        # the grid is the search's largest array: free it before the descents
        del grid, norms, costs

    # phase 1: the starts that wait on nothing, as (bound, gate, starts)
    # blocks; each gate time's rng draws its restarts level by level, then
    # its seeds
    fresh = [(bound, gate, rngs[gate].integers(-bound, bound + 1, size=(config.restarts, d)))
             for bound in descended for gate in gates]
    if config.z_bound_max in descended:
        fresh += [(config.z_bound_max, gate, np.reshape(seeds, (-1, d))) for gate, seeds
                  in enumerate(_continuous_seeds(model, config.z_bound_max, rngs))]
    counts = [len(z) for _, _, z in fresh]
    fresh_levels = np.repeat(np.array([bound for bound, _, _ in fresh], dtype=int), counts)
    fresh_gates = np.repeat(np.array([gate for _, gate, _ in fresh], dtype=int), counts)
    starts = np.concatenate([np.empty((0, d), dtype=int)] + [z for _, _, z in fresh])
    fresh_z, fresh_cost = _coordinate_descent(
        model, _clip_to_sdk_cap(starts, model.max_sdk_half), fresh_levels, gates=fresh_gates
    )

    # phase 2: the warm chain through the descended levels
    for bound in descended:
        warm_gates = np.repeat(gates, [len(w) for w in warm])
        z, cost = _coordinate_descent(
            model, _clip_to_sdk_cap(np.clip(np.concatenate(warm), -bound, bound),
                                    model.max_sdk_half),
            bound, gates=warm_gates,
        )
        for gate in gates:
            mine, theirs = warm_gates == gate, (fresh_levels == bound) & (fresh_gates == gate)
            sizes = np.concatenate([z[mine], fresh_z[theirs]])
            costs = np.concatenate([cost[mine], fresh_cost[theirs]])
            found[gate].append((sizes, costs, bound))
            warm[gate] = sizes[np.lexsort((*sizes.T[::-1], costs))[:4]]

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
    first = first[np.any(sizes[first], axis=1)]  # the kick-less vector is no gate
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
# Lanes times modes in one batch of joint-refinement moves: with few modes
# an iteration is mostly numpy call overhead, so lanes are nearly free; with
# many, lanes abandoned after an accepted move are wasted work.  In the
# solver pool, `_joint_paths` of the N=100 benchmark candidate took a median
# 0.536 s at 800, against 0.558 s at 400 and 0.588 s at 1600 (9 runs each,
# one core); the N=5 candidate fits a whole pass per batch at all three
# (0.075-0.076 s).
_LANE_BUDGET = 800


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


class _LMLanes:
    """Box-bounded least-squares fits as lanes of one stack that lanes join
    and leave between iterations; each lane minimises sum r(x)^2 subject to
    its own lower <= x <= upper.

    Projected Levenberg-Marquardt (More 1978) with an active set: a variable
    at a bound whose gradient points out of the box is frozen for the step,
    and the Marquardt-damped normal equations are solved over the free
    variables only; starts and trial points are clamped into the box.  The
    damping is scaled by the diagonal of J^T J, so underdetermined fits
    (fewer residuals than variables) need no special case.  A lane stops
    when its relative cost decrease (ftol), relative step length (xtol) or
    projected gradient (gtol) falls to `_LM_TOL`, or when its evaluations
    reach its budget; one that stops on its step length still evaluates
    that step, but keeps its point.

    `admit` queues lanes, each with its own rows of the data `fun` reads.
    `advance` runs one iteration of every running lane and evaluates the
    starts of the queued lanes in the same call `fun(x, *rows)`, which
    returns the (lanes, residuals) residuals and a function that gives the
    (lanes, residuals, d) Jacobian of the lanes a boolean mask picks: the
    solver asks only for the lanes whose point it takes.  Each lane counts
    its own evaluations and does exactly the arithmetic it would do alone,
    so its result depends neither on the lanes beside it nor on when it
    joined.  A lane's scalars and data rows are one record; its vectors
    (point, bounds, gradient, free variables, residuals, Jacobian) are rows
    of contiguous stacks beside it, which numpy walks faster than the
    strided fields of a record.
    """

    def __init__(self, fun):
        self.fun = fun
        self.lanes = None      # per running lane: a record of its scalars and data rows
        self.x = self.lower = self.upper = self.grad = self.free = self.r = self.jac = None
        self.rows = 0          # data arrays per lane
        self.joining = []      # (record, start, lower, upper) of each admit since the last advance
        self.count = 0         # lanes admitted so far: the next lane's id

    @property
    def ids(self):
        return self.lanes["id"]

    def admit(self, x0, lower, upper, budget, *rows):
        """Queue a (k, d) stack of starts as k lanes, each start clamped into
        its box, with the lanes' budgets (shared or one each) and rows of
        `fun`'s data; returns their ids, consecutive from `count`."""
        x0 = np.asarray(x0, dtype=float)
        if self.lanes is None:
            self.rows = len(rows)
            self.lanes = np.zeros(0, np.dtype(
                [(name, float) for name in ("cost", "damping", "growth")]
                + [(name, np.int64) for name in ("evaluations", "budget", "id")]
                + [(f"row{i}", row.dtype, row.shape[1:]) for i, row in enumerate(rows)]
                + [("ended", bool)], align=True))
        new = np.zeros(len(x0), self.lanes.dtype)
        new["damping"], new["growth"] = 1e-3, 2.0
        new["budget"] = budget
        new["id"] = np.arange(self.count, self.count + len(x0))
        for i, row in enumerate(rows):
            new[f"row{i}"] = row
        lower, upper = (np.broadcast_to(bound, x0.shape) for bound in (lower, upper))
        self.count += len(x0)
        self.joining.append((new, np.clip(x0, lower, upper), lower, upper))
        return new["id"]

    def advance(self):
        """One iteration of every running lane, the queued lanes evaluating
        their starts in the same call of `fun`, then every lane's stopping
        test; returns the ids, costs and points of the lanes that stop."""
        lanes, n = self.lanes, len(self.lanes)
        x, lower, upper, jac = self.x, self.lower, self.upper, self.jac
        if n:
            x_new = np.minimum(np.maximum(
                x + _damped_steps(jac, self.grad, self.free, lanes["damping"]), lower), upper)
            delta = x_new - x
            ended = np.sqrt(_rowdot(delta, delta)) <= _LM_TOL * (_LM_TOL + np.sqrt(_rowdot(x, x)))
            linear = self.r + (jac @ delta[:, :, None])[:, :, 0]
            predicted = lanes["cost"] - _rowdot(linear, linear)
            points = x_new
        if self.joining:
            parts = list(zip(*self.joining))
            self.joining = []
            if n:
                parts = [[old, *new] for old, new in zip((lanes, x_new, lower, upper), parts)]
            lanes, points, lower, upper = (np.concatenate(part) for part in parts)
            x = points.copy() if not n else np.concatenate([x, points[n:]])
        r, jacobian = self.fun(points, *(lanes[f"row{i}"] for i in range(self.rows)))
        cost = _rowdot(r, r)
        taken = np.ones(len(lanes), dtype=bool)  # the lanes whose evaluated point becomes theirs
        lanes["evaluations"][n:] = 1
        if n:
            old = lanes[:n]
            accepted = ~ended & (predicted > 0.0) & (cost[:n] < old["cost"])
            gain = old["cost"] - cost[:n]
            # Nielsen's damping rule, floored because J^T J is singular when the
            # fit has fewer residuals than free variables
            damping = old["damping"] * old["growth"]
            better = np.flatnonzero(accepted)
            ratio = gain[better] / predicted[better]
            # Python's float power, as a lone fit computes it: numpy's vectorised
            # power can differ in the last bit
            cube = np.array([u**3 for u in (2.0 * ratio - 1.0).tolist()])
            damping[better] = np.maximum(
                old["damping"][better] * np.maximum(1.0 / 3.0, 1.0 - cube), 1e-12
            )
            old["damping"] = damping
            old["growth"] = np.where(accepted, 2.0, 2.0 * old["growth"])
            old["ended"] = ended | (accepted & (gain <= _LM_TOL * old["cost"]))
            old["evaluations"] += 1
            taken[:n] = accepted
            np.copyto(x[:n], x_new, where=accepted[:, None])
            # `fun` hands r over: it keeps no reference
            np.copyto(r[:n], self.r, where=~accepted[:, None])
        np.copyto(lanes["cost"], cost, where=taken)
        if len(lanes) > n:
            jac = np.empty(r.shape + points.shape[1:])
            jac[:n] = self.jac
        jac[taken] = jacobian(taken)

        grad = (jac.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        done = (lanes["ended"] | (lanes["cost"] <= 0.0)
                | (np.abs(np.where(free, grad, 0.0)).max(axis=1) <= _LM_TOL)
                | (lanes["evaluations"] >= lanes["budget"]))
        self.lanes, self.x, self.lower, self.upper = lanes, x, lower, upper
        self.grad, self.free, self.r, self.jac = grad, free, r, jac
        if not done.any():
            return lanes["id"][:0], lanes["cost"][:0], x[:0]
        stopped = lanes["id"][done], lanes["cost"][done], x[done]
        self.drop(done)
        return stopped

    def drop(self, mask):
        """Remove the running lanes `mask` picks."""
        keep = ~mask
        (self.lanes, self.x, self.lower, self.upper, self.grad, self.free, self.r,
         self.jac) = (part[keep] for part in (self.lanes, self.x, self.lower, self.upper,
                                               self.grad, self.free, self.r, self.jac))


def _box_least_squares(fun, x0, lower, upper, budget):
    """Box-bounded least-squares fits (`_LMLanes`) of a (lanes, d) stack of
    starts, every lane from its start to its end.  The bounds are shared by
    every lane, or (lanes, d) stacks with one row per lane, and `budget` is
    shared or one per lane.  `fun(x, lanes)` gets the rows still running
    with their lane indices and returns what `_LMLanes` asks of its
    function.  Returns (sum r^2, x) per lane.
    """
    fits = _LMLanes(fun)
    fits.admit(x0, lower, upper, budget, np.arange(len(x0)))
    costs, xs = np.empty(len(x0)), np.empty(np.shape(x0))
    while True:
        ids, cost, x = fits.advance()
        costs[ids], xs[ids] = cost, x
        if not len(fits.lanes):
            return costs, xs


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


def _gap_box(sizes, start_gaps, gap_lo, gap_hi, period):
    """The starts and bounds of timing fits of sizes `sizes`, one (d,) row
    or a (lanes, d) stack, from `start_gaps`, rescaled to O(1): every gap
    inside [gap_lo, gap_hi], each lane's lower bounds raised to the burst
    floors of its sizes (`_burst_floors`, capped at `gap_hi`), so a fit
    whose floors fit its windows returns times whose bursts fit the grid."""
    lower = np.maximum(gap_lo, np.minimum(_burst_floors(np.abs(sizes), period), gap_hi))
    return start_gaps / _GAP_UNIT, lower / _GAP_UNIT, gap_hi / _GAP_UNIT


class _Request(NamedTuple):
    """The timing fits a stage-2 path waits on: a (k, d) stack of sizes and
    of start gaps, and the k lanes' budget.  A batch of moves also carries
    its bar and each lane's pulse-error factor: a lane improves when its
    adjusted cost (`_adjusted`) falls below the bar."""

    sizes: np.ndarray
    gaps: np.ndarray
    budget: int
    bar: float | None = None
    factors: np.ndarray | None = None


def _refine_request(z, t_start, gap_lo, gap_hi, budget, starts=1, rng=None):
    """A bounded least-squares refinement of the gaps of sizes z inside the
    windows, each start a lane: the sum of squared residuals (phase
    mismatch plus weighted per-mode displacements) is minimised over the
    gaps from `t_start` clipped into the windows and from extra starts
    jittered around them, drawn from `rng` in start order."""
    gaps0 = np.clip(np.diff(np.concatenate([[0.0], t_start])), gap_lo, gap_hi)
    start_gaps = np.array([gaps0] + [
        gaps0 * (1.0 + rng.uniform(-0.15, 0.15, size=len(gaps0))) for _ in range(starts - 1)
    ])
    return _Request(np.broadcast_to(z, start_gaps.shape), start_gaps, budget)


def _ranked(costs, times):
    """A refinement's per-lane results as (sum r^2, half times), best first."""
    return sorted(zip(costs.tolist(), times), key=lambda item: item[0])


class _Stage2:
    """What every step of one `stage2` call shares: the surrogate and the
    grid `rate`, the gap windows, the move limits (`bound` per group,
    `cap_half` on the half-sum of |z|), the lanes per batch of moves, the
    pulse-error factor of each half-sum of |z| up to the larger of
    `cap_half` and the seed's, and the memos of each z's moves (`trials`)
    and of each snapped start's polish (`polishes`)."""

    def __init__(self, timing_cost, rate, gap_lo, gap_hi, bound, cap_half, epsilon, counting,
                 seed=()):
        self.timing_cost, self.rate, self.gap_lo, self.gap_hi = timing_cost, rate, gap_lo, gap_hi
        self.bound, self.cap_half = bound, cap_half
        self.lanes = max(1, _LANE_BUDGET // len(timing_cost.w))
        self.factors = np.array([pulse_error_factor(pulse_count_for(2 * norm, counting), epsilon)
                                 for norm in range(max(cap_half, int(np.sum(np.abs(seed)))) + 1)])
        self.trials, self.polishes = {}, {}

    def score(self, ideal, z):
        """The adjusted infidelity of half sizes z at ideal cost `ideal`."""
        return float(_adjusted(ideal, self.factors[int(np.sum(np.abs(z)))]))

    def moves_of(self, z):
        """The trials z + delta of every move, each one's pulse-error factor,
        and which are feasible: inside the bound and the SDK cap, nonzero,
        and with burst floors (`_burst_floors`) within every gap's upper
        bound, since no timing in the windows expresses the others on the
        grid.  Worked out once per z, and returned read-only."""
        key = z.tobytes()
        if key not in self.trials:
            trials = z + _descent_moves(len(z))[0]
            feasible, norms = (part[0] for part in _move_reach(z[None], self.bound, self.cap_half))
            feasible &= np.any(trials, axis=1) & ~np.any(
                _burst_floors(np.abs(trials), self.timing_cost.period) > self.gap_hi, axis=1
            )
            found = trials, self.factors[np.where(feasible, norms, 0).astype(int)], feasible
            for part in found:
                part.flags.writeable = False
            self.trials[key] = found
        return self.trials[key]

    def after(self, z, t, cost, passes, move, improved):
        """The state that fits the next batch of moves of sizes z at half
        times t and adjusted cost `cost`: at most `lanes` moves from move
        `move` on, in move order, of pass `passes`, which has `improved` or
        not.  A move is skipped when it is infeasible (`moves_of`) or when
        even a perfect fit would not improve on `cost`.  A pass with no
        moves left ends the passes unless it improved; after six, or when
        they end, the state's request is the last refinement."""
        trials, factors, feasible = self.moves_of(z)
        winnable = np.flatnonzero(feasible & (_adjusted(0.0, factors) < cost))
        while True:
            batch = winnable[winnable >= move][: self.lanes]
            if len(batch):
                gaps = np.tile(np.diff(np.concatenate([[0.0], t])), (len(batch), 1))
                request = _Request(trials[batch], gaps, 60, cost, factors[batch])
                return _JointPath(self, "moves", z, t, request, cost, passes, improved, batch)
            if not improved or passes == 5:
                request = _refine_request(z, t, self.gap_lo, self.gap_hi, 500)
                return _JointPath(self, "end", z, t, request, cost)
            passes, move, improved = passes + 1, 0, False


@dataclass(frozen=True, eq=False)
class _JointPath:
    """A state of a stage-2 path: sizes z at half times t with adjusted
    cost `cost`, the pass of moves it is in, and the request it waits on.
    A joint path goes from its "start" refinement through batches of
    "moves" to its "end" refinement, a refit path is one "refit"; once
    "done" a path has no request and its `value`: (adjusted cost, sizes,
    half times), or a refit's per-lane results best first (`_ranked`)."""

    context: _Stage2
    step: str
    z: np.ndarray
    t: np.ndarray
    request: _Request | None
    cost: float = math.nan
    passes: int = 0
    improved: bool = False
    batch: np.ndarray | None = None   # the moves a "moves" request fits, in move order
    value: tuple | list | None = None

    def successor(self, result):
        """The next state, from the result of this state's request: a
        refinement's per-lane (sum r^2, half times), or a batch's first
        improving lane as (lane, sum r^2, half times), None when no lane
        improves.  First improvement: the rest of the pass moves from the
        new sizes and timings.  This state stays as it is."""
        context = self.context
        if self.step == "moves":
            if result is None:
                return context.after(self.z, self.t, self.cost, self.passes, self.batch[-1] + 1,
                                     self.improved)
            lane, fit_cost, t = result
            z = self.z + _descent_moves(len(self.z))[0][self.batch[lane]]
            return context.after(z, t, context.score(float(fit_cost), z), self.passes,
                                 self.batch[lane] + 1, True)
        ranked = _ranked(*result)
        if self.step == "refit":
            return replace(self, step="done", request=None, value=ranked)
        ideal, t = ranked[0]
        if self.step == "start":
            return context.after(self.z, t, context.score(ideal, self.z), 0, 0, False)
        value = (context.score(ideal, self.z), [int(v) for v in self.z], t)
        return replace(self, step="done", request=None, value=value)


def _lane_residuals(timing_cost, scaled_gaps, *rows):
    """The residuals of the binding that the rows of a stack of lanes make
    (`_TimingCost.bind`) at the half times of the lanes' rescaled gaps, and
    the function that gives their Jacobian in the rescaled gaps, as
    `_LMLanes` asks of its function."""
    r, per_time = _BoundTimingCost(timing_cost, *rows).residuals_and_jacobian(
        (scaled_gaps * _GAP_UNIT).cumsum(axis=1)
    )
    # d r / d gap_i = sum_{j >= i} d r / d t_j, rescaled to the gap unit
    return r, lambda picked: per_time(picked)[..., ::-1].cumsum(axis=-1)[..., ::-1] * _GAP_UNIT


@dataclass(eq=False)
class _Node:
    """A request of one path in `_SolverPool`: its lanes' results so far
    and the state built from them."""

    path: int
    index: int
    state: object
    costs: np.ndarray = None     # per lane: the final sum r^2, NaN until the lane stops
    times: np.ndarray = None
    child: "_Node | None" = None
    assumed: int = 0             # the cut `child` was built on
    final: bool = False
    dropped: bool = False


class _SolverPool:
    """Stage 2's solver pool: paths of timing-fit requests, every request's
    fits lanes of one `_LMLanes` stack on the surrogate of a `_Stage2`
    context, inside its windows [gap_lo, gap_hi] (`_gap_box`).

    A path is a state with a `request` and a `successor(result)`, or with no
    request and a `value` (`_JointPath`).  A request's lanes join the stack
    as soon as the request is made, so a path waits for no other.  A
    refinement's result is every lane's (sum r^2, half times).  A batch of
    moves applies the first-improvement rule as data, every lane of every
    batch in one vectorised test: a lane improves once its adjusted cost,
    running or final, falls below its batch's bar.  Accepted steps only
    lower a lane's cost and the score never falls as the cost rises, so such
    a lane ends improving; the batch's cut, its first improving lane so far,
    drops the lanes after it.  Once the lane at the cut has stopped, the
    successor built on it starts at once, speculatively, while lanes before
    the cut still run; when one of them improves, the cut moves to it and
    the successor is dropped with every state built on it.  A batch's result
    is final once every lane up to its cut has stopped: the cut lane as
    (lane, sum r^2, half times), or None when no lane improves.  Each path
    takes its states in order, the value of its last: no dropped successor
    delivers a result.  Every lane does exactly the arithmetic it would do
    alone, so the values are those of running the requests one at a time.
    """

    def __init__(self, context):
        self.context = context
        # a function that holds no reference to the pool, which is then freed
        # as soon as its run returns, not by a later cycle collection
        self.fits = _LMLanes(functools.partial(_lane_residuals, context.timing_cost))
        self.nodes = []
        self.owner = np.zeros(0, dtype=int)   # per lane id: its node
        self.factor = np.zeros(0)             # per lane id: its pulse-error factor
        self.bar = np.zeros(0)                # per lane id: its batch's bar
        self.first = np.zeros(0, dtype=int)   # per node: the id of its first lane
        self.cut = np.zeros(0, dtype=int)     # per node: its cut, or its lane count

    def run(self, states):
        """The value each path, from its state of `states`, ends with."""
        self.fronts = [self._start(path, state) for path, state in enumerate(states)]
        self.values = [None] * len(states)
        self.open = set(range(len(states)))
        while self.open:
            ids, costs, xs = self.fits.advance()
            owners = self.owner[ids]
            if len(ids):
                lanes = ids - self.first[owners]
                times = np.cumsum(xs * _GAP_UNIT, axis=1)
                for index in set(owners.tolist()):
                    node, mine = self.nodes[index], owners == index
                    node.costs[lanes[mine]], node.times[lanes[mine]] = costs[mine], times[mine]
            moved = self._cut(np.concatenate([ids, self.fits.ids]),
                              np.concatenate([costs, self.fits.lanes["cost"]]))
            for index in sorted(moved.union(owners.tolist())):
                if not self.nodes[index].dropped:
                    self._settle(self.nodes[index])
        return self.values

    def _start(self, path, state):
        """A node for `state`, its request's lanes queued in the stack."""
        node = _Node(path, len(self.nodes), state)
        self.nodes.append(node)
        request, count, first = state.request, 0, 0
        if request is None:
            node.final = True
        else:
            count = len(request.sizes)
            bound = self.context.timing_cost.bind(request.sizes)
            box = _gap_box(request.sizes, request.gaps, self.context.gap_lo, self.context.gap_hi,
                           self.context.timing_cost.period)
            ids = self.fits.admit(*box, request.budget, bound.effective, bound.within_theta)
            first = ids[0]
            node.costs, node.times = np.full(count, np.nan), np.empty(request.sizes.shape)
            moves = request.bar is not None
            self.owner = np.append(self.owner, np.full(count, node.index))
            self.factor = np.append(self.factor, request.factors if moves else np.zeros(count))
            self.bar = np.append(self.bar, np.full(count, request.bar if moves else -np.inf))
        self.first = np.append(self.first, first)
        self.cut = np.append(self.cut, count)
        return node

    def _cut(self, ids, costs):
        """Move each batch's cut to its first lane among `ids` whose adjusted
        cost already falls below the bar, drop the running lanes after each
        cut, and return the nodes whose cut moved."""
        hit = ids[_adjusted(costs, self.factor[ids]) < self.bar[ids]]
        nodes = self.owner[hit]
        moved = set()
        for index, lane in zip(nodes.tolist(), (hit - self.first[nodes]).tolist()):
            if lane < self.cut[index]:
                self.cut[index] = lane
                moved.add(index)
        running = self.fits.ids
        owners = self.owner[running]
        beyond = running - self.first[owners] > self.cut[owners]
        if beyond.any():
            self.fits.drop(beyond)
        return moved

    def _settle(self, node):
        """Act on what `node`'s lanes have given: drop a successor built on a
        cut that has since moved, start the successor once its result is in
        (speculatively while lanes before the cut run), and end the node
        once its result is final."""
        stopped = ~np.isnan(node.costs)
        cut = int(self.cut[node.index])
        if node.child is not None and node.assumed != cut:
            self._drop(node.child)
            node.child = None
        if node.state.request.bar is None:
            ready = final = stopped.all()
            result = node.costs, node.times
        elif cut < len(stopped):
            ready, final = stopped[cut], stopped[:cut + 1].all()
            result = cut, node.costs[cut], node.times[cut]
        else:
            ready = final = stopped.all()
            result = None
        if ready and node.child is None:
            node.child, node.assumed = self._start(node.path, node.state.successor(result)), cut
        if final:
            node.final = True
            front = self.fronts[node.path]
            while front.final and front.child is not None:
                front = front.child
            self.fronts[node.path] = front
            if front.state.request is None and node.path in self.open:
                self.values[node.path] = front.state.value
                self.open.discard(node.path)

    def _drop(self, node):
        """Drop `node` and every node built on it, with their running lanes."""
        dropped = []
        while node is not None:
            node.dropped = True
            dropped.append(node.index)
            node = node.child
        self.fits.drop(np.isin(self.owner[self.fits.ids], dropped))


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


def _slot_run(low, high, size, period, phase):
    """The least and the greatest grid slot of a burst of |size| kicks whose
    centre (`burst_center`) lies in [low, high]: the first exceeds the
    second when none does.  A centre never falls as its slot rises, so the
    slots between are exactly those whose centres lie in the interval."""
    def centre(slot):
        return burst_center(slot, size, period, phase)

    offset = 0.5 * (abs(size) - 1)
    first = math.ceil((low - phase) / period - offset)
    while centre(first) < low:
        first += 1
    while centre(first - 1) >= low:
        first -= 1
    last = math.floor((high - phase) / period - offset)
    while centre(last) > high:
        last -= 1
    while centre(last + 1) <= high:
        last += 1
    return first, last


def _snapped_in_windows(half_sizes, half_times, rate, phase, gap_lo, gap_hi):
    """The slots of the nonempty groups on the grid of `rate` at `phase`,
    and the half times, placed group by group from the midpoint out so that
    each gap from the group before lies inside [gap_lo, gap_hi]: a nonempty
    group takes the slot nearest its snapped one (`burst_slot`) whose burst
    centre, its time, lies in the window widened by a quarter slot and
    whose burst fits after the ones before it (`bursts_fit`), or keeps its
    snapped slot when none does; an empty group is clipped into its window.
    Those slots are one run of integers (`_slot_run`) cut below by the end
    of the burst before, so a group costs the same at any rate.  Snapping
    moves each group by up to half a slot, so a gap that a fit left at the
    edge of its window may land up to a slot outside it."""
    period = 1.0 / rate
    slots, times = [], list(half_times)
    fitting = True  # whether the bursts placed so far fit (`bursts_fit`)
    after = 0 if phase else 1  # the least slot a burst placed next may take
    for index, size in enumerate(half_sizes):
        prev_t = times[index - 1] if index > 0 else 0.0
        low, high = prev_t + gap_lo[index], prev_t + gap_hi[index]
        if size == 0:
            times[index] = min(max(times[index], low), high)
            continue
        slot = burst_slot(times[index], size, rate, phase)
        first, last = _slot_run(low - 0.25 * period, high + 0.25 * period, size, period, phase)
        first = max(first, after)
        if fitting and first <= last:
            slot = min(max(slot, first), last)
        fitting = fitting and slot >= after
        after = slot + abs(size)
        slots.append(slot)
        times[index] = float(burst_center(slot, size, period, phase))
    return slots, times


def _joint_paths(context, sizes, times, restarts, rng):
    """Integer moves re-scored by quick timing refinement, from scaled
    copies of the sizes at `times` and from two smooth same-sign envelopes,
    as (adjusted cost, sizes, half times), best first.

    Escapes the uniform-timing lattice: each z is judged by the best
    analytic cost reachable inside the windows, with the pulse-error
    pressure of `_Stage2.score`.  A path refines its start's timings (three
    starts, drawn from `rng` in start order), then scores the moves in move
    order, a batch of lanes at a time, each lane a budget-60 fit, with
    first improvement: the first improving move of a batch is taken and the
    next batch starts after it (`_JointPath.successor`), so the decisions
    are those of scoring the moves one at a time (skips: `_Stage2.after`).
    The envelopes matter because the exact-closure solutions at larger N
    are gentle same-sign pushes that score terribly at uniform timings and
    so never rank in stage 1; they are clipped to the move limits, which
    the scaled copies already respect.  An all-zero or repeated start is
    skipped.  Every path runs in one `_SolverPool`, and each ends where it
    would alone, whatever the lanes per batch.
    """
    z, t = np.asarray(sizes, dtype=float), np.asarray(times, dtype=float)
    envelope = np.sin(math.pi * (np.arange(len(z)) + 0.5) / len(z))
    starts = [np.rint(scale * z) for scale in _RESTART_SCALES[: 1 + restarts]] + [
        _clip_to_sdk_cap(np.clip(np.rint(scale * envelope), -context.bound, context.bound),
                         context.cap_half)
        for scale in (1.3, 2.2)
    ]
    paths, seen = [], set()
    for start in starts:
        key = tuple(int(v) for v in start)
        if not np.any(start) or key in seen:
            continue
        seen.add(key)
        request = _refine_request(start, t, context.gap_lo, context.gap_hi, 400, 3, rng)
        paths.append(_JointPath(context, "start", start, t, request))
    joint = _SolverPool(context).run(paths)
    return sorted(joint, key=lambda p: (p[0], tuple(p[1])))


def _grid_solutions(context, half_sizes, half_times):
    """`half_times` put on slots at each grid phase inside the windows
    (`_snapped_in_windows`) and polished there by `_grid_descent`: a
    (adjusted cost, sizes, half times, phase) tuple for each phase whose
    snapped start fits the grid and whose polish ends inside the windows,
    each nonempty group's time the centre of its burst, and the trials the
    polishes scored.  `context.polishes` keeps each polish by its snapped
    start (sizes, slots, every half time, phase): a start is polished once,
    and its trials count each time."""
    solutions, evaluations = [], 0
    for phase in (0.0, 0.5 * context.timing_cost.period):
        slots, times = _snapped_in_windows(half_sizes, half_times, context.rate, phase,
                                           context.gap_lo, context.gap_hi)
        key = (tuple(half_sizes), tuple(slots), tuple(times), phase)
        if key not in context.polishes:
            context.polishes[key] = _grid_descent(context.timing_cost, half_sizes, slots, times,
                                                  phase, context.gap_lo, context.gap_hi)
        cost, polished, spent = context.polishes[key]
        evaluations += spent
        if math.isfinite(cost):
            solutions.append((context.score(cost, half_sizes), tuple(half_sizes),
                              tuple(polished), phase))
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

    One context (`_Stage2`) holds what every step shares: the surrogate,
    the windows, the move limits, the pulse-error table and the memos.
    Continuous gap refinement and integer re-scoring against the analytic
    surrogate come first (`_joint_paths`, every path in one solver pool);
    the best three joint paths are refitted, each a "refit" path of one
    more pool; the stage-1 seed and the refit solutions are put on grid
    slots and polished by a best-move descent over slot shifts
    (`_grid_solutions`), and the best solution, whose group times are its
    burst centres, is expanded and scored by the trajectory-based
    infidelity of its train.
    Every fit and polish keeps one window set: each gap within
    +-`timing_variation` of its Stage-1 value (a quarter slot wider on the
    grid), the solver clamping the fits' starts into it, and the
    negative-time half mirroring the positive half; a polish that cannot
    bring every group inside its windows gives no solution.  Whenever the
    grid expresses the snapped Stage-1 seed inside them, the result is never
    worse than that seed under the trajectory objective; when it does not,
    the joint paths, whose fits keep every gap at or above the burst floor
    of its sizes, may still give a gate.  Raises `GridResolutionError` only
    when no polish gives a solution, and `ValueError` for a candidate with
    no kick.  Stage 2 searches under `stage1_config`'s thermal state, pulse
    error, pulse counting and limits: integer moves keep every group within
    `z_bound_max` (or the candidate's largest group) and the gate within
    `max_sdks` SDKs.  Each distinct snapped start is polished once;
    `stage2_evaluations` counts the trials of every start's polish, a
    repeated start's again.
    """
    rate = stage2_config.repetition_rate
    base = candidate.sequence.trimmed()
    targets = base.target_ions
    sizes0 = [z for z in base.half_sizes if z != 0]
    times0 = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
    if not sizes0:
        raise ValueError("stage 2 needs a candidate with at least one kick")
    gaps0 = np.diff(np.concatenate([[0.0], times0]))
    gap_lo = (1.0 - stage2_config.timing_variation) * gaps0
    gap_hi = (1.0 + stage2_config.timing_variation) * gaps0
    context = _Stage2(
        _TimingCost(chain, targets, stage1_config.thermal, period=1.0 / rate), rate,
        gap_lo, gap_hi, max(max(map(abs, sizes0)), stage1_config.z_bound_max),
        stage1_config.max_sdks // 2, stage1_config.epsilon, stage1_config.pulse_counting, sizes0,
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2)))

    joint = _joint_paths(context, sizes0, times0, stage2_config.local_restarts, rng)
    refits = _SolverPool(context).run([
        _JointPath(context, "refit", z, t,
                   _refine_request(np.asarray(z, dtype=float), t, gap_lo, gap_hi, 600, 3, rng))
        for _, z, t in joint[:3]
    ])
    # the stage-1 seed first: the result is never worse than the seed
    starts = [(sizes0, times0)] + [(sizes, t) for (_, sizes, _), refined in zip(joint, refits)
                                   for _, t in refined]
    polished = [_grid_solutions(context, sizes, times) for sizes, times in starts]
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
    candidates dropped; raises `NoCandidatesError` when there are no
    candidates and `GridResolutionError` when none is left.
    """
    if not candidates:
        raise NoCandidatesError("stage 1 produced no candidates")
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
