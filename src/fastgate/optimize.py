"""Two-stage pulse-sequence optimisation.

One closed form, the phasor kernel `fidelity._TimingCost`, serves both
stages: stage 1 scores its quadratic forms at period 0 (`CostModel`), and
stage 2 uses it with the grid period as its fast surrogate.

Stage 1 searches integer group sizes at uniform timings against the
closed-form cost, tightening then gradually loosening the per-group bound
with warm starts; exhaustive enumeration replaces the heuristic below a size
threshold, and rounded continuous relaxations seed the search at the final
bound.  Both run as lanes of one stack, each lane ending where it would
alone.  The descents of one bound level apply a precomputed move matrix to
every lane's sizes and score all the lanes' feasible trials in one batch;
starts, trials and exhaustive grids share one evaluator, so a row scores the
same bits wherever it comes from.  The relaxations are box-bounded
least-squares fits of the closed-form cost on the stage-2 solver
`_box_least_squares`, the twelve starts as lanes.

Stage 2 refines the group timings on the repetition-rate grid against the
trajectory-based cost, each inter-group gap constrained to within a fraction
of its Stage-1 value.  `stage2` drives named steps.  `_joint_paths` lets
integer moves from the same move matrix, re-scored by quick timing
refinement, escape the stiff uniform-timing lattice.  `_grid_solutions`
snaps a timing to both grid phases and polishes it by on-grid coordinate
descent, returning the evaluations it spent; it runs for the stage-1 seed
inside the stage-1 windows and for each refined joint solution inside its
`_anchored_windows`.  `_expand` turns the best solution the grid expresses
into the gate.  The timing refinement is a small projected
Levenberg-Marquardt solver on the box-bounded gaps, written here in numpy
because the fits are tiny: one gap per group against one residual per mode
plus the phase.  Independent fits run as lanes of one stack (the starts of
one refinement, or a batch of integer moves), each lane doing exactly the
arithmetic it would do alone, so the numpy call overhead is paid once per
batch.  A batch of moves stops once every lane up to the first improving
move has finished: that move is taken, the lanes after it are abandoned, and
the next batch starts after it, which keeps the decisions of scoring the
moves one at a time.  The lane count follows from the mode count
(`_lane_count`).  Both stages are deterministic under a seed, and parallel
work is merged in a fixed order so serial and parallel runs produce
identical output.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import ChainModel
from .fidelity import (
    PHASE_TARGET,
    GateReport,
    ThermalSpec,
    _TimingCost,
    evaluate_train,
    evaluate_trains,
    pulse_count_for,
    pulse_error_factor,
)
from .sequence import (
    BurstOverlap,
    GridResolutionError,
    KickTrain,
    PulseGroupSequence,
    expand_groups,
    snap_group_time,
)

DEFAULT_GATE_TIME_SCAN = tuple(0.5e-6 + 50e-9 * k for k in range(21))  # 0.5-1.5 us
DEFAULT_BOUND_SCHEDULE = tuple(range(1, 11))
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
    z_bound_schedule: tuple = DEFAULT_BOUND_SCHEDULE
    thermal: ThermalSpec = ThermalSpec(nbar=0.1)
    epsilon: float = 1e-5                   # pulse error used for model selection
    top_k: int = 10
    restarts: int = 8
    exhaustive_limit: int = 20000
    max_sdks: int = 100
    pulse_counting: str = "pi_pulses"

    def __post_init__(self):
        if self.group_count is not None and (self.group_count % 2 or self.group_count < 2):
            raise ValueError("group_count must be a positive even integer")
        if not self.gate_time_scan:
            raise ValueError("gate_time_scan must be non-empty")
        bounds = self.z_bound_schedule
        if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ValueError("z_bound_schedule must be strictly increasing")
        if self.epsilon < 0.0 or self.top_k < 1 or self.restarts < 0:
            raise ValueError("invalid stage-1 configuration")
        if self.pulse_counting not in ("pi_pulses", "sdks"):
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


class CostModel:
    """Closed-form cost at fixed timings, reduced to two quadratic forms.

    For fixed group times the entangling phase and every residual are linear
    in the half-vector z, so the ideal infidelity collapses to two d x d
    quadratic forms (`_TimingCost.fixed_timing_forms`) evaluated in
    microseconds per candidate.  Every score goes through one evaluator, so
    a row gets the same bits alone or in any stack, and z and -z score equal.
    """

    def __init__(self, chain, targets, half_times, thermal, epsilon, counting, max_sdks):
        kernel = _TimingCost(chain, targets, thermal)
        self.phase_quadratic, self.scaled = kernel.fixed_timing_forms(half_times)
        self.residual_quadratic = self.scaled.T @ self.scaled
        self.epsilon = epsilon
        self.counting = counting
        self.max_sdk_half = max_sdks // 2
        self.evaluations = 0

    def ideal_infidelity(self, z: np.ndarray):
        """A float for one (d,) row of half sizes, one per row of a stack;
        each row is its own 1 x d product with the forms, so its bits do not
        depend on the stack (a three-operand einsum's do at d = 2)."""
        rows = np.ascontiguousarray(np.atleast_2d(z), dtype=float)[:, None, :]
        theta, motional = (((rows @ form) @ rows.swapaxes(1, 2)).ravel()
                           for form in (self.phase_quadratic, self.residual_quadratic))
        costs = (2.0 / 3.0) * (np.abs(theta) - PHASE_TARGET) ** 2 + motional
        return float(costs[0]) if np.ndim(z) == 1 else costs

    def residuals_and_jacobian(self, z, lanes=None) -> tuple:
        """The cost as a sum of squares for `_box_least_squares`: residual 0
        is the weighted phase mismatch, the rest the weighted per-mode
        displacements, and their (modes+1) x d Jacobian, row by row for a
        (lanes, d) stack.  Every lane shares the model, so `lanes` is unused.
        """
        kz = (self.phase_quadratic @ z[:, :, None])[:, :, 0]
        theta = _rowdot(z, kz)
        out = np.empty((len(z), 1 + len(self.scaled)))
        out[:, 0] = math.sqrt(2.0 / 3.0) * (np.abs(theta) - PHASE_TARGET)
        out[:, 1:] = (self.scaled @ z[:, :, None])[:, :, 0]
        jac = np.empty(out.shape + (z.shape[1],))
        jac[:, 0] = (2.0 * math.sqrt(2.0 / 3.0) * np.copysign(1.0, theta))[:, None] * kz
        jac[:, 1:] = self.scaled
        return out, jac

    def selection_cost(self, z: np.ndarray) -> np.ndarray:
        """Pulse-error-adjusted infidelity used to rank candidates, one per
        row of a (rows, d) stack of half sizes."""
        self.evaluations += len(z)
        pulses = pulse_count_for(2 * np.sum(np.abs(z), axis=1), self.counting)
        return 1.0 - pulse_error_factor(pulses, self.epsilon) * (1.0 - self.ideal_infidelity(z))


@functools.lru_cache(maxsize=None)
def _descent_moves(d: int):
    """Single +-1/+-2 moves plus paired +-1 moves on adjacent coordinates.

    Returned as a read-only (moves x d) delta matrix and the mask of the
    coordinates each move touches, in the fixed move order both stages
    search in.
    """
    singles = [((i,), (delta,)) for i in range(d) for delta in (1, -1, 2, -2)]
    pairs = [
        ((i, i + 1), (di, dj))
        for i in range(d - 1)
        for di in (1, -1)
        for dj in (1, -1)
    ]
    moves = singles + pairs
    deltas = np.zeros((len(moves), d))
    touched = np.zeros((len(moves), d), dtype=bool)
    for row, (idx, steps) in enumerate(moves):
        deltas[row, list(idx)] = steps
        touched[row, list(idx)] = True
    deltas.flags.writeable = False
    touched.flags.writeable = False
    return deltas, touched


def _neighbourhood(z: np.ndarray, bound: int, cap_half: int):
    """Every move applied to z, and which of the trials are feasible.

    A trial is feasible when each coordinate the move touches stays within
    `bound` and the half-sum of |z| stays within `cap_half`.  For a
    (lanes, d) stack of z the trials are (lanes, moves, d).
    """
    deltas, touched = _descent_moves(np.shape(z)[-1])
    trials = z[..., None, :] + deltas
    magnitude = np.abs(trials)
    feasible = ~np.any(touched & (magnitude > bound), axis=-1)
    feasible &= np.sum(magnitude, axis=-1) <= cap_half
    return trials, feasible


def _coordinate_descent(model: CostModel, z0: np.ndarray, bound: int, max_passes: int = 400):
    """Greedy integer descent over single and adjacent-pair moves.

    Each pass applies the whole move matrix to z at once, scores the
    feasible trials in move order in one batch, and takes the best strictly
    improving move (the first on ties) until none remains.  `z0` is a
    (lanes, d) stack of starts whose descents run as lanes: one batch scores
    every running lane's trials, each row as it would be scored alone, and a
    lane stops on its own.  Returns (z, cost) per lane.
    """
    z = np.array(z0, dtype=float)
    cost = model.selection_cost(z)
    lanes = np.arange(len(z))
    for _ in range(max_passes):
        trials, feasible = _neighbourhood(z[lanes], bound, model.max_sdk_half)
        costs = np.full(feasible.shape, np.inf)
        costs[feasible] = model.selection_cost(trials[feasible])
        best = np.argmin(costs, axis=1)
        best_cost = costs[np.arange(len(lanes)), best]
        moved = feasible.any(axis=1) & ~(best_cost >= cost[lanes])
        z[lanes[moved]] = trials[moved, best[moved]]
        cost[lanes[moved]] = best_cost[moved]
        lanes = lanes[moved]
        if not len(lanes):
            break
    return z.astype(int), cost


def _size_grid(d: int, bound: int) -> np.ndarray:
    """Every z in [-bound, bound]^d as float rows, the last coordinate fastest."""
    return (np.indices((2 * bound + 1,) * d).reshape(d, -1).T - bound).astype(float)


def _clip_to_sdk_cap(z: np.ndarray, cap: int) -> np.ndarray:
    """Deterministically shrink the largest entries until sum |z| <= cap."""
    z = z.copy()
    while np.sum(np.abs(z)) > cap:
        i = int(np.argmax(np.abs(z)))
        z[i] -= int(np.sign(z[i]))
    return z


def _continuous_seeds(model: CostModel, bound: int, rng, starts: int = 12):
    """Rounded continuous relaxations of the cost, with scaling sweeps.

    The integer landscape is a coarse lattice over narrow valleys; rounding
    the continuous optimum (and rescalings of it that keep the entangling
    phase near target) lands the descent inside the right basin.
    """
    d = model.phase_quadratic.shape[0]
    K = model.phase_quadratic

    x0 = np.array([rng.uniform(-0.6 * bound, 0.6 * bound, size=d) for _ in range(starts)])
    funs, xs = _box_least_squares(model.residuals_and_jacobian, x0, -bound, bound, 200)
    optima = sorted(zip(funs.tolist(), xs), key=lambda p: p[0])

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
    return [s.astype(int) for s in seeds if np.any(s)]


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


def _stage1_single_gate_time(chain, config, gate_time, tg_index, seed):
    """Full bound-schedule search at one gate time; returns candidate pool."""
    n_k = config.group_count or default_group_count(chain.num_ions, config.targets)
    d = n_k // 2
    half_times = [gate_time * ((j + 1) / n_k) for j in range(d)]
    model = CostModel(
        chain, config.targets, half_times, config.thermal,
        config.epsilon, config.pulse_counting, config.max_sdks,
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1, tg_index)))

    pool: dict[tuple, tuple[float, int]] = {}

    def record(z, cost, bound):
        key = tuple(int(v) for v in z)
        if key not in pool or cost < pool[key][0]:
            pool[key] = (float(cost), bound)

    warm: list[np.ndarray] = [np.zeros(d, dtype=int)]
    final_bound = config.z_bound_schedule[-1]
    for bound in config.z_bound_schedule:
        combos = (2 * bound + 1) ** d
        if combos <= config.exhaustive_limit:
            grid = _size_grid(d, bound)
            grid = grid[2 * np.sum(np.abs(grid), axis=1) <= config.max_sdks]
            costs = model.selection_cost(grid)
            order = np.lexsort((np.sum(np.abs(grid), axis=1), costs))
            for idx in order[: max(40, 3 * config.top_k)]:
                record(grid[idx].astype(int), costs[idx], bound)
            warm = [grid[idx].astype(int) for idx in order[:4]]
        else:
            starts = [_clip_to_sdk_cap(np.clip(z, -bound, bound), model.max_sdk_half)
                      for z in warm]
            for _ in range(config.restarts):
                z = rng.integers(-bound, bound + 1, size=d)
                starts.append(_clip_to_sdk_cap(z, model.max_sdk_half))
            if bound == final_bound:
                starts.extend(
                    _clip_to_sdk_cap(z, model.max_sdk_half)
                    for z in _continuous_seeds(model, bound, rng)
                )
            finals = []
            for z, cost in zip(*_coordinate_descent(model, np.array(starts), bound)):
                record(z, cost, bound)
                finals.append((cost, tuple(z)))
            finals.sort()
            warm = [np.array(zt, dtype=int) for _, zt in finals[:4]]

    entries = sorted(pool.items(), key=lambda kv: (kv[1][0], sum(abs(v) for v in kv[0]), kv[0]))
    # Guarantee stage 2 sees a low-pulse-count pattern from this gate time:
    # large-|z| optima of the uniform-timing cost otherwise crowd out the
    # small patterns that refine best once timings move.
    selected = entries[: config.top_k]
    small = [kv for kv in entries if 2 * sum(abs(v) for v in kv[0]) <= 30]
    if small and small[0] not in selected:
        selected = selected[: max(1, config.top_k - 1)] + [small[0]]
    candidates = []
    for z_key, (cost, bound) in selected:
        seq = PulseGroupSequence.from_half(
            list(z_key), half_times, config.targets, gate_time
        ).trimmed()
        ideal = model.ideal_infidelity(np.array(z_key, dtype=float))
        candidates.append(
            Stage1Candidate(
                sequence=seq,
                ideal_infidelity=ideal,
                adjusted_infidelity=cost,
                sdk_count=seq.total_sdks,
                design_gate_time=gate_time,
                bound_found=bound,
            )
        )
    return candidates, model.evaluations


def _stage1_task(args):
    return _stage1_single_gate_time(*args)


def _map_ordered(fn, items, threads):
    """Deterministic work pool: results always merged in submission order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items, chunksize=1))


def stage1(chain: ChainModel, config: Stage1Config, seed: int = 0, threads: int = 1):
    """Integer group-size search across the gate-time scan.

    Returns the global top-K `Stage1Candidate`s ranked by pulse-error-adjusted
    infidelity (ties broken by SDK count, gate time, then lexicographic z),
    plus a telemetry dict.
    """
    mu, nu = config.targets
    if abs(mu - nu) != 1:
        raise ValueError("stage-1 optimisation expects a neighbouring ion pair")
    if not (0 <= min(mu, nu) and max(mu, nu) < chain.num_ions):
        raise ValueError("target ions out of range")

    tasks = [
        (chain, config, gate_time, idx, seed)
        for idx, gate_time in enumerate(config.gate_time_scan)
    ]
    outputs = _map_ordered(_stage1_task, tasks, threads)

    merged: list[Stage1Candidate] = []
    evaluations = 0
    for candidates, evals in outputs:
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
    taken = set(map(id, chosen))
    for cand in merged:
        if len(chosen) >= config.top_k:
            break
        if id(cand) not in taken:
            chosen.append(cand)
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
# Lanes times modes in one batch of speculative stage-2 fits.  With few modes
# an LM iteration is almost all numpy call overhead, paid once per batch, so
# many lanes are nearly free; with many modes the arithmetic dominates and
# lanes abandoned after an accepted move are wasted work.
_LANE_BUDGET = 400


def _lane_count(modes: int) -> int:
    """Lanes per batch of speculative stage-2 work (joint-refinement moves,
    paired grid shifts) for a chain with `modes` modes."""
    return max(1, _LANE_BUDGET // modes)


def _rowdot(a, b):
    """Per-lane dot products of two (lanes, n) stacks, each a 1-D dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _damped_steps(jac, grad, free, damping):
    """Marquardt-damped Gauss-Newton steps over each lane's free variables.

    Lanes are grouped by how many variables they have free, so every lane
    solves the same f x f system, column for column, that it would alone.
    """
    residuals = jac.shape[1]
    step = np.zeros_like(grad)
    counts = free.sum(axis=1)
    for f in set(counts.tolist()):
        rows = counts == f
        picked = free & rows[:, None]  # lane by lane, the free columns in order
        # the free columns of each lane's J as the rows of a C-ordered block
        block = jac.swapaxes(1, 2)[picked].reshape(-1, f, residuals)
        normal = block @ block.swapaxes(1, 2)
        scale = normal.diagonal(axis1=1, axis2=2)
        # floor keeps the damped system definite when a column of J vanishes
        scale = np.maximum(scale, 1e-12 * scale.max(axis=1, keepdims=True))
        normal.reshape(len(normal), -1)[:, :: f + 1] += damping[rows][:, None] * scale
        step[picked] = np.linalg.solve(normal, -grad[picked].reshape(-1, f, 1)).ravel()
    return step


def _box_least_squares(fun, x0, lower, upper, budget, stop=None):
    """Minimise sum r(x)^2 subject to lower <= x <= upper, for a stack of
    independent fits.  The bounds are shared by every lane, or (lanes, d)
    stacks with one row per lane.

    Projected Levenberg-Marquardt (More 1978) with an active set: a variable
    at a bound whose gradient points out of the box is frozen for the step,
    and the Marquardt-damped normal equations are solved over the free
    variables only; the trial point is projected back into the box.  The
    damping is scaled by the diagonal of J^T J, so underdetermined fits
    (fewer residuals than variables) need no special case.  Each fit stops
    when the relative cost decrease (ftol), the relative step length (xtol)
    or the projected gradient (gtol) falls to `_LM_TOL`, or when the budget
    runs out.

    The fits run as lanes.  `x0` is a (lanes, d) stack of starts sharing
    the box; `fun(x, lanes)` gets the rows still running with their lane
    indices and returns (rows, residuals) residuals and a (rows, residuals,
    d) Jacobian.  All lanes advance one iteration at a time, each doing
    exactly the arithmetic it would do alone, and a lane that stops drops
    out of the stack.  Every running lane evaluates once
    per iteration, so the lanes share one count against `budget`.
    `stop(finished, cost)`, if given, is called before each iteration and
    once every lane has stopped, with which lanes have stopped and their
    final costs; returning True abandons the lanes still running, whose
    results are then NaN.  Returns (sum r^2, x) per lane.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    lower, upper = np.broadcast_to(lower, x.shape), np.broadcast_to(upper, x.shape)
    best_cost = np.full(len(x), np.nan)
    best_x = np.full_like(x, np.nan)
    finished = np.zeros(len(x), dtype=bool)
    lanes = np.arange(len(x))
    r, jac = fun(x, lanes)
    evaluations = 1
    cost = _rowdot(r, r)
    damping = np.full(len(x), 1e-3)
    growth = np.full(len(x), 2.0)

    def retire(done):
        stopped = lanes[done]
        finished[stopped] = True
        best_cost[stopped] = cost[done]
        best_x[stopped] = x[done]
        return ~done

    while not (stop is not None and stop(finished, best_cost)) and len(lanes):
        grad = (jac.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        done = (cost <= 0.0) | (np.abs(np.where(free, grad, 0.0)).max(axis=1) <= _LM_TOL)
        if evaluations >= budget:
            done[:] = True
        if done.any():
            keep = retire(done)
            lanes, x, r, jac, cost, damping, growth, grad, free, lower, upper = (
                a[keep]
                for a in (lanes, x, r, jac, cost, damping, growth, grad, free, lower, upper)
            )
            if not len(lanes):
                continue
        x_new = np.minimum(np.maximum(x + _damped_steps(jac, grad, free, damping), lower), upper)
        delta = x_new - x
        done = np.sqrt(_rowdot(delta, delta)) <= _LM_TOL * (_LM_TOL + np.sqrt(_rowdot(x, x)))
        if done.any():
            keep = retire(done)
            lanes, x, r, jac, cost, damping, growth, x_new, delta, lower, upper = (
                a[keep]
                for a in (lanes, x, r, jac, cost, damping, growth, x_new, delta, lower, upper)
            )
            if not len(lanes):
                continue
        linear = r + (jac @ delta[:, :, None])[:, :, 0]
        predicted = cost - _rowdot(linear, linear)
        r_new, jac_new = fun(x_new, lanes)
        evaluations += 1
        cost_new = _rowdot(r_new, r_new)
        # Nielsen's damping rule, floored because J^T J is singular when the
        # fit has fewer residuals than free variables
        accepted = (predicted > 0.0) & (cost_new < cost)
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
        converged = accepted & (gain <= _LM_TOL * cost)
        x = np.where(accepted[:, None], x_new, x)
        r = np.where(accepted[:, None], r_new, r)
        jac = np.where(accepted[:, None, None], jac_new, jac)
        cost = np.where(accepted, cost_new, cost)
        if converged.any():
            keep = retire(converged)
            lanes, x, r, jac, cost, damping, growth, lower, upper = (
                a[keep] for a in (lanes, x, r, jac, cost, damping, growth, lower, upper)
            )
    return best_cost, best_x


def _burst_floors(counts, period):
    """The least width of each gap on the grid of `period` for groups of
    `counts` kicks: half of each neighbouring burst plus one period, and
    half the first burst plus half a period before the first group (its
    mirror image lies across the midpoint).  `_burst_fits` holds the gaps
    between the nonempty groups to these floors.  An empty group takes a
    half-width of -1/2, which splits the room its two neighbours need
    between the two gaps beside it: the two floors sum to what
    `_burst_fits` asks of their sum, so holding each gap to its own floor
    is sufficient but stricter than needed.  Row by row for a (lanes, d)
    stack of counts."""
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
    to O(1) for `_box_least_squares`; `stop` is passed on to it.  Returns
    the per-lane sum r^2 and refined half times.
    """
    floors = _burst_floors(bound_cost.counts, bound_cost.parent.period)
    lower = np.maximum(gap_lo, np.minimum(floors, gap_hi))

    def residuals_and_jacobian(scaled_gaps, lanes):
        r, per_time = bound_cost.residuals_and_jacobian(
            (scaled_gaps * _GAP_UNIT).cumsum(axis=1), lanes
        )
        # d r / d gap_i = sum_{j >= i} d r / d t_j, rescaled to the gap unit
        return r, per_time[..., ::-1].cumsum(axis=-1)[..., ::-1] * _GAP_UNIT

    costs, scaled = _box_least_squares(
        residuals_and_jacobian, start_gaps / _GAP_UNIT, lower / _GAP_UNIT,
        gap_hi / _GAP_UNIT, budget, stop,
    )
    return costs, np.cumsum(scaled * _GAP_UNIT, axis=1)


def _refine_times(timing_cost, z, t_start, gap_lo, gap_hi, budget=400, starts=1, rng=None):
    """Bounded least-squares refinement of the gaps inside the windows.

    The cost is a sum of squared residuals (phase mismatch plus weighted
    per-mode displacements), minimised by `_box_least_squares` over the
    inter-group gaps, each held inside its window.  Optional extra starts
    jitter the initial gaps inside the windows (deterministic under `rng`,
    drawn in start order); all starts run as lanes of one stack, and all
    solutions are returned as (sum r^2, half times), best first.
    """
    gaps0 = np.clip(np.diff(np.concatenate([[0.0], t_start])), gap_lo, gap_hi)
    start_gaps = [gaps0] + [
        np.clip(gaps0 * (1.0 + rng.uniform(-0.15, 0.15, size=len(gaps0))), gap_lo, gap_hi)
        for _ in range(starts - 1)
    ]
    costs, times = _fit_gaps(timing_cost.bind(z), np.array(start_gaps), gap_lo, gap_hi, budget)
    return sorted(zip(costs.tolist(), times), key=lambda item: item[0])


def _first_improving(timing_cost, trials, t, gap_lo, gap_hi, cost, scorer):
    """The first of `trials`, in order, whose quick timing fit from `t`
    scores below `cost`, as (index, score, half times); None if none does.

    Every trial is one lane of a budget-60 fit.  The fits stop as soon as
    every lane up to the first improving one has finished; the lanes after
    it are abandoned unscored.
    """
    gaps = np.clip(np.diff(np.concatenate([[0.0], t])), gap_lo, gap_hi)
    taken = []
    scored = 0  # the lanes before this one finished without improving

    def first_improvement(finished, fit_costs):
        nonlocal scored
        while not taken and scored < len(trials) and finished[scored]:
            score = scorer(float(fit_costs[scored]), trials[scored])
            if score < cost:
                taken.append(score)
            else:
                scored += 1
        return bool(taken)

    _, times = _fit_gaps(
        timing_cost.bind(trials), np.tile(gaps, (len(trials), 1)), gap_lo, gap_hi,
        budget=60, stop=first_improvement,
    )
    return (scored, taken[0], times[scored]) if taken else None


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
    are those of scoring the moves one at a time.
    """
    z = np.asarray(z0, dtype=float)
    ideal, t = _refine_times(
        timing_cost, z, np.asarray(t0, dtype=float), gap_lo, gap_hi, starts=3, rng=rng
    )[0]
    cost = scorer(ideal, z)
    lanes = _lane_count(len(timing_cost.w))
    period = timing_cost.period
    for _ in range(6):
        improved = False
        move = 0
        while True:
            trials, feasible = _neighbourhood(z, bound, cap_half)
            # a move whose bursts cannot fit some gap's window is infeasible
            feasible &= ~np.any(_burst_floors(np.abs(trials), period) > gap_hi, axis=1)
            batch = np.flatnonzero(feasible & np.any(trials, axis=1))
            batch = list(itertools.islice(
                (m for m in batch[batch >= move].tolist() if scorer(0.0, trials[m]) < cost), lanes
            ))
            if not batch:
                break
            taken = _first_improving(timing_cost, trials[batch], t, gap_lo, gap_hi, cost, scorer)
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
    ideal, t = _refine_times(timing_cost, z, t, gap_lo, gap_hi, budget=500)[0]
    return scorer(ideal, z), z.astype(int), t


def _burst_fits(half_sizes, times, period):
    """Whether the group times are in order and every burst fits its gap on
    the grid of `period`: the gap before each nonempty group, from the one
    before it or from the midpoint, reaches its `_burst_floors` value.  Row
    by row for a (k, d) stack of times."""
    kept = np.flatnonzero(half_sizes)
    if not len(kept):
        return np.zeros(np.shape(times)[:-1], dtype=bool)
    times = np.asarray(times, dtype=float)
    kept_times = times[..., kept]
    floors = _burst_floors(np.abs(np.asarray(half_sizes))[kept], period) * (1 - 1e-9)
    return (
        (times[..., 1:] >= times[..., :-1]).all(axis=-1)
        & (kept_times[..., 0] >= floors[0])
        & (kept_times[..., 1:] - kept_times[..., :-1] >= floors[1:]).all(axis=-1)
    )


def _grid_descent(timing_cost, half_sizes, start_times, anchor_gap_lo, anchor_gap_hi,
                  max_slots=5):
    """On-grid coordinate descent over the group times.

    Runs on the analytic surrogate, which matches the expanded-train
    trajectory cost to float precision for valid on-grid configurations;
    single-slot moves plus paired shifts of adjacent groups.  Both kinds of
    move keep each moved group inside its gap windows, [anchor_gap_lo,
    anchor_gap_hi] on either side, widened by a quarter slot.  Each group's
    single-slot scan is scored as one batch and takes the cheapest strictly
    improving slot, the earliest on ties.  The paired shifts take the first
    improvement in order; they are scored a batch of lanes at a time
    (`_lane_count`), and the shifts after an improving one are scored again
    from the new times, so only the shifts a one-at-a-time scan would score
    count as evaluations.  Returns (cost, times, surrogate evaluations); the
    cost is infinite when the start times are infeasible, or when the
    descent ends with some group still outside its windows (a snapped start
    may begin up to a slot outside them).
    """
    period = timing_cost.period
    active = [i for i, zval in enumerate(half_sizes) if zval != 0]

    def windowed(trial, index):
        prev_t = trial[index - 1] if index > 0 else 0.0
        low = prev_t + anchor_gap_lo[index]
        high = prev_t + anchor_gap_hi[index]
        if index + 1 < len(trial):
            low = max(low, trial[index + 1] - anchor_gap_hi[index + 1])
            high = min(high, trial[index + 1] - anchor_gap_lo[index + 1])
        return low - 0.25 * period, high + 0.25 * period

    def inside(trial, index):
        low, high = windowed(trial, index)
        return low <= trial[index] <= high

    times = list(start_times)
    if not _burst_fits(half_sizes, times, period):
        return math.inf, times, 0
    # the sizes are fixed for the whole descent: bind them once
    bound_cost = timing_cost.bind(half_sizes)
    cost = float(bound_cost.cost(np.array([times]))[0])
    evaluations = 1
    lanes = _lane_count(len(timing_cost.w))

    for _ in range(40):
        moved = False
        for index in active:
            low, high = windowed(times, index)
            positions = [times[index] + step * period
                         for step in range(-max_slots, max_slots + 1) if step != 0]
            positions = [position for position in positions if low <= position <= high]
            if not positions:
                continue
            trials = np.array([times] * len(positions))
            trials[:, index] = positions
            trials = trials[_burst_fits(half_sizes, trials, period)]
            if not len(trials):
                continue
            costs = bound_cost.cost(trials)
            evaluations += len(trials)
            best = int(np.argmin(costs))
            if costs[best] < cost:
                cost, times[index] = float(costs[best]), float(trials[best, index])
                moved = True
        shifts = np.array([(index, partner, step) for index, partner in zip(active, active[1:])
                           for step in (-2, -1, 1, 2)], dtype=int).reshape(-1, 3)
        first = 0
        while first < len(shifts):
            # speculative batch: the next feasible shifts, each from the current times
            pending = shifts[first:]
            trials = np.array([times] * len(pending))
            rows = np.arange(len(pending))
            trials[rows, pending[:, 0]] += pending[:, 2] * period
            trials[rows, pending[:, 1]] += pending[:, 2] * period
            batch = []
            for row in np.flatnonzero(_burst_fits(half_sizes, trials, period)).tolist():
                index, partner, _ = pending[row].tolist()
                trial = trials[row].tolist()
                if inside(trial, index) and inside(trial, partner):
                    batch.append(row)
                    if len(batch) == lanes:
                        break
            if not batch:
                break
            costs = bound_cost.cost(trials[batch])
            moved_from, first = first, first + batch[-1] + 1
            for row, c in zip(batch, costs.tolist()):
                evaluations += 1
                if c < cost:
                    # first improvement: later shifts move from the new times
                    cost, times, first = c, trials[row].tolist(), moved_from + row + 1
                    moved = True
                    break
        if not moved:
            break
    if not all(inside(times, index) for index in active):
        return math.inf, times, evaluations
    return cost, times, evaluations


def _snapped(half_sizes, half_times, rate, phase=0.0):
    """Each group's time snapped to its slot on the grid of `rate` at
    `phase`; an empty group keeps its time."""
    return [snap_group_time(t, z, rate, phase) if z != 0 else t
            for z, t in zip(half_sizes, half_times)]


def _snapped_in_windows(half_sizes, half_times, rate, phase, gap_lo, gap_hi):
    """`_snapped`, moved group by group from the midpoint out so that each
    gap from the group before lies inside [gap_lo, gap_hi]: a nonempty
    group whose gap falls outside the window widened by a quarter slot, or
    short of its burst floor (`_burst_floors`), moves by whole slots to the
    nearest slot that meets both, or keeps its snapped time when none does;
    an empty group, which has no slot, is clipped into its window.
    Snapping moves each group by up to half a slot, so a gap that a fit
    left at the edge of its window may land up to a slot outside it."""
    period = 1.0 / rate
    times = _snapped(half_sizes, half_times, rate, phase)
    floors = iter((_burst_floors(np.abs(np.asarray(half_sizes))[np.flatnonzero(half_sizes)],
                                 period) * (1 - 1e-9)).tolist())
    previous = 0.0
    for index, size in enumerate(half_sizes):
        prev_t = times[index - 1] if index > 0 else 0.0
        if size == 0:
            times[index] = min(max(times[index], prev_t + gap_lo[index]), prev_t + gap_hi[index])
            continue
        low = max(prev_t + gap_lo[index] - 0.25 * period, previous + next(floors))
        high = prev_t + gap_hi[index] + 0.25 * period
        t = times[index]
        if t < low:
            t += math.ceil((low - t) / period) * period
        elif t > high:
            t -= math.ceil((t - high) / period) * period
        if low <= t <= high:
            times[index] = t
        previous = times[index]
    return times


def _expand(half_sizes, half_times, targets, rate, phase=0.0):
    """The sequence of the nonempty groups and its train on the grid of
    `rate` at `phase`; None when the grid cannot express it."""
    kept = [(z, t) for z, t in zip(half_sizes, half_times) if z != 0]
    try:
        sequence = PulseGroupSequence.from_half(
            [z for z, _ in kept], [t for _, t in kept], targets, 2.0 * kept[-1][1]
        )
        return sequence, expand_groups(sequence, rate, grid_phase=phase)
    except (BurstOverlap, GridResolutionError, ValueError):
        return None


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
        cost, z_refined, t_refined = _joint_refine(
            timing_cost, start, np.asarray(times, dtype=float), gap_lo, gap_hi,
            bound, cap_half, scorer, rng,
        )
        paths.append((cost, [int(v) for v in z_refined], t_refined))
    return sorted(paths, key=lambda p: (p[0], tuple(p[1])))


def _grid_solutions(timing_cost, rate, half_sizes, half_times, gap_lo, gap_hi, scorer):
    """`half_times` snapped to each grid phase inside the gap windows
    [gap_lo, gap_hi] (`_snapped_in_windows`) and polished there by
    `_grid_descent`.

    Returns a (adjusted cost, sizes, half times, phase) tuple for each phase
    whose snapped start is feasible and whose polish ends inside the
    windows, and the surrogate evaluations spent.
    """
    solutions, evaluations = [], 0
    for phase in (0.0, 0.5 * timing_cost.period):
        cost, polished, spent = _grid_descent(
            timing_cost, half_sizes,
            _snapped_in_windows(half_sizes, half_times, rate, phase, gap_lo, gap_hi),
            gap_lo, gap_hi,
        )
        evaluations += spent
        if math.isfinite(cost):
            solutions.append((scorer(cost, half_sizes), tuple(half_sizes), tuple(polished), phase))
    return solutions, evaluations


def _anchored_windows(half_times, gap_lo, gap_hi, period):
    """Gap windows of +-4 grid slots around the gaps of `half_times`, at
    least a quarter slot wide and inside [gap_lo, gap_hi]; None when one
    of them is empty."""
    gaps = np.diff(np.concatenate([[0.0], half_times]))
    low = np.maximum(np.maximum(gaps - 4.0 * period, 0.25 * period), gap_lo)
    high = np.minimum(gaps + 4.0 * period, gap_hi)
    return None if np.any(high < low) else (low, high)


def _stage2_result(candidate, gate, evaluations, chain, thermal, epsilon, seed, counting):
    """The `OptimizationResult` of a (sequence, train) gate refined from
    `candidate`, scored on its trajectories."""
    sequence, train = gate
    report = evaluate_train(train, chain, thermal, counting=counting)
    return OptimizationResult(
        sequence=sequence, train=train, report=report, epsilon=epsilon,
        adjusted_fidelity=report.adjusted_fidelity(epsilon), thermal=thermal, seed=seed,
        telemetry={
            "stage2_evaluations": evaluations,
            "stage1_ideal_infidelity": candidate.ideal_infidelity,
            "bound_at_optimum": candidate.bound_found,
            "design_gate_time_s": candidate.design_gate_time,
        },
    )


def stage2(
    candidate: Stage1Candidate,
    chain: ChainModel,
    config: Stage2Config,
    thermal: ThermalSpec,
    epsilon: float,
    seed: int = 0,
    counting: str = "pi_pulses",
    max_sdks: int = 100,
    z_bound: int = DEFAULT_BOUND_SCHEDULE[-1],
) -> OptimizationResult:
    """Refine one candidate on the repetition-rate grid.

    Continuous gap refinement and integer re-scoring against the analytic
    surrogate come first (`_joint_paths`); the stage-1 timings and the
    refined ones are then snapped to the grid and polished by coordinate
    descent over the group times (`_grid_solutions`), and the best solution
    the grid expresses is scored by the trajectory-based infidelity of its
    expanded train.  Each gap stays within +-`timing_variation` of its
    Stage-1 value, widened by a quarter grid slot, and the negative-time
    half mirrors the positive half throughout: a polish that cannot bring
    every group inside its windows gives no solution.  Whenever the grid
    expresses the snapped Stage-1 seed inside those windows, the result is
    never worse than that seed under the trajectory objective; when it does
    not, the joint paths, whose fits keep every gap at or above the burst
    floor of its sizes, may still give a gate.  Raises
    `GridResolutionError` only when no path gives a timing the grid
    expresses inside the windows.  Integer moves keep every group
    within `z_bound` and the gate within `max_sdks` SDKs, the limits stage 1
    searched under.  `stage2_evaluations` counts the on-grid surrogate
    evaluations.
    """
    rate = config.repetition_rate
    base = candidate.sequence.trimmed()
    targets = base.target_ions
    sizes0 = [z for z in base.half_sizes if z != 0]
    times0 = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
    if not sizes0:
        gate = (base, expand_groups(base, rate))
        return _stage2_result(candidate, gate, 0, chain, thermal, epsilon, seed, counting)

    gaps0 = np.diff(np.concatenate([[0.0], times0]))
    gap_lo = (1.0 - config.timing_variation) * gaps0
    gap_hi = (1.0 + config.timing_variation) * gaps0
    timing_cost = _TimingCost(chain, targets, thermal, period=1.0 / rate)
    scorer = functools.partial(_adjusted_cost, epsilon=epsilon, counting=counting)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2)))

    joint = _joint_paths(
        timing_cost, sizes0, times0, gap_lo, gap_hi, max(max(map(abs, sizes0)), z_bound),
        max_sdks // 2, config.local_restarts, scorer, rng,
    )
    # Seed path: the stage-1 sizes and timings polished within the stage-1
    # windows (the never-worse-than-seed guarantee); a phase whose snapped
    # seed the grid cannot express gives no solution.
    polished = [_grid_solutions(timing_cost, rate, sizes0, times0, gap_lo, gap_hi, scorer)]
    # Joint paths: the best three refined again from three starts, each
    # solution polished inside windows re-anchored around its gaps.
    for _, sizes, t_joint in joint[:3]:
        refined = _refine_times(
            timing_cost, np.asarray(sizes, dtype=float), t_joint, gap_lo, gap_hi,
            budget=600, starts=3, rng=rng,
        )
        for _, t_solution in refined[:3]:
            windows = _anchored_windows(t_solution, gap_lo, gap_hi, timing_cost.period)
            if windows is not None:
                polished.append(_grid_solutions(
                    timing_cost, rate, sizes, list(t_solution), *windows, scorer
                ))
    solutions = [solution for found, _ in polished for solution in found]
    evaluations = sum(spent for _, spent in polished)
    expressed = (_expand(z, t, targets, rate, phase) for _, z, t, phase in sorted(solutions))
    gate = next(filter(None, expressed), None)
    if gate is None:
        raise GridResolutionError(
            f"repetition rate {rate:.3g} Hz cannot express any timing found "
            f"for gate time {candidate.design_gate_time:.3g} s"
        )
    return _stage2_result(candidate, gate, evaluations, chain, thermal, epsilon, seed, counting)


def _stage2_task(args):
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
    tasks = [
        (c, chain, stage2_config, stage1_config.thermal, stage1_config.epsilon,
         seed, stage1_config.pulse_counting, stage1_config.max_sdks,
         stage1_config.z_bound_schedule[-1])
        for c in candidates
    ]
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
    if fractional_instability < 0.0:
        raise ValueError("fractional_instability must be non-negative")
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
