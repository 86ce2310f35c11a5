import itertools
import json
import math
import pathlib
import types
from dataclasses import replace

import numpy as np
import pytest

from fastgate.chain import TrapConfig, build_chain
from fastgate.fidelity import ThermalSpec, _BoundTimingCost, evaluate_train
from fastgate.optimize import (
    DEFAULT_GATE_TIME_SCAN,
    EXHAUSTIVE_LIMIT,
    CostModel,
    OptimizationResult,
    Stage1Candidate,
    Stage1Config,
    Stage2Config,
    _GAP_UNIT,
    _LANE_BUDGET,
    _RESTART_SCALES,
    _JointPath,
    _LMLanes,
    _Request,
    _SolverPool,
    _Stage2,
    _TimingCost,
    _box_least_squares,
    _burst_floors,
    _clip_to_sdk_cap,
    _continuous_seeds,
    _coordinate_descent,
    _damped_steps,
    _descent_moves,
    _gap_box,
    _gate_time_candidates,
    _grid_descent,
    _grid_solutions,
    _joint_paths,
    _lane_residuals,
    _lowest_rows,
    _move_reach,
    _ranked,
    _refine_request,
    _size_grid,
    _inside_windows,
    _snapped_in_windows,
    _stage1_gate_times,
    default_group_count,
    jitter_sensitivity,
    optimize_gate,
    refine_candidates,
    stage1,
    stage2,
)
from fastgate.sequence import (
    BurstOverlap,
    GridResolutionError,
    KickTrain,
    PulseGroupSequence,
    burst_center,
    burst_slot,
    bursts_fit,
    expand_groups,
    instantaneous_train,
)

NBAR = ThermalSpec(nbar=0.1)


def small_stage1_config(**overrides):
    kwargs = dict(
        targets=(0, 1),
        group_count=8,
        gate_time_scan=(0.8e-6, 1.0e-6),
        z_bound_max=2,
        top_k=4,
        restarts=3,
    )
    kwargs.update(overrides)
    return Stage1Config(**kwargs)


class TestCostModel:
    def test_matches_analytic_cost(self, chain5):
        from fastgate.fidelity import analytic_cost

        rng = np.random.default_rng(1)
        half_times = [((j + 1) / 16) * 1e-6 for j in range(8)]
        model = CostModel(chain5, Stage1Config(targets=(2, 3), epsilon=0.0), half_times)
        for _ in range(20):
            z = rng.integers(-4, 5, size=8)
            seq = PulseGroupSequence.from_half(list(z), half_times, (2, 3), 2e-6)
            assert model.ideal_infidelity(z.astype(float)) == pytest.approx(
                analytic_cost(seq, chain5, NBAR), rel=1e-9, abs=1e-12
            )

    def test_batch_matches_scalar(self, chain5):
        rng = np.random.default_rng(2)
        half_times = [((j + 1) / 16) * 1e-6 for j in range(8)]
        model = CostModel(chain5, Stage1Config(targets=(2, 3)), half_times)
        grid = rng.integers(-3, 4, size=(50, 8)).astype(float)
        batch = model.selection_cost(grid)
        for row, value in zip(grid, batch):
            assert model.selection_cost(row[None])[0] == value

    @pytest.mark.parametrize("num_ions", [2, 5, 20])
    @pytest.mark.parametrize("d", [1, 8, 9])
    def test_forms_match_the_double_sum(self, chain2, chain5, chain20, num_ions, d):
        chain, targets = {2: (chain2, (0, 1)), 5: (chain5, (2, 3)), 20: (chain20, (0, 1))}[num_ions]
        half_times = np.array([0.9e-6 * (j + 1) / (2 * d) for j in range(d)])
        model = CostModel(chain, Stage1Config(targets=targets), half_times)
        w, eta = chain.mode_frequencies, chain.lamb_dicke
        b_mu, b_nu = chain.mode_couplings[:, targets[0]], chain.mode_couplings[:, targets[1]]
        # the full slot list, mirrored half first: slot k carries size (fold @ z)_k
        t_full = np.concatenate([-half_times[::-1], half_times])
        fold = np.vstack([-np.eye(d)[::-1], np.eye(d)])
        # Theta = 8 sum_m eta^2 b^mu b^nu sum_{k > l} z_k z_l sin(w (t_k - t_l))
        pairs = np.zeros((2 * d, 2 * d))
        for k in range(2 * d):
            for l in range(k):
                pairs[k, l] = np.sum(8.0 * eta**2 * b_mu * b_nu
                                     * np.sin(w * (t_full[k] - t_full[l])))
        folded = fold.T @ pairs @ fold
        # residual_m = sqrt(weight_m) 2 eta_m sum_k z_k sin(w_m t_k)
        weights = (4.0 / 3.0) * (0.5 + NBAR.occupations(w)) * (b_mu**2 + b_nu**2)
        sines = np.sin(np.outer(w, t_full)) @ fold
        expected = (0.5 * (folded + folded.T), (2.0 * eta * np.sqrt(weights))[:, None] * sines)
        for got, want in zip((model.phase_quadratic[0], model.scaled[0]), expected):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 9, 16])
    def test_one_evaluator(self, chain5, d):
        # a row scores the same bits alone or in any stack, as a descent
        # start or as a trial, and its mirror -z scores the same bits;
        # large sizes let the squared phase term dominate the sum
        rng = np.random.default_rng(60 + d)
        half_times = [((j + 1) / (2 * d)) * 1e-6 for j in range(d)]
        model = CostModel(chain5, Stage1Config(targets=(2, 3), max_sdks=2000), half_times)
        stack = rng.integers(-40, 41, size=(300, d)).astype(float)
        ideal, scores = model.ideal_infidelity(stack), model.selection_cost(stack)
        assert np.array_equal(model.ideal_infidelity(-stack), ideal)
        assert np.array_equal(model.selection_cost(-stack), scores)
        keep = rng.random(len(stack)) < 0.5
        assert np.array_equal(model.selection_cost(stack[keep]), scores[keep])
        for z, value, score in zip(stack, ideal, scores):
            assert model.ideal_infidelity(z).hex() == float(value).hex()
            assert model.selection_cost(z[None])[0].hex() == score.hex()
        for passes in (0, 1, 3):
            # a lane that moved carries its last trial's score, one that did not its start's
            z, cost = _coordinate_descent(model, stack[:30], 40, max_passes=passes)
            assert np.array_equal(cost, model.selection_cost(z.astype(float)))
            if passes == 0:
                assert np.array_equal(cost, scores[:30])


    def test_stack_rows_match_lone_calls(self, chain5):
        rng = np.random.default_rng(5)
        for d in (1, 4, 8, 9, 16):
            half_times = [((j + 1) / (2 * d)) * 1e-6 for j in range(d)]
            model = CostModel(chain5, Stage1Config(targets=(2, 3)), half_times)
            stack = rng.uniform(-5.0, 5.0, size=(13, d))
            values = model.ideal_infidelity(stack)
            for z, value in zip(stack, values):
                assert float(value).hex() == model.ideal_infidelity(z).hex()

    def test_jacobian_matches_central_differences(self, chain5):
        rng = np.random.default_rng(4)
        half_times = [((j + 1) / 16) * 1e-6 for j in range(8)]
        model = CostModel(chain5, Stage1Config(targets=(2, 3)), half_times)
        samples = [rng.uniform(-3.0, 3.0, size=8) for _ in range(200)]
        thetas = np.array([z @ model.phase_quadratic[0] @ z for z in samples])
        assert thetas.min() < 0.0 < thetas.max()
        # both branches of |theta|, each well away from the kink at theta = 0
        points = [samples[i] for i in np.argsort(thetas)[[0, 1, 2, -3, -2, -1]]]
        step = 1e-6
        for z in points:
            r, jacobian = model.residuals_and_jacobian(z[None])
            r, jac = r[0], jacobian()[0]
            assert np.sum(r**2) == pytest.approx(model.ideal_infidelity(z), rel=1e-12)
            numeric = np.array([
                (model.residuals_and_jacobian((z + step * e)[None])[0][0]
                 - model.residuals_and_jacobian((z - step * e)[None])[0][0]) / (2.0 * step)
                for e in np.eye(8)
            ]).T
            scale = np.max(np.abs(numeric))
            assert np.allclose(jac, numeric, rtol=1e-6, atol=1e-9 * scale)
        assert model.evaluations == 0

    def test_continuous_seeds_match_the_per_start_loop(self, chain5):
        def reference(model, bound, rng, starts=12):
            d = model.phase_quadratic.shape[-1]
            optima = []
            for _ in range(starts):
                x0 = rng.uniform(-0.6 * bound, 0.6 * bound, size=(1, d))
                fun, x = _box_least_squares(model.residuals_and_jacobian, x0, -bound, bound, 200)
                optima.append((fun[0], x[0]))
            optima.sort(key=lambda p: p[0])
            seeds = []
            for _, zc in optima[:4]:
                theta = zc @ model.phase_quadratic[0] @ zc
                if theta != 0.0:
                    scale_star = math.sqrt(math.pi / 4 / abs(theta))
                    for s in np.linspace(0.75, 1.3, 8):
                        seeds.append(np.rint(np.clip(zc * s * scale_star, -bound, bound)))
                seeds.append(np.rint(np.clip(zc, -bound, bound)))
                for _ in range(2):
                    dither = rng.uniform(-0.4, 0.4, size=d)
                    seeds.append(np.rint(np.clip(zc + dither, -bound, bound)))
            return [s.astype(int) for s in seeds if np.any(s)]

        for n, bound in ((8, 10), (9, 4), (5, 7)):
            half_times = [(j + 1) / (2 * n) * 1e-6 for j in range(n)]
            model = CostModel(chain5, Stage1Config(targets=(2, 3)), half_times)
            rngs = [np.random.default_rng(90 + n) for _ in range(2)]
            expected = reference(model, bound, rngs[0])
            seeds = _continuous_seeds(model, bound, [rngs[1]])[0]
            assert len(seeds) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(seeds, expected))
            assert rngs[0].random() == rngs[1].random()

        # the fits of three gate times as lanes of one stack, each gate time
        # drawing from its own rng, give every gate time its lone seeds
        n, bound = 8, 10
        rows = [[(j + 1) / (2 * n) * gate_time for j in range(n)]
                for gate_time in (0.8e-6, 1.0e-6, 1.2e-6)]
        stacked = CostModel(chain5, Stage1Config(targets=(2, 3)), rows)
        rngs = [np.random.default_rng(40 + gate) for gate in range(len(rows))]
        together = _continuous_seeds(stacked, bound, rngs)
        for gate, row in enumerate(rows):
            rng = np.random.default_rng(40 + gate)
            alone = _continuous_seeds(CostModel(chain5, Stage1Config(targets=(2, 3)), row),
                                      bound, [rng])[0]
            assert len(alone) == len(together[gate])
            assert all(np.array_equal(a, b) for a, b in zip(alone, together[gate]))
            assert rng.random() == rngs[gate].random()


def _reference_coordinate_descent(model, z0, bound, max_passes=400, gate=0):
    """The per-move descent loop at the model's gate time `gate`: one trial
    array per move, checked in turn, every trial scored exactly."""
    d = len(z0)
    moves = [((i,), (delta,)) for i in range(d) for delta in (1, -1, 2, -2)]
    moves += [((i, i + 1), (di, dj)) for i in range(d - 1) for di in (1, -1) for dj in (1, -1)]
    z = z0.astype(float).copy()
    cost = model.selection_cost(z[None], gate)[0]
    for _ in range(max_passes):
        trials = []
        for idx, deltas in moves:
            trial = z.copy()
            for i, delta in zip(idx, deltas):
                trial[i] += delta
            if np.max(np.abs(trial[list(idx)])) > bound:
                continue
            if np.sum(np.abs(trial)) > model.max_sdk_half:
                continue
            trials.append(trial)
        if not trials:
            break
        costs = model.selection_cost(np.asarray(trials), gate)
        best = int(np.argmin(costs))
        if costs[best] >= cost:
            break
        z, cost = trials[best], float(costs[best])
    return z.astype(int), cost


class TestCoordinateDescent:
    @pytest.mark.parametrize("d", [8, 9])
    def test_matches_per_move_reference(self, chain5, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(12):
            gate_time = float(rng.uniform(0.6e-6, 1.4e-6))
            half_times = [gate_time * (j + 1) / (2 * d) for j in range(d)]
            bound = int(rng.integers(1, 8))
            max_sdks = int(rng.integers(4, 60))
            models = [
                CostModel(chain5, Stage1Config(targets=(2, 3), max_sdks=max_sdks), half_times)
                for _ in range(2)
            ]
            z0 = _clip_to_sdk_cap(rng.integers(-bound, bound + 1, size=d), max_sdks // 2)
            z_ref, cost_ref = _reference_coordinate_descent(models[0], z0, bound)
            z_new, cost_new = _coordinate_descent(models[1], z0[None], bound)
            assert np.array_equal(z_new[0], z_ref)
            assert cost_new[0] == cost_ref
            assert models[1].evaluations == models[0].evaluations

    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("max_passes", [400, 3])
    def test_stack_matches_lone_descents(self, chain5, d, max_passes):
        rng = np.random.default_rng(300 + d)
        for _ in range(6):
            gate_time = float(rng.uniform(0.6e-6, 1.4e-6))
            half_times = [gate_time * (j + 1) / (2 * d) for j in range(d)]
            bound = int(rng.integers(2, 8))
            max_sdks = int(rng.integers(2 * d, 80))

            def model():
                config = Stage1Config(targets=(2, 3), max_sdks=max_sdks)
                return CostModel(chain5, config, half_times)

            starts = [_clip_to_sdk_cap(rng.integers(-bound, bound + 1, size=d), max_sdks // 2)
                      for _ in range(10)]
            # a lane already at a local minimum stops at its start
            starts.append(_coordinate_descent(model(), starts[0][None], bound)[0][0])
            # a lane so far outside the bound that it has no feasible trial
            stuck = np.full(d, bound + 3)
            assert not _move_reach(stuck[None], bound, max_sdks // 2)[0].any()
            starts.append(stuck)

            lone_model = model()
            lone = [_reference_coordinate_descent(lone_model, z0, bound, max_passes)
                    for z0 in starts]
            stack_model = model()
            z_stack, cost_stack = _coordinate_descent(
                stack_model, np.array(starts), bound, max_passes
            )
            assert stack_model.evaluations == lone_model.evaluations
            for (z_lone, cost_lone), z, cost in zip(lone, z_stack, cost_stack):
                assert np.array_equal(z, z_lone)
                assert cost.hex() == cost_lone.hex()
            assert np.array_equal(z_stack[-2], starts[-2])
            assert np.array_equal(z_stack[-1], starts[-1])
            if max_passes == 3:
                # the pass limit cut at least one lane short of its minimum
                assert any(
                    not np.array_equal(z, _coordinate_descent(model(), z0[None], bound)[0][0])
                    for z, z0 in zip(z_stack, starts)
                )

    def test_equal_cost_mirror_is_not_a_move(self, chain2):
        # z and -z cost the same bits; at bound 1 with one SDK pair allowed,
        # a unit start's only trials are 0 and its mirror, so the lanes whose
        # mirror is their best trial must stop where they start
        half_times = [(j + 1) / 16 * 1e-6 for j in range(8)]
        models = [CostModel(chain2, Stage1Config(targets=(0, 1), max_sdks=2), half_times)
                  for _ in range(2)]
        starts = np.vstack([np.eye(8, dtype=int), -np.eye(8, dtype=int)])
        z_stack, cost_stack = _coordinate_descent(models[1], starts, 1)
        for z0, z, cost in zip(starts, z_stack, cost_stack):
            z_ref, cost_ref = _reference_coordinate_descent(models[0], z0, 1)
            assert np.array_equal(z, z_ref) and cost == cost_ref
        assert models[1].evaluations == models[0].evaluations
        zero_cost = models[0].selection_cost(np.zeros((1, 8)))[0]
        mirrored = (models[0].selection_cost(starts.astype(float)) < zero_cost).tolist()
        assert any(mirrored)
        assert all(np.array_equal(z, z0) for z, z0, m in zip(z_stack, starts, mirrored) if m)

    @pytest.mark.parametrize("screen_rows", [4096, 150])
    def test_gate_times_share_one_stack(self, chain5, monkeypatch, screen_rows):
        # lanes of five gate times, interleaved in one stack (and, with few
        # screen rows, split over many screening steps), each descend as the
        # per-move reference does at their own gate time
        from fastgate import optimize

        monkeypatch.setattr(optimize, "_SCREEN_ROWS", screen_rows)
        d, bound, max_sdks = 8, 5, 60
        rng = np.random.default_rng(500)
        half_times = [[t * (j + 1) / (2 * d) for j in range(d)]
                      for t in rng.uniform(0.6e-6, 1.4e-6, size=5)]

        def model():
            return CostModel(chain5, Stage1Config(targets=(2, 3), max_sdks=max_sdks), half_times)

        for gate, row in enumerate(half_times):
            lone = CostModel(chain5, Stage1Config(targets=(2, 3), max_sdks=max_sdks), row)
            assert lone.phase_quadratic[0].tobytes() == model().phase_quadratic[gate].tobytes()
            assert lone.scaled[0].tobytes() == model().scaled[gate].tobytes()
        starts = np.array([_clip_to_sdk_cap(rng.integers(-bound, bound + 1, size=d), max_sdks // 2)
                           for _ in range(40)])
        gates = rng.integers(0, len(half_times), size=len(starts))
        lone_model, stack_model = model(), model()
        z_stack, cost_stack = _coordinate_descent(stack_model, starts, bound, gates=gates)
        for z0, gate, z, cost in zip(starts, gates, z_stack, cost_stack):
            z_ref, cost_ref = _reference_coordinate_descent(lone_model, z0, bound, gate=gate)
            assert np.array_equal(z, z_ref)
            assert cost.hex() == cost_ref.hex()
        assert stack_model.evaluations == lone_model.evaluations
        assert 0 < stack_model.rescored < stack_model.evaluations

    def test_mirror_ties_take_the_first_move(self, chain5):
        # From z0 = e_j - e_i the trials e_i + e_j and -(e_i + e_j) are exact
        # mirrors: their exact scores are the same bits, while their screened
        # estimates differ by rounding.  Where they are the best trials the
        # descent must take the first in move order, as the reference does,
        # which needs the screen's error band (with a zero band some of
        # these lanes take the mirror).
        d, bound = 8, 3
        deltas = _descent_moves(d)
        starts = []
        for i, j in itertools.combinations(range(d), 2):
            z0 = np.zeros(d, dtype=int)
            z0[[i, j]] = -1, 1
            starts += [z0, -z0]
        ties = 0
        for gate_time in np.linspace(0.6e-6, 1.4e-6, 9):
            half_times = [gate_time * (j + 1) / (2 * d) for j in range(d)]
            model = CostModel(chain5, Stage1Config(targets=(2, 3)), half_times)
            z_stack, cost_stack = _coordinate_descent(model, np.array(starts), bound, 1)
            for z0, z, cost in zip(starts, z_stack, cost_stack):
                z_ref, cost_ref = _reference_coordinate_descent(model, z0, bound, 1)
                assert np.array_equal(z, z_ref) and cost == cost_ref
                mirror = -z_ref - z0
                ties += bool(np.any(z_ref != z0) and np.any(np.all(deltas == mirror, axis=1)))
        assert ties > 0


def test_clip_to_sdk_cap_clips_each_row_of_a_stack_alone():
    def clipped(z, cap):
        # the row-by-row loop: shrink the first largest entry by one
        z = z.copy()
        while np.sum(np.abs(z)) > cap:
            i = int(np.argmax(np.abs(z)))
            z[i] -= int(np.sign(z[i]))
        return z

    rng = np.random.default_rng(7)
    stack = rng.integers(-10, 11, size=(200, 8))
    for cap in (0, 7, 30, 80):
        expected = np.array([clipped(z, cap) for z in stack])
        assert np.array_equal(_clip_to_sdk_cap(stack, cap), expected)
        assert np.array_equal(_clip_to_sdk_cap(stack[3], cap), expected[3])
        assert np.array_equal(_clip_to_sdk_cap(stack.astype(float), cap), expected)


@pytest.mark.parametrize("d, bound", [(8, 1), (9, 1), (4, 3)])
def test_size_grid_matches_itertools(d, bound):
    expected = np.array(list(itertools.product(range(-bound, bound + 1), repeat=d)), dtype=float)
    grid = _size_grid(d, bound)
    assert grid.dtype == expected.dtype
    assert np.array_equal(grid, expected)


def _fit_gaps(timing_cost, sizes, start_gaps, gap_lo, gap_hi, budget):
    """Stage 2's timing fits of sizes `sizes` (one (d,) row or one per lane)
    outside its solver pool, on `_box_least_squares`: each lane from its
    own (d,) row of start gaps, inside the windows and above the burst
    floors (`_gap_box`), to its end; a per-lane binding gives each running
    lane its own rows.  Returns the per-lane sum r^2 and refined half
    times."""
    bound_cost = timing_cost.bind(sizes)
    rows = (bound_cost.effective, bound_cost.within_theta)

    def fun(scaled_gaps, lanes):
        picked = [row[lanes] for row in rows] if bound_cost.effective.ndim == 3 else rows
        return _lane_residuals(timing_cost, scaled_gaps, *picked)

    costs, scaled = _box_least_squares(
        fun, *_gap_box(np.abs(sizes), start_gaps, gap_lo, gap_hi, timing_cost.period), budget,
    )
    return costs, np.cumsum(scaled * _GAP_UNIT, axis=1)


def _refine_alone(timing_cost, z, t_start, gap_lo, gap_hi, budget=400, starts=1, rng=None):
    """One refinement (`_refine_request`) fitted on its own, outside the
    pool (`_fit_gaps`); its solutions best first (`_ranked`)."""
    request = _refine_request(np.asarray(z, dtype=float), np.asarray(t_start, dtype=float),
                              gap_lo, gap_hi, budget, starts, rng)
    return _ranked(*_fit_gaps(timing_cost, request.sizes, request.gaps, gap_lo, gap_hi, budget))


def _reference_joint_refine(context, z0, t0, rng, unwinnable=None):
    """The per-move first-improvement loop of the stage-2 integer moves, on
    the surrogate, windows, move limits and adjusted cost of a `_Stage2`
    context.  Each fitted trial that could not improve even with a perfect
    fit is appended to `unwinnable`, if given."""
    timing_cost, gap_lo, gap_hi = context.timing_cost, context.gap_lo, context.gap_hi
    bound, cap_half, scorer = context.bound, context.cap_half, context.score
    d = len(z0)
    moves = [((i,), (delta,)) for i in range(d) for delta in (1, -1, 2, -2)]
    moves += [((i, i + 1), (di, dj)) for i in range(d - 1) for di in (1, -1) for dj in (1, -1)]
    z = np.asarray(z0, dtype=float)
    ideal, t = _refine_alone(
        timing_cost, z, np.asarray(t0, dtype=float), gap_lo, gap_hi, starts=3, rng=rng
    )[0]
    cost = scorer(ideal, z)
    for _ in range(6):
        improved = False
        for idx, deltas in moves:
            trial = z.copy()
            for i, delta in zip(idx, deltas):
                trial[i] += delta
            if np.max(np.abs(trial[list(idx)])) > bound or not np.any(trial):
                continue
            if np.sum(np.abs(trial)) > cap_half:
                continue
            if np.any(_burst_floors(np.abs(trial), timing_cost.period) > gap_hi):
                continue
            if unwinnable is not None and scorer(0.0, trial) >= cost:
                unwinnable.append(trial)
            c, tt = _refine_alone(timing_cost, trial, t, gap_lo, gap_hi, budget=60)[0]
            c = scorer(c, trial)
            if c < cost:
                z, t, cost = trial, tt, c
                improved = True
        if not improved:
            break
    ideal, t = _refine_alone(timing_cost, z, t, gap_lo, gap_hi, budget=500)[0]
    return scorer(ideal, z), z.astype(int), t


def _joint_refine_alone(context, z0, t0, rng):
    """One joint path from z0 at t0, its "start" state built as
    `_joint_paths` builds it, as the one path of a `_SolverPool`."""
    z, t = np.asarray(z0, dtype=float), np.asarray(t0, dtype=float)
    request = _refine_request(z, t, context.gap_lo, context.gap_hi, 400, 3, rng)
    return _SolverPool(context).run([_JointPath(context, "start", z, t, request)])[0]


def _recorded_successors(monkeypatch):
    """Record every `_JointPath.successor` call as (state, improving lane,
    next state), speculative ones included."""
    from fastgate import optimize

    calls = []
    successor = optimize._JointPath.successor

    def recording(self, lane, costs, times):
        state = successor(self, lane, costs, times)
        calls.append((self, lane, state))
        return state

    monkeypatch.setattr(optimize._JointPath, "successor", recording)
    return calls


def _recorded_batches(monkeypatch):
    """Record the request of every batch of moves the pool fits,
    speculative ones included."""
    from fastgate import optimize

    batches = []
    start = optimize._SolverPool._start

    def recording(pool, state):
        if state.request is not None and state.request.bar > -math.inf:
            batches.append(state.request)
        return start(pool, state)

    monkeypatch.setattr(optimize._SolverPool, "_start", recording)
    return batches


def _taken_chain(calls):
    """The states a path went through, each with the improving lane of its
    result, from the successor calls recorded by `_recorded_successors`:
    each state's last call is the one on its final result, so the chain
    follows it from the start."""
    last = {id(state): (state, lane, after) for state, lane, after in calls}
    chain, state = [], calls[0][0]
    while id(state) in last:
        state, lane, after = last[id(state)]
        chain.append((state, lane))
        state = after
    return chain


class TestJointRefine:
    def test_matches_per_move_reference(self, chain5):
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        times = np.array([0.12e-6, 0.24e-6, 0.36e-6])
        gaps = np.diff(np.concatenate([[0.0], times]))
        for z0, bound, cap_half in (([1, -2, 1], 3, 50), ([2, -1, 0], 2, 3)):
            # about ideal + 1e-4 sum |z|: 4 pi-pulses per unit of |z|
            context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, bound, cap_half,
                              1.25e-5, "pi_pulses")
            outcomes = []
            for joint in (_reference_joint_refine, _joint_refine_alone):
                rng = np.random.default_rng(21)
                cost, z, t = joint(context, np.array(z0), times, rng)
                outcomes.append((cost, z, t, rng.random()))
            (c_ref, z_ref, t_ref, draw_ref), (c_new, z_new, t_new, draw_new) = outcomes
            assert c_new == c_ref
            assert np.array_equal(z_new, z_ref)
            assert np.array_equal(t_new, t_ref)
            assert draw_new == draw_ref

    def test_batches_straddling_accepted_moves_match_per_move_loop(self, chain20, monkeypatch):
        surrogate = _TimingCost(chain20, (0, 1), NBAR, period=1.0 / 300e6)
        d = 8
        times = np.cumsum(np.full(d, 1e-6 / 18))
        gaps = np.diff(np.concatenate([[0.0], times]))
        # about ideal + 2e-5 sum |z|
        context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, 3, 50, 2.5e-6, "pi_pulses")

        calls = _recorded_successors(monkeypatch)
        outcomes = []
        for joint in (_reference_joint_refine, _joint_refine_alone):
            rng = np.random.default_rng(22)
            cost, z, t = joint(context, np.array([1, 2, -1, 1, 0, -2, 1, 1]), times, rng)
            outcomes.append((cost, z, t, rng.random()))
        (c_ref, z_ref, t_ref, draw_ref), (c_new, z_new, t_new, draw_new) = outcomes
        assert c_new == c_ref
        assert np.array_equal(z_new, z_ref)
        assert np.array_equal(t_new, t_ref)
        assert draw_new == draw_ref
        batches = [(len(state.batch), lane)
                   for state, lane in _taken_chain(calls) if state.step == "moves"]
        # several moves were taken part-way through a batch of lanes
        cut_short = [lane for size, lane in batches if lane is not None and lane < size - 1]
        assert len(cut_short) >= 2
        assert max(size for size, _ in batches) == context.lanes == _LANE_BUDGET // 20

    def test_pool_paths_match_each_path_alone(self, chain5):
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        times = np.cumsum(np.full(5, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], times]))
        sizes, bound, cap_half, restarts = [2, -3, 1, 3, -1], 4, 50, 2
        context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, bound, cap_half, 1e-5,
                          "pi_pulses", sizes)
        # the starts of `_joint_paths`, each refined alone, one move at a time
        z = np.asarray(sizes, dtype=float)
        envelope = np.sin(math.pi * (np.arange(len(z)) + 0.5) / len(z))
        starts = [np.rint(scale * z) for scale in _RESTART_SCALES[: 1 + restarts]] + [
            _clip_to_sdk_cap(np.clip(np.rint(scale * envelope), -bound, bound), cap_half)
            for scale in (1.3, 2.2)
        ]
        rng = np.random.default_rng(25)
        alone = []
        for start in starts:
            cost, z_ref, t_ref = _reference_joint_refine(context, start, times, rng)
            alone.append((cost, [int(v) for v in z_ref], t_ref))
        alone.sort(key=lambda p: (p[0], tuple(p[1])))
        # stage 2's refits of the best three, each alone and in one pool
        refits_alone = [_refine_alone(surrogate, z_ref, t_ref, 0.75 * gaps, 1.25 * gaps,
                                      budget=600, starts=3, rng=rng)
                        for _, z_ref, t_ref in alone[:3]]
        draw_ref = rng.random()

        rng = np.random.default_rng(25)
        paths = _joint_paths(context, sizes, times, restarts, rng)
        assert len(paths) == len(alone) == 5
        for (cost, z_new, t_new), (c_ref, z_ref, t_ref) in zip(paths, alone):
            assert cost.hex() == c_ref.hex()
            assert z_new == z_ref
            assert t_new.tobytes() == t_ref.tobytes()
        refits = _SolverPool(context).run([
            _JointPath(context, "refit", np.asarray(z, dtype=float), t,
                       _refine_request(np.asarray(z, dtype=float), t, 0.75 * gaps, 1.25 * gaps,
                                       600, 3, rng))
            for _, z, t in paths[:3]
        ])
        assert len(refits) == 3
        for pooled, lone in zip(refits, refits_alone):
            assert len(pooled) == len(lone) == 3
            assert [(c.hex(), t.tobytes()) for c, t in pooled] == [
                (c.hex(), t.tobytes()) for c, t in lone]
        assert rng.random() == draw_ref

    def test_a_refit_pool_never_cuts(self, chain5, monkeypatch):
        # every request of a pool of refits keeps its bar at -inf, so the
        # pool skips the cut; a pool with batches of moves still cuts
        from fastgate import optimize

        cuts = []
        cut = optimize._SolverPool._cut

        def spy(pool, *args):
            cuts.append(pool)
            return cut(pool, *args)

        monkeypatch.setattr(optimize._SolverPool, "_cut", spy)
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        times = np.cumsum(np.full(5, 1e-6 / 12))
        gap_lo, gap_hi = 0.75 * _gaps(times), 1.25 * _gaps(times)
        context = _Stage2(surrogate, 300e6, gap_lo, gap_hi, 4, 50, 1e-5, "pi_pulses")
        sizes = [np.array(z, dtype=float) for z in ([2, -3, 1, 3, -1], [1, -1, 2, 0, 1])]
        rng = np.random.default_rng(26)
        alone = [_refine_alone(surrogate, z, times, gap_lo, gap_hi, budget=600, starts=3, rng=rng)
                 for z in sizes]
        rng = np.random.default_rng(26)
        pooled = _SolverPool(context).run([
            _JointPath(context, "refit", z, times,
                       _refine_request(z, times, gap_lo, gap_hi, 600, 3, rng))
            for z in sizes
        ])
        assert cuts == []
        for mine, lone in zip(pooled, alone):
            assert [(c.hex(), t.tobytes()) for c, t in mine] == [
                (c.hex(), t.tobytes()) for c, t in lone]
        _joint_refine_alone(context, sizes[0], times, np.random.default_rng(27))
        assert cuts

    @staticmethod
    def one_batch(chain5):
        """A batch of moves fitted to the end of every lane, as (context,
        trials, start times, each lane's fit and score)."""
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        t = np.cumsum(np.full(5, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], t]))
        gap_lo, gap_hi = 0.75 * gaps, 1.25 * gaps
        # about ideal + 1e-4 sum |z|
        context = _Stage2(surrogate, 300e6, gap_lo, gap_hi, 3, 50, 1.25e-5, "pi_pulses")
        z0 = np.array([1.0, -2.0, 1.0, 0.0, 1.0])
        trials, feasible = z0 + _descent_moves(5), _move_reach(z0[None], 3, 50)[0][0]
        trials = trials[feasible & np.any(trials, axis=1)]
        # every lane fitted to its end, with no cut
        costs, times = _fit_gaps(surrogate, trials, np.tile(gaps, (len(trials), 1)),
                                 gap_lo, gap_hi, 60)
        scores = np.array([context.score(c, z) for c, z in zip(costs.tolist(), trials)])
        return context, trials, t, (costs, times, scores)

    @staticmethod
    def run_batch(context, trials, t, bar):
        """The batch as the one request of a pool path whose successor
        holds its improving lane as (lane, sum r^2, half times), or None, as
        its value.  Returns the value and the pool."""
        gaps = np.diff(np.concatenate([[0.0], t]))
        factors = np.array([context.factors[int(np.sum(np.abs(z)))] for z in trials])

        def successor(lane, costs, times):
            taken = None if lane is None else (lane, costs[lane], times[lane])
            return types.SimpleNamespace(request=None, value=taken)

        path = types.SimpleNamespace(
            request=_Request(trials, np.tile(gaps, (len(trials), 1)), 60, bar, factors),
            successor=successor,
        )
        pool = _SolverPool(context)
        return pool.run([path])[0], pool

    def test_early_abandonment_takes_the_move_of_a_full_scan(self, chain5, monkeypatch):
        from fastgate import optimize

        context, trials, t, (costs, times, scores) = self.one_batch(chain5)
        cut = optimize._SolverPool._cut
        log = []

        def spy(pool, ids, fit_costs):
            running = set(pool.fits.ids.tolist())
            moved = cut(pool, ids, fit_costs)
            log.append((int(pool.cut[0]), running))
            return moved

        monkeypatch.setattr(optimize._SolverPool, "_cut", spy)
        cut_by_a_running_lane = 0
        for bar in np.append(np.unique(scores), np.inf):
            log.clear()
            taken, pool = self.run_batch(context, trials, t, bar)
            improving = np.flatnonzero(scores < bar)
            if not len(improving):
                assert taken is None
                continue
            lane = improving[0]
            assert taken[0] == lane and context.score(taken[1], trials[lane]) == scores[lane]
            assert taken[2].tobytes() == times[lane].tobytes()
            # the lanes after the taken one were abandoned, the others finished
            fit_costs = pool.nodes[0].costs
            assert np.all(np.isnan(fit_costs[lane + 1:]))
            assert fit_costs[:lane + 1].tobytes() == costs[:lane + 1].tobytes()
            first_cut, running = next((c, r) for c, r in log if c < len(trials))
            cut_by_a_running_lane += first_cut in running
        assert cut_by_a_running_lane >= 3

    def test_moves_whose_bursts_cannot_fit_are_skipped(self, chain5):
        # at 100 MHz the widest window, 1.25 * 35 ns, holds neighbouring
        # bursts of 4 and 4 kicks but not of 5 and 4
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 100e6)
        times = np.cumsum(np.full(4, 35e-9))
        gaps = np.diff(np.concatenate([[0.0], times]))
        # no pulse error: 1 - (1 - ideal)
        context = _Stage2(surrogate, 100e6, 0.75 * gaps, 1.25 * gaps, 6, 50, 0.0, "pi_pulses")

        z0 = np.array([3, -4, 4, -3])
        trials, feasible = z0 + _descent_moves(4), _move_reach(z0[None], 6, 50)[0][0]
        too_wide = np.any(_burst_floors(np.abs(trials), surrogate.period) > 1.25 * gaps, axis=1)
        assert np.any(feasible & too_wide)
        outcomes = []
        for joint in (_reference_joint_refine, _joint_refine_alone):
            rng = np.random.default_rng(24)
            cost, z, t = joint(context, z0, times, rng)
            outcomes.append((cost, z, t, rng.random()))
        (c_ref, z_ref, t_ref, draw_ref), (c_new, z_new, t_new, draw_new) = outcomes
        assert c_new == c_ref
        assert np.array_equal(z_new, z_ref)
        assert np.array_equal(t_new, t_ref)
        assert draw_new == draw_ref
        assert np.all(_burst_floors(np.abs(z_new), surrogate.period) <= 1.25 * gaps)
        assert _clear_of_burst_floors(z_new, t_new, surrogate.period)

    def test_moves_that_cannot_win_are_never_fitted(self, chain5, monkeypatch):
        # a steep per-SDK penalty: a move adding kicks cannot pay for them
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        times = np.cumsum(np.full(5, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], times]))
        # about ideal + 1e-3 sum |z|
        context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, 3, 50, 1.25e-4, "pi_pulses")

        batches = _recorded_batches(monkeypatch)
        unwinnable, outcomes = [], []
        for joint in (_reference_joint_refine, _joint_refine_alone):
            rng = np.random.default_rng(21)
            extra = {"unwinnable": unwinnable} if joint is _reference_joint_refine else {}
            cost, z, t = joint(context, np.array([1, -2, 1, 0, 1]), times, rng, **extra)
            outcomes.append((cost, z, t, rng.random()))
        (c_ref, z_ref, t_ref, draw_ref), (c_new, z_new, t_new, draw_new) = outcomes
        assert c_new == c_ref
        assert np.array_equal(z_new, z_ref)
        assert np.array_equal(t_new, t_ref)
        assert draw_new == draw_ref
        fitted = [context.score(0.0, trial) < batch.bar
                  for batch in batches for trial in batch.sizes]
        assert unwinnable and fitted and all(fitted)

    def test_equal_scores_are_not_improvements(self, chain5, monkeypatch):
        # the pulse-error factor vanishes at the start's 16 SDKs, so every fit
        # there scores 1, blind to the timing: each move that keeps sum |z|
        # ties the start's score
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        times = np.cumsum(np.full(5, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], times]))
        context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, 3, 50, 1.0 / 16.0, "sdks")
        z0 = np.array([3, -2, 0, 1, 2])
        ties = [trial for trial in z0 + _descent_moves(5) if np.max(np.abs(trial)) <= 3
                and context.score(0.0, trial) == context.score(0.5, z0) == 1.0]
        assert ties

        batches = _recorded_batches(monkeypatch)
        outcomes = []
        for joint in (_reference_joint_refine, _joint_refine_alone):
            rng = np.random.default_rng(23)
            cost, z, t = joint(context, z0, times, rng)
            outcomes.append((cost, z, t))
        (c_ref, z_ref, t_ref), (c_new, z_new, t_new) = outcomes
        assert c_new == c_ref
        assert np.array_equal(z_new, z_ref)
        assert np.array_equal(t_new, t_ref)
        # a move that at best ties its batch's bar is not even fitted
        assert batches and all(context.score(0.0, trial) < batch.bar
                               for batch in batches for trial in batch.sizes)


    def test_failed_speculation_keeps_the_per_move_outcome(self, chain5, monkeypatch):
        from fastgate import optimize

        # in one batch, the lane first found improving stops before an earlier
        # lane improves, so the successor started on it is dropped
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        times = np.cumsum(np.full(5, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], times]))
        context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, 3, 50, 1.25e-5, "pi_pulses")
        calls = _recorded_successors(monkeypatch)
        dropped = []  # (successor calls made before the drop, ids of the dropped states)
        drop = optimize._SolverPool._drop

        def recording(pool, node):
            states, built = [], node
            while built is not None:
                states.append(id(built.state))
                built = built.child
            dropped.append((len(calls), states))
            return drop(pool, node)

        monkeypatch.setattr(optimize._SolverPool, "_drop", recording)
        outcomes = []
        for joint in (_reference_joint_refine, _joint_refine_alone):
            rng = np.random.default_rng(21)
            cost, z, t = joint(context, np.array([1, -1, 3, -3, 1]), times, rng)
            outcomes.append((cost.hex(), [int(v) for v in z], t.tobytes(), rng.random()))
        assert outcomes[0] == outcomes[1]
        assert dropped
        # a batch was settled twice: first on a later lane, then on an earlier one
        lanes = {}
        for state, lane, _ in calls:
            if state.step == "moves" and lane is not None:
                lanes.setdefault(id(state), []).append(lane)
        assert any(len(taken) == 2 and taken[0] > taken[1] for taken in lanes.values())
        # no dropped state is stepped on once dropped
        for made, states in dropped:
            assert not any(id(state) in states for state, _, _ in calls[made:])

    @pytest.mark.parametrize("n", [5, 20])
    def test_lane_count_does_not_change_the_paths(self, n, chain5, chain20):
        chain, targets = {5: (chain5, (2, 3)), 20: (chain20, (0, 1))}[n]
        surrogate = _TimingCost(chain, targets, NBAR, period=1.0 / 300e6)
        sizes = [2, -3, 1, 3, -1]
        times = np.cumsum(np.full(5, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], times]))
        outcomes = []
        for count in (1, 3, None):
            context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, 4, 50, 1e-5,
                              "pi_pulses")
            if count is not None:
                context.lanes = count
            rng = np.random.default_rng(26)
            paths = _joint_paths(context, sizes, times, 2, rng)
            outcomes.append(([(c.hex(), z, t.tobytes()) for c, z, t in paths], rng.random()))
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestTimingCostSurrogate:
    def test_matches_expanded_train_on_grid(self, chain5):
        rng = np.random.default_rng(3)
        rate = 300e6
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / rate)
        checked = 0
        for _ in range(80):
            d = int(rng.integers(3, 7))
            z = rng.integers(-4, 5, size=d)
            if not np.any(z):
                continue
            times = np.sort(rng.uniform(0.1e-6, 0.7e-6, size=d))
            if np.any(np.diff(times) < 35e-9):
                continue
            snapped = _snapped([int(v) for v in z], times, rate)
            try:
                seq = PulseGroupSequence.from_half(
                    [int(v) for v in z], snapped, (2, 3), 2 * snapped[-1]
                )
                train = expand_groups(seq, rate)
            except ValueError:
                continue
            truth = evaluate_train(train, chain5, NBAR).ideal_infidelity
            z_kept = np.array([float(v) for v in z if v != 0])
            t_kept = np.array([t for zv, t in zip(z, snapped) if zv != 0])
            assert surrogate.bind(z_kept).cost(t_kept[None])[0] == pytest.approx(truth, abs=1e-12)
            checked += 1
        assert checked >= 10

    def test_instantaneous_limit(self, chain5):
        from fastgate.fidelity import analytic_cost

        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=0.0)
        z = [1, -2, 2]
        times = [0.1e-6, 0.25e-6, 0.4e-6]
        seq = PulseGroupSequence.from_half(z, times, (2, 3), 1e-6)
        assert surrogate.bind(z).cost(np.array([times]))[0] == pytest.approx(
            analytic_cost(seq, chain5, NBAR), rel=1e-12
        )

    def test_jacobian_matches_finite_differences(self, chain5):
        rng = np.random.default_rng(7)
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        for _ in range(5):
            z = rng.integers(-4, 5, size=6)
            z[z == 0] = 1
            bound = surrogate.bind(z)
            t = np.cumsum(rng.uniform(50e-9, 80e-9, size=(1, 6)), axis=1)
            r, jacobian = bound.residuals_and_jacobian(t)
            jac = jacobian()
            assert np.array_equal(r, bound.residuals_and_jacobian(t)[0])
            r, jac = r[0], jac[0]
            step = 1e-13
            numeric = np.empty_like(jac)
            for k in range(t.shape[1]):
                shift = np.zeros_like(t)
                shift[0, k] = step
                difference = (bound.residuals_and_jacobian(t + shift)[0]
                              - bound.residuals_and_jacobian(t - shift)[0])
                numeric[:, k] = difference[0] / (2 * step)
            assert np.allclose(jac, numeric, rtol=1e-5, atol=1e-6 * np.max(np.abs(jac)))


def gap_fit(bound_cost, offset):
    """Gap-space residuals of `bound_cost` minus `offset`, with the Jacobian,
    for a stack of gap rows."""
    def fun(scaled_gaps, lanes=None):
        r, per_time = bound_cost.residuals_and_jacobian(np.cumsum(scaled_gaps * _GAP_UNIT, axis=1))
        return r - offset, lambda rows=slice(None): (
            np.cumsum(per_time(rows)[..., ::-1], axis=-1)[..., ::-1] * _GAP_UNIT
        )
    return fun


def solvable_fit(chain, targets, rng, d=8):
    """A fit whose residuals vanish at known gaps, plus a start and a box
    around those gaps."""
    surrogate = _TimingCost(chain, targets, NBAR, period=1.0 / 300e6)
    z = rng.integers(1, 4, size=d) * rng.choice([-1, 1], size=d)
    bound = surrogate.bind(z)
    true_gaps = (1e-6 / 16) * (1.0 + rng.uniform(-0.1, 0.1, size=d)) / _GAP_UNIT
    offset = bound.residuals_and_jacobian(np.cumsum(true_gaps * _GAP_UNIT)[None])[0][0]
    lower, upper = 0.75 * true_gaps, 1.25 * true_gaps
    start = true_gaps * (1.0 + rng.uniform(-0.1, 0.1, size=d))
    return gap_fit(bound, offset), true_gaps, start, lower, upper


class TestBoxLeastSquares:
    def test_reaches_zero_residual_on_solvable_fit(self, chain5, chain20):
        # N=5 is underdetermined (6 residuals, 8 gaps); N=20 is not.
        rng = np.random.default_rng(4)
        for chain, targets in ((chain5, (2, 3)), (chain20, (0, 1))):
            fun, _, start, lower, upper = solvable_fit(chain, targets, rng)
            start_cost = float(np.sum(fun(start[None])[0] ** 2))
            cost, _ = _box_least_squares(fun, start[None], lower, upper, budget=400)
            assert cost[0] <= 1e-12 * start_cost

    def test_projected_gradient_vanishes_at_bound(self, chain20):
        rng = np.random.default_rng(5)
        fun, true_gaps, start, lower, upper = solvable_fit(chain20, (0, 1), rng)
        # move the box so the zero-residual point lies outside it
        upper = upper.copy()
        upper[2] = 0.9 * true_gaps[2]
        start = np.minimum(start, upper)
        cost, x = _box_least_squares(fun, start[None], lower, upper, budget=400)
        r, jacobian = fun(x)
        r, jac = r[0], jacobian()[0]
        x = x[0]
        grad = jac.T @ r
        assert cost[0] > 0.0
        at_lower, at_upper = x <= lower, x >= upper
        assert np.any(at_lower | at_upper)
        scale = 1e-6 * np.max(np.abs(jac.T @ fun(start[None])[0][0]))
        assert np.all(grad[at_lower] >= -scale)
        assert np.all(grad[at_upper] <= scale)
        assert np.all(np.abs(grad[~(at_lower | at_upper)]) <= scale)

    def test_never_leaves_box(self, chain5):
        rng = np.random.default_rng(6)
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            gaps = (1e-6 / 16) * np.ones(d) / _GAP_UNIT
            lower, upper = 0.75 * gaps, 1.25 * gaps
            fun = gap_fit(surrogate.bind(rng.integers(-4, 5, size=d)), 0.0)
            visited = []

            def recording(x, lanes, fun=fun):
                visited.append(x[0].copy())
                return fun(x)

            start = gaps * (1.0 + rng.uniform(-0.4, 0.4, size=(1, d)))
            _box_least_squares(recording, start, lower, upper, budget=60)
            assert 1 <= len(visited) <= 60
            for x in visited:
                assert np.all(x >= lower) and np.all(x <= upper)

    def test_starts_outside_the_box_fit_as_their_clipped_starts(self, chain5):
        rng = np.random.default_rng(9)
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        lanes, d = 6, 6
        sizes = rng.integers(1, 4, size=(lanes, d)) * rng.choice([-1, 1], size=(lanes, d))
        gaps = (1e-6 / 12) * np.ones(d) / _GAP_UNIT
        # per-lane lower bounds raised above the shared window, as burst floors raise them
        lower = np.maximum(0.75 * gaps, gaps * rng.uniform(0.6, 0.9, size=(lanes, d)))
        upper = 1.25 * gaps
        starts = gaps * (1.0 + rng.uniform(-0.5, 0.5, size=(lanes, d)))
        assert np.any(starts < lower) and np.any(starts > upper)
        fits = [
            _box_least_squares(
                lane_fit(surrogate.bind(sizes), np.zeros((lanes, 1)), np.zeros(lanes, dtype=int)),
                x0, lower, upper, 60,
            )
            for x0 in (starts, np.clip(starts, lower, upper))
        ]
        (cost_raw, x_raw), (cost_clipped, x_clipped) = fits
        assert cost_raw.tobytes() == cost_clipped.tobytes()
        assert x_raw.tobytes() == x_clipped.tobytes()

    def test_gap_fits_need_no_clipped_starts(self, chain5):
        # clipping the gaps into the windows, then dividing by the gap unit
        # and clamping to the solver's box (the windows with their lower
        # edges raised to the burst floors), is that last clamp alone
        rng = np.random.default_rng(10)
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        lanes, d = 6, 5
        sizes = rng.integers(1, 5, size=(lanes, d)) * rng.choice([-1, 1], size=(lanes, d))
        gaps = np.full(d, 1e-6 / 12)
        gap_lo, gap_hi = 0.75 * gaps, 1.25 * gaps
        starts = gaps * (1.0 + rng.uniform(-0.5, 0.5, size=(lanes, d)))
        assert np.any(starts < gap_lo) and np.any(starts > gap_hi)
        raw, clipped = (
            _fit_gaps(surrogate, sizes, x0, gap_lo, gap_hi, 60)
            for x0 in (starts, np.clip(starts, gap_lo, gap_hi))
        )
        assert raw[0].tobytes() == clipped[0].tobytes()
        assert raw[1].tobytes() == clipped[1].tobytes()

    def test_repeats_bit_for_bit(self, chain5):
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        z = np.array([1.0, -2.0, 3.0, 2.0, -1.0, 1.0])
        t_start = np.cumsum(np.full(6, 1e-6 / 12))
        gaps = np.diff(np.concatenate([[0.0], t_start]))
        runs = [
            _refine_alone(surrogate, z, t_start, 0.75 * gaps, 1.25 * gaps, starts=3,
                          rng=np.random.default_rng(8))
            for _ in range(2)
        ]
        assert [c for c, _ in runs[0]] == [c for c, _ in runs[1]]
        for (_, a), (_, b) in zip(*runs):
            assert np.array_equal(a, b)


class TestDefaults:
    def test_group_count_rule(self):
        assert default_group_count(20, (0, 1)) == 16     # edge pair
        assert default_group_count(20, (9, 10)) == 18    # middle pair
        assert default_group_count(2, (0, 1)) == 16
        assert default_group_count(5, (2, 3)) == 18

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Stage1Config(targets=(0, 1), group_count=7)
        with pytest.raises(ValueError):
            Stage1Config(targets=(0, 1), z_bound_max=0)
        with pytest.raises(ValueError):
            Stage2Config(timing_variation=0.0)
        with pytest.raises(ValueError):
            Stage2Config(repetition_rate=-1.0)

    def test_pulse_counting_validated(self):
        with pytest.raises(ValueError, match="pulse_counting"):
            Stage1Config(targets=(0, 1), pulse_counting="bogus")

    def test_local_restarts_capped_by_the_restart_scales(self):
        most = len(_RESTART_SCALES) - 1
        assert Stage2Config(local_restarts=most).local_restarts == most
        with pytest.raises(ValueError, match="local_restarts"):
            Stage2Config(local_restarts=most + 1)


RECORDED_STAGE1 = json.loads(
    (pathlib.Path(__file__).parent / "stage1_candidates.json").read_text(encoding="utf-8")
)


def _recorded_stage1_inputs(case, chain5, chain20):
    """The chain and config of a `stage1_candidates.json` case: the N=20
    edge pair over the default scan, or the N=5 middle pair over
    0.9/1.0/1.1 us, each at the benchmark's nbar, epsilon and SDK cap."""
    inputs, top_k = case.split("/top_k=")
    config = dict(thermal=ThermalSpec(nbar=0.1), epsilon=1e-5, max_sdks=100, top_k=int(top_k))
    if inputs == "n20-edge-default-scan":
        return chain20, Stage1Config(targets=(0, 1), **config)
    return chain5, Stage1Config(targets=(2, 3), gate_time_scan=(0.9e-6, 1.0e-6, 1.1e-6), **config)


class TestStage1:
    def test_exhaustive_matches_heuristic_tiny(self, chain2):
        # N_k = 4 at bound 1: the 3^2 = 9 half-vectors (antisymmetry halves
        # the free variables) are enumerable by hand.
        config = small_stage1_config(
            group_count=4, gate_time_scan=(1.0e-6,), z_bound_max=1, top_k=9
        )
        candidates, _ = stage1(chain2, config, seed=0)
        half_times = [0.25e-6, 0.5e-6]
        best = min(
            (
                PulseGroupSequence.from_half(list(z), half_times, (0, 1), 1.0e-6)
                for z in itertools.product((-1, 0, 1), repeat=2)
            ),
            key=lambda seq: (
                round(
                    evaluate_train(instantaneous_train(seq), chain2, NBAR).adjusted_infidelity(1e-5),
                    15,
                ),
                seq.total_sdks,
            ),
        )
        assert candidates[0].sequence.half_sizes == best.trimmed().half_sizes

    def test_antisymmetry_and_caps(self, chain5):
        config = small_stage1_config(targets=(2, 3), max_sdks=20)
        candidates, _ = stage1(chain5, config, seed=3)
        for cand in candidates:
            seq = cand.sequence
            z, t = seq.group_sizes, seq.group_times
            assert all(z[i] == -z[len(z) - 1 - i] for i in range(len(z)))
            assert all(t[i] == -t[len(t) - 1 - i] for i in range(len(t)))
            assert seq.total_sdks <= 20

    def test_zero_candidate_never_best_and_beats_baseline(self, chain2):
        candidates, _ = stage1(chain2, small_stage1_config(), seed=1)
        baseline = (2.0 / 3.0) * (math.pi / 4.0) ** 2
        assert candidates[0].ideal_infidelity < baseline

    def test_rejects_non_adjacent_targets(self, chain5):
        with pytest.raises(ValueError):
            stage1(chain5, small_stage1_config(targets=(0, 2)), seed=0)

    def test_threads_do_not_change_result(self, chain5, monkeypatch):
        # at 20 groups even bound 1 has 3^10 > EXHAUSTIVE_LIMIT size vectors,
        # so every bound goes through the descent and the continuous seeds;
        # five gate times split unevenly over two and over three workers
        from fastgate import optimize

        monkeypatch.setattr(optimize.os, "cpu_count", lambda: 3)
        config = small_stage1_config(targets=(2, 3), group_count=20, z_bound_max=3,
                                     gate_time_scan=(0.8e-6, 0.85e-6, 0.9e-6, 0.95e-6, 1.0e-6))
        runs = [stage1(chain5, config, seed=6, threads=threads) for threads in (1, 2, 3)]

        def fingerprint(candidates):
            return [
                (c.sequence.group_sizes, c.sequence.group_times, c.ideal_infidelity,
                 c.adjusted_infidelity, c.sdk_count, c.design_gate_time, c.bound_found)
                for c in candidates
            ]

        (serial, serial_telemetry), *parallel_runs = runs
        for parallel, parallel_telemetry in parallel_runs:
            assert fingerprint(parallel) == fingerprint(serial)
            assert parallel_telemetry == serial_telemetry

    def test_deterministic(self, chain2):
        a, _ = stage1(chain2, small_stage1_config(), seed=7)
        b, _ = stage1(chain2, small_stage1_config(), seed=7)
        assert [c.sequence.group_sizes for c in a] == [c.sequence.group_sizes for c in b]
        assert [c.adjusted_infidelity for c in a] == [c.adjusted_infidelity for c in b]

    @pytest.mark.parametrize("case", sorted(RECORDED_STAGE1))
    def test_candidates_match_the_recorded_lists(self, chain5, chain20, case):
        # recorded from the search that ran each gate time on its own and
        # scored every descent trial exactly
        recorded = RECORDED_STAGE1[case]
        chain, config = _recorded_stage1_inputs(case, chain5, chain20)
        candidates, telemetry = stage1(chain, config, seed=11)
        assert telemetry == {key: recorded[key] for key in ("stage1_evaluations",
                                                            "stage1_candidates")}
        assert [
            {"half_sizes": list(c.sequence.half_sizes),
             "design_gate_time": c.design_gate_time.hex(), "bound_found": c.bound_found,
             "sdk_count": c.sdk_count, "ideal_infidelity": c.ideal_infidelity.hex(),
             "adjusted_infidelity": c.adjusted_infidelity.hex()}
            for c in candidates
        ] == recorded["candidates"]

    def test_screen_scores_few_trials_exactly(self, chain20, monkeypatch):
        # on the benchmark's N=20 edge scan fewer than 5 % of the descent
        # trials reach the exact evaluator
        from fastgate import optimize

        trials = rescored = 0
        descent = optimize._coordinate_descent

        def counting(model, z0, *args, **kwargs):
            nonlocal trials, rescored
            before = model.evaluations, model.rescored
            out = descent(model, z0, *args, **kwargs)
            trials += model.evaluations - before[0] - len(z0)
            rescored += model.rescored - before[1]
            return out

        monkeypatch.setattr(optimize, "_coordinate_descent", counting)
        _, config = _recorded_stage1_inputs("n20-edge-default-scan/top_k=10", None, chain20)
        stage1(chain20, config, seed=11)
        assert trials == 1255154
        assert rescored < 0.05 * trials


def _serial_stage1_gate_times(chain, config, scan_indices, seed):
    """Stage 1 one bound level at a time, each level descending its warm
    starts, restarts and seeds in one stack, and each exhaustive level
    scoring and sorting its whole grid; every gate time's candidates are
    built, and the picks made from all of them (`_reference_picks`).
    Returns what `_stage1_gate_times` returns, each gate time's rng and
    each gate time's built candidates."""
    n_k = config.group_count or default_group_count(chain.num_ions, config.targets)
    d = n_k // 2
    gate_times = [config.gate_time_scan[index] for index in scan_indices]
    half_times = [[gate_time * ((j + 1) / n_k) for j in range(d)] for gate_time in gate_times]
    model = CostModel(chain, config, half_times)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1, index)))
            for index in scan_indices]
    gates = range(len(scan_indices))
    found = [[] for _ in gates]
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
            continue
        starts = [[np.clip(z, -bound, bound) for z in warm[gate]]
                  + [rngs[gate].integers(-bound, bound + 1, size=d)
                     for _ in range(config.restarts)]
                  for gate in gates]
        if bound == config.z_bound_max:
            for gate, seeds in enumerate(_continuous_seeds(model, bound, rngs)):
                starts[gate] += list(seeds)
        lane_gates = np.repeat(gates, [len(s) for s in starts])
        z, cost = _coordinate_descent(
            model, _clip_to_sdk_cap(np.concatenate(starts), model.max_sdk_half), bound,
            gates=lane_gates,
        )
        for gate in gates:
            mine = lane_gates == gate
            found[gate].append((z[mine], cost[mine], bound))
            warm[gate] = z[mine][np.lexsort((*z[mine].T[::-1], cost[mine]))[:4]]
    built = [
        [Stage1Candidate(
            sequence=PulseGroupSequence.from_half(find.sizes.tolist(), half_times[gate],
                                                  config.targets, gate_times[gate]).trimmed(),
            ideal_infidelity=model.ideal_infidelity(find.sizes.astype(float), gate),
            adjusted_infidelity=find.key[0],
            sdk_count=int(2 * np.sum(np.abs(find.sizes))),
            design_gate_time=gate_times[gate],
            bound_found=find.bound,
        ) for find in _gate_time_candidates(config, gate, found[gate], gate_times[gate])]
        for gate in gates
    ]
    picks = _reference_picks([c for candidates in built for c in candidates], config.top_k)
    return (picks, sum(map(len, built)), model.evaluations), rngs, built


def _reference_picks(candidates, top_k):
    """Stage 1's picks from every built candidate: all of them ranked by
    `Stage1Candidate.sort_key`, each gate time's best first, then the best
    of the rest."""
    merged = sorted(candidates, key=Stage1Candidate.sort_key)
    leaders = {}
    for candidate in merged:
        leaders.setdefault(candidate.design_gate_time, candidate)
    chosen = sorted(leaders.values(), key=Stage1Candidate.sort_key)[:top_k]
    return chosen + [c for c in merged if c not in chosen][: top_k - len(chosen)]


def _stage1_fingerprint(candidates):
    return [(list(c.sequence.half_sizes), c.ideal_infidelity.hex(), c.adjusted_infidelity.hex(),
             c.bound_found, c.design_gate_time.hex(), c.sdk_count) for c in candidates]


def _schedule_case(case, chain5, chain20):
    """The chain and config of a `TestStage1Schedule` case."""
    bench = dict(thermal=ThermalSpec(nbar=0.1), epsilon=1e-5, max_sdks=100)
    middle = dict(targets=(2, 3), gate_time_scan=(0.9e-6, 1.0e-6, 1.1e-6), **bench)
    if case == "n5-middle":
        return chain5, Stage1Config(top_k=10, **middle)
    if case == "n20-edge-slice":
        return chain20, Stage1Config(targets=(0, 1), gate_time_scan=DEFAULT_GATE_TIME_SCAN[8:12],
                                     top_k=10, **bench)
    if case == "d4":
        # 8 groups: levels 1-5 enumerate their grids, 6-10 descend
        return chain5, Stage1Config(group_count=8, top_k=4, **middle)
    # the top level enumerates its grid: no level descends, no seeds
    return chain5, Stage1Config(group_count=8, z_bound_max=4, top_k=4, **middle)


class TestStage1Schedule:
    """The two-phase search against the level-by-level search, bit for bit."""

    @pytest.mark.parametrize("case", ["n5-middle", "n20-edge-slice", "d4", "d4-top-exhaustive"])
    def test_matches_the_level_by_level_search(self, chain5, chain20, monkeypatch, case):
        chain, config = _schedule_case(case, chain5, chain20)
        d = (config.group_count or default_group_count(chain.num_ions, config.targets)) // 2
        enumerated = [b for b in range(1, config.z_bound_max + 1)
                      if (2 * b + 1) ** d <= EXHAUSTIVE_LIMIT]
        expected_enumerated = {"d4": [1, 2, 3, 4, 5], "d4-top-exhaustive": [1, 2, 3, 4]}
        assert enumerated == expected_enumerated.get(case, [1])
        from fastgate import optimize

        scan = list(range(len(config.gate_time_scan)))
        expected, expected_rngs, built = _serial_stage1_gate_times(chain, config, scan, 11)
        made, finds = [], []
        default_rng = np.random.default_rng
        gate_time_candidates = optimize._gate_time_candidates

        def recording(*args, **kwargs):
            made.append(default_rng(*args, **kwargs))
            return made[-1]

        def listing(*args):
            finds.append(gate_time_candidates(*args))
            return finds[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        monkeypatch.setattr(optimize, "_gate_time_candidates", listing)
        candidates, count, evaluations = _stage1_gate_times(chain, config, scan, 11)
        assert (count, evaluations) == expected[1:]
        assert _stage1_fingerprint(candidates) == _stage1_fingerprint(expected[0])
        assert len(candidates) == min(config.top_k, count)
        # every gate time's candidates, built or not, are the level-by-level
        # search's, each sort key made without a sequence that of its build
        assert [[(find.key, find.bound) for find in per_gate] for per_gate in finds] == [
            [(c.sort_key(), c.bound_found) for c in per_gate] for per_gate in built
        ]
        # every gate time drew exactly what the level-by-level search drew
        assert len(made) == len(scan)
        assert [rng.random() for rng in made] == [rng.random() for rng in expected_rngs]

    def test_threads_match_the_level_by_level_search(self, chain5, monkeypatch):
        from fastgate import optimize

        chain, config = _schedule_case("n5-middle", chain5, None)
        runs = [stage1(chain, config, seed=11, threads=threads) for threads in (1, 2)]

        def serial(chain, config, scan_indices, seed):
            return _serial_stage1_gate_times(chain, config, scan_indices, seed)[0]

        monkeypatch.setattr(optimize, "_stage1_gate_times", serial)
        expected, expected_telemetry = stage1(chain, config, seed=11)
        for candidates, telemetry in runs:
            assert telemetry == expected_telemetry
            assert _stage1_fingerprint(candidates) == _stage1_fingerprint(expected)

    def test_benchmark_stage1_runs_few_descent_passes(self, chain5, monkeypatch):
        # the benchmark's N=5 config: the passes of the longest fresh descent
        # plus those of each level's warm descent (77), where a
        # level-by-level search runs 183
        from fastgate import optimize

        passes = 0
        descent_pass = optimize._descent_pass

        def counting(*args):
            nonlocal passes
            passes += 1
            return descent_pass(*args)

        monkeypatch.setattr(optimize, "_descent_pass", counting)
        chain, config = _schedule_case("n5-middle", chain5, None)
        stage1(chain, replace(config, top_k=1), seed=11)
        assert passes <= 80


class TestLowestRows:
    @pytest.mark.parametrize("rows, count", [(500, 40), (41, 40), (40, 40), (7, 40), (300, 60)])
    def test_matches_a_full_lexsort_with_ties_at_the_cut(self, rows, count):
        rng = np.random.default_rng(rows + count)
        # few distinct costs and norms, so ties fall at the count-th cost
        costs = rng.integers(0, 6, size=rows) * 0.125
        norms = rng.integers(0, 3, size=rows).astype(float)
        order = np.lexsort((norms, costs))
        if rows > count:
            cut = costs[order[count - 1]]
            assert np.count_nonzero(costs == cut) > 1
            assert costs[order[count]] == cut
        kept = _lowest_rows(costs, norms, count)
        assert np.array_equal(kept, order[:count])
        assert np.array_equal(kept[:4], order[:4])

    def test_matches_a_full_lexsort_on_an_exhaustive_grid(self, chain5):
        grid = _size_grid(9, 1)
        model = CostModel(chain5, Stage1Config(targets=(2, 3)),
                          [(j + 1) / 18 * 1e-6 for j in range(9)])
        costs = model.selection_cost(grid)
        norms = np.sum(np.abs(grid), axis=1)
        order = np.lexsort((norms, costs))
        kept = _lowest_rows(costs, norms, 40)
        assert np.array_equal(kept, order[:40])


class TestExhaustiveScreen:
    """`CostModel.lowest_rows` against scoring every row of the grid exactly."""

    # z and -z score the same bits, so the rows of each cost come in mirror
    # pairs, but for the zero row: with it ahead of the cut, an even count
    # cuts a pair (N=20), and with it behind, an odd one (N=5, d=4)
    @pytest.mark.parametrize("num_ions, targets, d, bound, max_sdks, count, tie", [
        (2, (0, 1), 8, 1, 100, 40, False),   # the N=2 edge grid at bound 1
        (5, (2, 3), 9, 1, 100, 40, False),   # the N=5 benchmark's grid
        (20, (0, 1), 8, 1, 100, 46, True),   # the N=20 scan's grid
        (5, (2, 3), 4, 3, 20, 41, True),     # rows over the SDK cap dropped
        (2, (0, 1), 2, 1, 100, 40, False),   # a kept set that is the whole grid (9 rows)
        (2, (0, 1), 2, 2, 100, 25, False),   # a count equal to the grid's 25 rows
    ])
    def test_matches_scoring_every_row(self, chain2, chain5, chain20, num_ions, targets, d,
                                       bound, max_sdks, count, tie):
        chain = {2: chain2, 5: chain5, 20: chain20}[num_ions]
        gate_times = (0.6e-6, 0.95e-6, 1.3e-6)
        half_times = [[t * (j + 1) / (2 * d) for j in range(d)] for t in gate_times]
        config = Stage1Config(targets=targets, max_sdks=max_sdks)
        screened, full = (CostModel(chain, config, half_times) for _ in range(2))
        grid = _size_grid(d, bound)
        grid = grid[2 * np.sum(np.abs(grid), axis=1) <= max_sdks]
        norms = np.sum(np.abs(grid), axis=1)
        ties = 0
        for gate in range(len(gate_times)):
            kept, costs = screened.lowest_rows(grid, gate, count)
            every = full.selection_cost(grid, gate)
            order = np.lexsort((norms, every))
            assert np.array_equal(kept, order[:count])
            assert [c.hex() for c in costs] == [every[i].hex() for i in order[:count]]
            if len(grid) > count:
                ties += every[order[count - 1]] == every[order[count]]
        assert screened.evaluations == full.evaluations == len(gate_times) * len(grid)
        assert (ties > 0) == tie

    def test_every_estimate_is_within_its_bound_of_the_exact_score(self, chain20, monkeypatch):
        # on the N=20 scan's grid the estimates differ from the exact scores
        # by rounding, so the screen needs its band: a zeroed one fails here
        from fastgate import optimize

        screened_scores, screens = optimize._screened_scores, []

        def recording(*args):
            screens.append(screened_scores(*args))
            return screens[-1]

        monkeypatch.setattr(optimize, "_screened_scores", recording)
        gate_times = (0.6e-6, 0.95e-6, 1.3e-6)
        half_times = [[t * (j + 1) / 16 for j in range(8)] for t in gate_times]
        model = CostModel(chain20, Stage1Config(targets=(0, 1)), half_times)
        grid = _size_grid(8, 1)
        for gate in range(len(gate_times)):
            model.lowest_rows(grid, gate, 40)
            estimate, error = screens[-1]
            exact = model.selection_cost(grid, gate)
            assert np.all(np.abs(estimate - exact) <= error)
            assert np.any(estimate != exact)
        assert len(screens) == len(gate_times)

    def test_benchmark_stage1_scores_few_grid_rows_exactly(self, chain5, monkeypatch):
        # the benchmark's N=5 stage 1 enumerates 3^9 rows at bound 1 for each
        # of its three gate times; at most 1 % of them reach the exact
        # evaluator, which scores a row with two calls, one per form
        from fastgate import optimize

        grid_rows, exact_rows, inside = 0, 0, False
        lowest_rows, quadratic_rows = optimize.CostModel.lowest_rows, optimize._quadratic_rows

        def listing(model, rows, gate, count):
            nonlocal grid_rows, inside
            grid_rows, inside = grid_rows + len(rows), True
            try:
                return lowest_rows(model, rows, gate, count)
            finally:
                inside = False

        def counting(rows, form):
            nonlocal exact_rows
            exact_rows += (np.size(rows) // rows.shape[-1]) if inside else 0
            return quadratic_rows(rows, form)

        monkeypatch.setattr(optimize.CostModel, "lowest_rows", listing)
        monkeypatch.setattr(optimize, "_quadratic_rows", counting)
        chain, config = _schedule_case("n5-middle", chain5, None)
        stage1(chain, replace(config, top_k=1), seed=11)
        assert grid_rows == 3 * 3**9
        assert 3 * 40 <= exact_rows / 2 <= 0.01 * grid_rows


def _gaps(half_times):
    return np.diff(np.concatenate([[0.0], half_times]))


def _slots(half_sizes, half_times, rate, phase=0.0):
    """The slot of each nonempty group's burst centred nearest its time on
    the grid of `rate` at `phase`, with no window enforced."""
    return [burst_slot(t, z, rate, phase) for z, t in zip(half_sizes, half_times) if z != 0]


def _snapped(half_sizes, half_times, rate, phase=0.0):
    """Each nonempty group's time snapped to the centre of its burst at
    `_slots`; an empty group keeps its time."""
    slots = iter(_slots(half_sizes, half_times, rate, phase))
    return [float(burst_center(next(slots), z, 1.0 / rate, phase)) if z != 0 else t
            for z, t in zip(half_sizes, half_times)]


def _clear_of_burst_floors(half_sizes, half_times, period):
    """Whether every gap between the nonempty groups, and from the midpoint
    to the first, reaches its burst floor (`_burst_floors`), to rounding."""
    kept = np.flatnonzero(half_sizes)
    floors = _burst_floors(np.abs(np.asarray(half_sizes))[kept], period)
    return bool(np.all(_gaps(np.asarray(half_times)[kept]) >= floors * (1.0 - 1e-9)))


def _in_windows(half_times, gap_lo, gap_hi, period):
    """Whether every gap of `half_times` lies inside its window of
    [gap_lo, gap_hi], widened by a quarter grid slot.  When `half_times` has
    fewer groups than there are windows, the emptied groups are found: some
    choice of the windows' groups must hold each gap inside the sum of the
    windows it spans, widened by a quarter slot at each of its two ends."""
    lo_sums = np.concatenate([[0.0], np.cumsum(gap_lo)])
    hi_sums = np.concatenate([[0.0], np.cumsum(gap_hi)])

    def holds(gap, start, end):
        slack = (0.25 if end == start + 1 else 0.5) * period * (1.0 + 1e-9)
        return (lo_sums[end] - lo_sums[start] - slack <= gap
                <= hi_sums[end] - hi_sums[start] + slack)

    reached = {0}  # window indices the groups so far may end on
    for gap in _gaps(half_times):
        reached = {end for start in reached for end in range(start + 1, len(gap_lo) + 1)
                   if holds(gap, start, end)}
    return bool(reached)


RECORDED_STAGE2 = json.loads(
    (pathlib.Path(__file__).parent / "stage2_winners.json").read_text(encoding="utf-8")
)


class TestStage2:
    @pytest.fixture(scope="class")
    def chain2_result(self, chain2):
        config = small_stage1_config()
        candidates, _ = stage1(chain2, config, seed=2)
        result = stage2(candidates[0], chain2, config, Stage2Config(local_restarts=1), seed=2)
        return candidates[0], result

    def test_never_worse_than_seed(self, chain2, chain2_result):
        candidate, result = chain2_result
        base = candidate.sequence.trimmed()
        sizes = [z for z in base.half_sizes if z != 0]
        times = _snapped(sizes, [t for z, t in zip(base.half_sizes, base.half_times) if z != 0],
                         300e6)
        seed_seq = PulseGroupSequence.from_half(sizes, times, base.target_ions, 2 * times[-1])
        seed_train = expand_groups(seed_seq, 300e6)
        seed_report = evaluate_train(seed_train, chain2, NBAR)
        assert 1.0 - result.adjusted_fidelity <= seed_report.adjusted_infidelity(1e-5) + 1e-15

    def test_every_polish_runs_in_the_stage1_windows(self, chain2, monkeypatch):
        from fastgate import optimize

        config = small_stage1_config()
        candidate = stage1(chain2, config, seed=2)[0][0]
        base = candidate.sequence.trimmed()
        sizes = [z for z in base.half_sizes if z != 0]
        times = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
        gap_lo, gap_hi = 0.75 * _gaps(times), 1.25 * _gaps(times)
        calls = []
        grid_solutions = optimize._grid_solutions

        def recording(context, half_sizes, half_times):
            calls.append((list(half_sizes), list(half_times), context.gap_lo, context.gap_hi))
            return grid_solutions(context, half_sizes, half_times)

        monkeypatch.setattr(optimize, "_grid_solutions", recording)
        stage2(candidate, chain2, config, Stage2Config(local_restarts=1), seed=2)
        # the stage-1 seed first, then three refit solutions per joint path
        assert calls[0][:2] == (sizes, times)
        assert len(calls) > 1 and (len(calls) - 1) % 3 == 0
        for _, _, lo, hi in calls:
            assert lo.tobytes() == gap_lo.tobytes()
            assert hi.tobytes() == gap_hi.tobytes()

    def test_benchmark_polishes_each_distinct_start_once(self, chain5, monkeypatch):
        # the benchmark's N=5 gate polishes ten starts at two phases, 14 of
        # them distinct.  Three starts with sizes (1, 2, 3, 1, 0, -2, -1)
        # take the same slots and differ only in the empty group's time,
        # which moves the windows of its neighbours: at phase 0 they polish
        # to different gates, so each is polished on its own
        from fastgate import optimize

        runs, starts = [], []
        grid_descent, grid_solutions = optimize._grid_descent, optimize._grid_solutions

        def recording(timing_cost, half_sizes, slots, half_times, phase, gap_lo, gap_hi):
            out = grid_descent(timing_cost, half_sizes, slots, half_times, phase, gap_lo, gap_hi)
            runs.append(((tuple(half_sizes), tuple(slots), tuple(half_times), phase), out))
            return out

        def counting(*args):
            starts.append(args[1:3])
            return grid_solutions(*args)

        monkeypatch.setattr(optimize, "_grid_descent", recording)
        monkeypatch.setattr(optimize, "_grid_solutions", counting)
        _, config = _schedule_case("n5-middle", chain5, None)
        config = replace(config, top_k=1)
        candidate = stage1(chain5, config, seed=11)[0][0]
        result = stage2(candidate, chain5, config, Stage2Config(local_restarts=0), seed=11)
        keys = [key for key, _ in runs]
        assert 2 * len(starts) == 20
        assert len(keys) == len(set(keys)) == 14
        assert result.telemetry["stage2_evaluations"] == 2596
        pair = [(key, out) for key, out in runs
                if key[0] == (1, 2, 3, 1, 0, -2, -1) and key[3] == 0.0]
        assert len(pair) == 3
        assert len({key[1] for key, _ in pair}) == 1
        assert len({key[2][4] for key, _ in pair}) == 3
        assert {f"{out[0]:.4e}" for _, out in pair} == {"1.6638e-03", "9.6917e-04"}

    def test_shared_polishes_replay_their_trials(self, chain5, monkeypatch):
        # a start polished before gives the same solutions and trial count
        # without a second descent
        from fastgate import optimize

        rate = 300e6
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / rate)
        sizes, times = [1, 2, -3, 1], [0.1e-6, 0.2e-6, 0.32e-6, 0.45e-6]
        gap_lo, gap_hi = 0.75 * _gaps(times), 1.25 * _gaps(times)
        def context():
            return _Stage2(surrogate, rate, gap_lo, gap_hi, 3, 50, 1e-5, "pi_pulses")

        alone = _grid_solutions(context(), sizes, times)
        descents = []
        grid_descent = optimize._grid_descent

        def counting(*args):
            descents.append(args)
            return grid_descent(*args)

        monkeypatch.setattr(optimize, "_grid_descent", counting)
        shared = context()
        first, again = (_grid_solutions(shared, sizes, times) for _ in range(2))
        assert len(descents) == len(shared.polishes) == 2
        assert first == again == alone
        assert alone[1] > 0

    def test_result_reproducible_from_stored_train(self, chain2, chain2_result):
        _, result = chain2_result
        report = evaluate_train(result.train, chain2, result.thermal)
        assert report.ideal_infidelity == pytest.approx(
            result.report.ideal_infidelity, rel=1e-12
        )

    def test_timing_windows_respected(self, chain2, chain2_result):
        candidate, result = chain2_result
        base = candidate.sequence.trimmed()
        anchor_times = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
        anchor_gaps = np.diff(np.concatenate([[0.0], anchor_times]))
        period = 1.0 / 300e6
        final_gaps = np.diff(np.concatenate([[0.0], result.sequence.half_times]))
        if len(final_gaps) == len(anchor_gaps):
            assert np.all(final_gaps >= 0.75 * anchor_gaps - 1.3 * period)
            assert np.all(final_gaps <= 1.25 * anchor_gaps + 1.3 * period)

    def test_grid_alignment_of_result(self, chain2_result):
        _, result = chain2_result
        times = np.asarray(result.train.kick_times)
        steps = (times - times[0]) * 300e6
        assert np.allclose(steps, np.round(steps), atol=1e-6)

    def test_rate_too_low_raises(self, chain2):
        from fastgate.sequence import GridResolutionError, BurstOverlap
        from fastgate.optimize import Stage1Candidate

        # At 20 MHz (T = 50 ns) the windows allow gaps of 1.5-2.5 ns: even
        # with the quarter-slot allowance the first group lies within 15 ns
        # of the midpoint, short of the T/2 = 25 ns at which the innermost
        # kick must lie, so no sizes fit
        seq = PulseGroupSequence.from_half([3, 3], [2e-9, 4e-9], (0, 1), 8e-9)
        candidate = Stage1Candidate(
            sequence=seq, ideal_infidelity=0.1, adjusted_infidelity=0.1,
            sdk_count=seq.total_sdks, design_gate_time=8e-9, bound_found=3,
        )
        with pytest.raises((GridResolutionError, BurstOverlap)):
            stage2(candidate, chain2, Stage1Config(targets=(0, 1), epsilon=0.0),
                   Stage2Config(repetition_rate=20e6), seed=0)

    def test_inexpressible_seed_still_yields_a_gate(self, chain20):
        rate = 100e6
        config = Stage1Config(targets=(0, 1), gate_time_scan=(0.9e-6,), top_k=1)
        candidate = stage1(chain20, config, seed=11)[0][0]
        base = candidate.sequence.trimmed()
        sizes = [z for z in base.half_sizes if z != 0]
        times = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
        # the grid cannot express the snapped stage-1 seed
        assert not bursts_fit(_slots(sizes, times, rate), sizes)
        with pytest.raises(BurstOverlap):
            expand_groups(PulseGroupSequence.from_half(sizes, times, base.target_ions,
                                                       2.0 * times[-1]), rate)
        result = stage2(candidate, chain20, config,
                        Stage2Config(repetition_rate=rate, local_restarts=0), seed=11)
        trains = []
        for phase in (0.0, 0.5 / rate):
            try:
                trains.append(expand_groups(result.sequence, rate, grid_phase=phase))
            except (BurstOverlap, GridResolutionError):
                pass
        assert result.train.to_json_dict() in [train.to_json_dict() for train in trains]
        assert _in_windows(result.sequence.half_times, 0.75 * _gaps(times),
                           1.25 * _gaps(times), 1.0 / rate)

    def test_pulse_error_table_holds_the_reachable_half_sums(self, chain2, monkeypatch):
        # epsilon 0 allows any max_sdks; a table sized by the cap would hold
        # 5e8 entries here.  Every state's groups stay within the bound, so
        # d * bound, or the seed's half-sum, is as far as any score reaches.
        from fastgate import optimize

        contexts = []
        init = optimize._Stage2.__init__

        def recording(context, *args, **kwargs):
            init(context, *args, **kwargs)
            contexts.append(context)

        monkeypatch.setattr(optimize._Stage2, "__init__", recording)
        config = small_stage1_config(epsilon=0.0, max_sdks=10**9, gate_time_scan=(1.0e-6,),
                                     top_k=1)
        (candidate,), _ = stage1(chain2, config, seed=0)
        result = stage2(candidate, chain2, config, Stage2Config(local_restarts=1), seed=0)
        assert result.report.sdk_count > 0
        sizes0 = [z for z in candidate.sequence.trimmed().half_sizes if z != 0]
        bound = max(max(map(abs, sizes0)), config.z_bound_max)
        (context,) = contexts
        assert len(context.factors) == max(min(10**9 // 2, len(sizes0) * bound),
                                           sum(map(abs, sizes0))) + 1
        assert np.all(context.factors == 1.0)

    def test_a_kick_less_candidate_is_refused(self, chain2):
        from fastgate.optimize import Stage1Candidate

        seq = PulseGroupSequence.from_half([0, 0], [0.3e-6, 0.6e-6], (0, 1), 1.2e-6)
        candidate = Stage1Candidate(
            sequence=seq, ideal_infidelity=0.4, adjusted_infidelity=0.4,
            sdk_count=0, design_gate_time=1.2e-6, bound_found=1,
        )
        with pytest.raises(ValueError, match="at least one kick"):
            stage2(candidate, chain2, small_stage1_config(), Stage2Config())

    def test_coarse_grid_gate_stays_in_its_windows(self, chain2):
        from fastgate.sequence import GridResolutionError, BurstOverlap
        from fastgate.optimize import Stage1Candidate

        # At 20 MHz (T = 50 ns) the [3, 3] bursts need more room than the
        # [37.5, 62.5] ns windows give: stage 2 either finds a smaller gate
        # inside the windows or raises
        times = [0.05e-6, 0.1e-6]
        seq = PulseGroupSequence.from_half([3, 3], times, (0, 1), 0.2e-6)
        candidate = Stage1Candidate(
            sequence=seq, ideal_infidelity=0.1, adjusted_infidelity=0.1,
            sdk_count=seq.total_sdks, design_gate_time=0.2e-6, bound_found=3,
        )
        try:
            result = stage2(candidate, chain2, Stage1Config(targets=(0, 1), epsilon=0.0),
                            Stage2Config(repetition_rate=20e6), seed=0)
        except (GridResolutionError, BurstOverlap):
            return
        assert _in_windows(result.sequence.half_times, 0.75 * _gaps(times),
                           1.25 * _gaps(times), 1.0 / 20e6)

    @pytest.mark.parametrize("overrides", [
        {"pulse_counting": "sdks"}, {"max_sdks": 8}, {"z_bound_max": 1},
    ], ids=["sdk_counting", "max_sdks", "z_bound_max"])
    def test_direct_call_honours_its_stage1_config(self, chain2, overrides):
        config = small_stage1_config(top_k=1, **overrides)
        candidate = stage1(chain2, config, seed=2)[0][0]
        result = stage2(candidate, chain2, config, Stage2Config(local_restarts=1), seed=2)
        report = result.report
        if config.pulse_counting == "sdks":
            assert report.pulse_count == report.sdk_count
        assert report.sdk_count <= config.max_sdks
        bound = max(max(map(abs, candidate.sequence.half_sizes)), config.z_bound_max)
        assert max(map(abs, result.sequence.half_sizes)) <= bound

    def test_joint_paths_stay_within_the_bound(self, chain2):
        # the 2.2x envelope start rounds to size 2 in the middle groups
        config = small_stage1_config(z_bound_max=1, top_k=2)
        candidates, _ = stage1(chain2, config, seed=11)
        surrogate = _TimingCost(chain2, (0, 1), NBAR, period=1.0 / 300e6)
        for candidate in candidates:
            base = candidate.sequence.trimmed()
            sizes = [z for z in base.half_sizes if z != 0]
            times = [t for z, t in zip(base.half_sizes, base.half_times) if z != 0]
            gaps = np.diff(np.concatenate([[0.0], times]))
            context = _Stage2(surrogate, 300e6, 0.75 * gaps, 1.25 * gaps, 1, 50, 1e-5,
                              "pi_pulses")
            paths = _joint_paths(context, sizes, times, 0, np.random.default_rng(0))
            assert paths
            for _, z, _ in paths:
                assert max(abs(v) for v in z) <= 1

    @pytest.fixture(scope="class", params=sorted(RECORDED_STAGE2))
    def benchmark_winner(self, request):
        """A benchmark gate config's recorded winner, the winner it gives, and
        the number of `_LMLanes.advance` calls of the whole run (stage 1's
        continuous seeds included)."""
        from fastgate import optimize

        recorded = RECORDED_STAGE2[request.param]
        chain = build_chain(TrapConfig(num_ions=recorded["num_ions"]))
        config = Stage1Config(targets=tuple(recorded["targets"]),
                              gate_time_scan=(0.9e-6, 1.0e-6, 1.1e-6), top_k=1,
                              thermal=NBAR, epsilon=1e-5, max_sdks=100)
        advance, calls = optimize._LMLanes.advance, []

        def counting(fits):
            calls.append(None)
            return advance(fits)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize._LMLanes, "advance", counting)
            result = optimize_gate(chain, config, Stage2Config(repetition_rate=300e6,
                                                               local_restarts=0), seed=11)
        return recorded, result, len(calls)

    def test_benchmark_winners_match_the_recorded_gates(self, benchmark_winner):
        # the advance count pins the solver pool's schedule: a pool that loses
        # speculation or early abandonment takes more steps to the same gate
        recorded, result, advances = benchmark_winner
        assert {
            "num_ions": recorded["num_ions"], "targets": recorded["targets"],
            "half_sizes": list(result.sequence.half_sizes),
            "half_times": [t.hex() for t in result.sequence.half_times],
            "ideal_infidelity": result.report.ideal_infidelity.hex(),
            "adjusted_infidelity": (1.0 - result.adjusted_fidelity).hex(),
            "lm_advances": advances,
        } == recorded

    def test_group_times_are_the_burst_centres_of_the_train(self, benchmark_winner):
        # each group time is the centre of its burst, (slot + (|z| - 1) / 2) T
        # plus the grid phase, and its kicks are laid out from it, bit for bit
        _, result, _ = benchmark_winner
        rate = 300e6
        period = 1.0 / rate
        kicks = [t for t in result.train.kick_times if t > 0.0]
        phase = 0.0 if abs(kicks[0] * rate - round(kicks[0] * rate)) < 0.25 else 0.5 * period
        first = 0
        for size, time in zip(result.sequence.half_sizes, result.sequence.half_times):
            count = abs(size)
            slot = round((kicks[first] - phase) * rate)
            assert time == (slot + 0.5 * (count - 1)) * period + phase
            assert kicks[first:first + count] == [time + (k - 0.5 * (count - 1)) * period
                                                  for k in range(count)]
            first += count
        assert first == len(kicks)


class TestWorkerPool:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The worker counts asked of a pool that runs the work in-process."""
        from fastgate import optimize

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(optimize, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_has_no_more_workers_than_items(self, chain2, monkeypatch, pool_sizes):
        from fastgate import optimize

        monkeypatch.setattr(optimize.os, "cpu_count", lambda: 64)
        assert optimize._map_ordered(pow, [(2, 1), (2, 2), (2, 3)], 64) == [2, 4, 8]
        assert optimize._map_ordered(pow, [(2, 1), (2, 2), (2, 3)], 2) == [2, 4, 8]
        config = small_stage1_config()
        serial, _ = stage1(chain2, config, seed=2)
        pooled, _ = stage1(chain2, config, seed=2, threads=16)
        assert pool_sizes == [3, 2, len(config.gate_time_scan)]
        assert [c.sequence.half_sizes for c in pooled] == [c.sequence.half_sizes for c in serial]

    def test_pool_has_no_more_workers_than_cpus(self, chain2, monkeypatch, pool_sizes):
        # the largest scan a config may give, with far more threads than it
        # has gate times: one worker per CPU, each searching one contiguous
        # part of the scan; no search runs
        from fastgate import optimize

        parts = []

        def recording(chain, config, scan_indices, seed):
            parts.append(scan_indices)
            return [], 0, 0

        monkeypatch.setattr(optimize.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(optimize, "_stage1_gate_times", recording)
        items = [(2, k) for k in range(9_999)]
        assert optimize._map_ordered(pow, items, 10**6) == [2**k for k in range(9_999)]
        scan = tuple(0.5e-6 + 1e-10 * k for k in range(9_999))
        assert stage1(chain2, small_stage1_config(gate_time_scan=scan), threads=10**6)[0] == []
        assert pool_sizes == [4, 4]
        assert [len(part) for part in parts] == [2_500, 2_500, 2_500, 2_499]
        assert sum(parts, []) == list(range(9_999))
        # with the CPU count unknown, one worker: no pool at all
        monkeypatch.setattr(optimize.os, "cpu_count", lambda: None)
        assert optimize._map_ordered(pow, items[:3], 10**6) == [1, 2, 4]
        assert pool_sizes == [4, 4]


class TestOptimizeGate:
    def test_deterministic_end_to_end(self, chain2):
        config = small_stage1_config(top_k=2)
        s2 = Stage2Config(local_restarts=1)
        first = optimize_gate(chain2, config, s2, seed=9)
        second = optimize_gate(chain2, config, s2, seed=9)
        assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
            second.to_json_dict(), sort_keys=True
        )

    def test_parallel_matches_serial(self, chain2):
        config = small_stage1_config(top_k=2)
        s2 = Stage2Config(local_restarts=0)
        serial = optimize_gate(chain2, config, s2, seed=4, threads=1)
        parallel = optimize_gate(chain2, config, s2, seed=4, threads=2)
        assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
            parallel.to_json_dict(), sort_keys=True
        )

    def test_sdk_ceiling(self, chain2):
        result = optimize_gate(chain2, small_stage1_config(), Stage2Config(local_restarts=0), seed=1)
        assert result.report.sdk_count <= 100

    def test_stage2_honours_max_sdks(self, chain2):
        config = Stage1Config(targets=(0, 1), max_sdks=8, gate_time_scan=(1e-6,), top_k=1)
        result = optimize_gate(chain2, config, Stage2Config(), seed=0)
        assert result.report.sdk_count <= 8

    def test_json_omits_wall_time(self, chain2):
        result = optimize_gate(chain2, small_stage1_config(top_k=1),
                               Stage2Config(local_restarts=0), seed=1)
        assert "wall_time_s" in result.telemetry
        assert "wall_time_s" not in result.to_json_dict()["telemetry"]


class TestJitter:
    @pytest.fixture(scope="class")
    def quick_result(self, chain2):
        config = small_stage1_config(top_k=2)
        return optimize_gate(chain2, config, Stage2Config(local_restarts=0), seed=6)

    def test_zero_instability_zero_added(self, chain2, quick_result):
        stats = jitter_sensitivity(quick_result, chain2, 0.0, samples=10, seed=0)
        assert stats["mean_added"] == 0.0
        assert stats["p95_added"] == 0.0

    def test_added_infidelity_grows_with_instability(self, chain2, quick_result):
        # Individual shots can improve an imperfect gate, so the mean can dip
        # slightly negative at tiny instabilities; the upper tail is the
        # robust monotone statistic.
        small = jitter_sensitivity(quick_result, chain2, 1e-4, samples=40, seed=1)
        large = jitter_sensitivity(quick_result, chain2, 1e-2, samples=40, seed=1)
        assert large["p95_added"] > small["p95_added"] > 0.0
        assert large["mean_added"] > 0.0

    def test_deterministic_under_seed(self, chain2, quick_result):
        a = jitter_sensitivity(quick_result, chain2, 1e-3, samples=25, seed=3)
        b = jitter_sensitivity(quick_result, chain2, 1e-3, samples=25, seed=3)
        assert a == b

    def test_rejects_bad_arguments(self, chain2, quick_result):
        with pytest.raises(ValueError):
            jitter_sensitivity(quick_result, chain2, -0.1)
        # a rate shift of -1 or less would run the scaled train backwards
        for instability in (1.0, 1.5):
            with pytest.raises(ValueError):
                jitter_sensitivity(quick_result, chain2, instability)
        with pytest.raises(ValueError):
            jitter_sensitivity(quick_result, chain2, 0.1, samples=0)


def lane_fit(bound_cost, offsets, evaluations):
    """The stacked form of `gap_fit`: one lane per row of a per-lane binding,
    each with its own residual offset; counts the evaluations of every lane."""
    def fun(scaled_gaps, lanes):
        evaluations[lanes] += 1
        rows = (bound_cost.effective[lanes], bound_cost.within_theta[lanes])
        r, per_time = _BoundTimingCost(bound_cost.parent, *rows).residuals_and_jacobian(
            np.cumsum(scaled_gaps * _GAP_UNIT, axis=1)
        )
        return r - offsets[lanes], lambda rows: (
            np.cumsum(per_time(rows)[..., ::-1], axis=-1)[..., ::-1] * _GAP_UNIT
        )
    return fun


def _fits_with_stop(fun, x0, lower, upper, budget, stop):
    """`_box_least_squares` with lanes abandoned between iterations: after
    each iteration's stops, `stop(finished, cost)` gets which lanes have
    finished and every lane's latest cost (final for a finished lane, NaN
    for an abandoned one), and the running lanes it marks are dropped
    (`_LMLanes.drop`), leaving NaN results."""
    fits = _LMLanes(fun)
    fits.admit(x0, lower, upper, budget, np.arange(len(x0)))
    costs, xs = np.full(len(x0), np.nan), np.full(np.shape(x0), np.nan)
    finished = np.zeros(len(x0), dtype=bool)
    while True:
        ids, cost, x = fits.advance()
        costs[ids], xs[ids], finished[ids] = cost, x, True
        latest = costs.copy()
        latest[fits.ids] = fits.lanes["cost"]
        fits.drop(stop(finished, latest)[fits.ids])
        if not len(fits.lanes):
            return costs, xs


class TestLanes:
    @pytest.mark.parametrize("n", [5, 20])
    def test_stacked_fits_match_lone_fits(self, n, chain5, chain20):
        chain, targets = {5: (chain5, (2, 3)), 20: (chain20, (0, 1))}[n]
        rng = np.random.default_rng(30 + n)
        d, lanes, budget = 8, 9, 12
        surrogate = _TimingCost(chain, targets, NBAR, period=1.0 / 300e6)
        sizes = rng.integers(1, 4, size=(lanes, d)) * rng.choice([-1, 1], size=(lanes, d))
        sizes[3, 5] = 0
        nominal = (1e-6 / 16) * np.ones(d) / _GAP_UNIT
        lower, upper = 0.75 * nominal, 1.25 * nominal
        true_gaps = nominal * (1.0 + rng.uniform(-0.1, 0.1, size=(lanes, d)))
        true_gaps[1, 2] = 1.4 * nominal[2]  # optimum outside the box: pinned at a bound
        offsets = np.array([
            surrogate.bind(z).residuals_and_jacobian(np.cumsum(g * _GAP_UNIT)[None])[0][0]
            for z, g in zip(sizes, true_gaps)
        ])
        offsets[5:] = 0.0  # no exact solution: these lanes run out their budget
        starts = true_gaps * (1.0 + rng.uniform(-0.1, 0.1, size=(lanes, d)))
        starts[0] = true_gaps[0]  # zero residual at the start
        starts[2] = true_gaps[2] * (1.0 + 1e-7)  # one step from the solution
        starts = np.clip(starts, lower, upper)

        evaluations = np.zeros(lanes, dtype=int)
        costs, xs = _box_least_squares(
            lane_fit(surrogate.bind(sizes), offsets, evaluations), starts, lower, upper, budget
        )
        assert evaluations[0] == 1 and evaluations[2] == 2
        assert evaluations.max() == budget
        assert xs[1, 2] == upper[2]
        for lane in range(lanes):
            fun = gap_fit(surrogate.bind(sizes[lane]), offsets[lane])
            cost, x = _box_least_squares(fun, starts[lane:lane + 1], lower, upper, budget)
            assert cost[0] == costs[lane]
            assert np.array_equal(x[0], xs[lane])

    def test_stop_abandons_running_lanes(self, chain5):
        rng = np.random.default_rng(40)
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        sizes = rng.integers(1, 4, size=(4, 6))
        gaps = (1e-6 / 12) * np.ones(6) / _GAP_UNIT
        seen = []

        def stop(finished, cost):
            seen.append(finished.copy())
            return np.full(len(finished), finished[0])

        starts = np.tile(gaps, (4, 1))
        starts[0] *= 1.01
        costs, xs = _fits_with_stop(
            lane_fit(surrogate.bind(sizes), np.zeros((4, 1)), np.zeros(4, dtype=int)),
            starts, 0.75 * gaps, 1.25 * gaps, 60, stop,
        )
        assert seen[-1][0] and not seen[-2][0]
        running = ~seen[-1]
        assert np.all(np.isnan(costs[running])) and np.all(np.isnan(xs[running]))
        assert np.all(np.isfinite(costs[~running]))

    def test_step_length_and_abandoned_lanes_match_lone_fits(self, chain5):
        rng = np.random.default_rng(4)
        d, lanes, budget = 8, 12, 60
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        sizes = rng.integers(1, 4, size=(lanes, d)) * rng.choice([-1, 1], size=(lanes, d))
        nominal = (1e-6 / 16) * np.ones(d) / _GAP_UNIT
        lower, upper = 0.75 * nominal, 1.25 * nominal
        # optima up to 40 % off nominal, so many lanes end pinned at the box
        true_gaps = nominal * (1.0 + rng.uniform(-0.4, 0.4, size=(lanes, d)))
        offsets = np.array([
            surrogate.bind(z).residuals_and_jacobian(np.cumsum(g * _GAP_UNIT)[None])[0][0]
            for z, g in zip(sizes, true_gaps)
        ])
        offsets[6:] = 0.0
        starts = np.clip(nominal * (1.0 + rng.uniform(-0.2, 0.2, size=(lanes, d))), lower, upper)
        lone = []
        for lane in range(lanes):
            fun = gap_fit(surrogate.bind(sizes[lane]), offsets[lane])
            cost, x = _box_least_squares(fun, starts[lane:lane + 1], lower, upper, budget)
            lone.append((cost[0].hex(), x[0].tobytes()))

        evaluations = np.zeros(lanes, dtype=int)
        stacked = lane_fit(surrogate.bind(sizes), offsets, evaluations)
        last = np.full_like(starts, np.nan)

        def recording(x, rows):
            last[rows] = x
            return stacked(x, rows)

        costs, xs = _box_least_squares(recording, starts, lower, upper, budget)
        # lane 1 ends on its step length: it stops before the budget, and its
        # last evaluated point is a rejected trial, not its result
        assert evaluations[1] < budget and not np.array_equal(last[1], xs[1])
        assert [(c.hex(), x.tobytes()) for c, x in zip(costs, xs)] == lone

        # abandon the lanes still running once lane 1 has finished
        costs, xs = _fits_with_stop(
            stacked, starts, lower, upper, budget,
            lambda finished, cost: np.full(len(finished), finished[1]),
        )
        running = np.isnan(costs)
        assert 0 < running.sum() < lanes - 1 and not running[1]
        for lane in np.flatnonzero(~running):
            assert (costs[lane].hex(), xs[lane].tobytes()) == lone[lane]

    def test_lane_budgets_and_abandon_masks_leave_other_lanes_alone(self, chain5):
        rng = np.random.default_rng(4)
        d, lanes = 8, 12
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=1.0 / 300e6)
        sizes = rng.integers(1, 4, size=(lanes, d)) * rng.choice([-1, 1], size=(lanes, d))
        nominal = (1e-6 / 16) * np.ones(d) / _GAP_UNIT
        lower, upper = 0.75 * nominal, 1.25 * nominal
        true_gaps = nominal * (1.0 + rng.uniform(-0.4, 0.4, size=(lanes, d)))
        offsets = np.array([
            surrogate.bind(z).residuals_and_jacobian(np.cumsum(g * _GAP_UNIT)[None])[0][0]
            for z, g in zip(sizes, true_gaps)
        ])
        offsets[6:] = 0.0
        starts = np.clip(nominal * (1.0 + rng.uniform(-0.2, 0.2, size=(lanes, d))), lower, upper)
        budgets = np.array([60, 5, 12, 400, 1, 30, 60, 7, 200, 60, 2, 90])
        lone = []
        for lane in range(lanes):
            counted = np.zeros(1, dtype=int)
            cost, x = _box_least_squares(
                lane_fit(surrogate.bind(sizes[lane:lane + 1]), offsets[lane:lane + 1], counted),
                starts[lane:lane + 1], lower, upper, budgets[lane],
            )
            lone.append((cost[0].hex(), x[0].tobytes(), int(counted[0])))
        # lane: the hook call from which it is abandoned
        abandon_from = {3: 4, 4: 3, 7: 2, 9: 10}
        calls = []

        def stop(finished, cost):
            calls.append(finished.copy())
            return np.array([len(calls) >= abandon_from.get(lane, math.inf)
                             for lane in range(lanes)])

        evaluations = np.zeros(lanes, dtype=int)
        costs, xs = _fits_with_stop(
            lane_fit(surrogate.bind(sizes), offsets, evaluations), starts, lower, upper,
            budgets, stop,
        )
        abandoned = 0
        for lane in range(lanes):
            assert evaluations[lane] <= budgets[lane]
            call = abandon_from.get(lane, math.inf)
            if lone[lane][2] > call:  # still running at that call: abandoned
                assert np.isnan(costs[lane]) and np.all(np.isnan(xs[lane]))
                assert evaluations[lane] == call and not calls[-1][lane]
                abandoned += 1
            else:
                assert (costs[lane].hex(), xs[lane].tobytes(), evaluations[lane]) == lone[lane]
        assert abandoned == 3  # lane 4 had finished on its budget of 1

    def test_fits_keep_each_lane_above_its_burst_floors(self, chain5):
        rng = np.random.default_rng(41)
        period = 1.0 / 100e6
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=period)
        d, lanes = 6, 8
        sizes = rng.integers(1, 8, size=(lanes, d)) * rng.choice([-1, 1], size=(lanes, d))
        sizes[2, 3] = 0
        sizes[5, 1:3] = 8, -8  # an 8 T floor in a 7.5 T window: capped at the window
        sizes[6, 1:6] = 1, 11, 0, -11, 1  # 5.5 T floors on each side of an empty group
        gaps = np.full(d, 60e-9)
        gap_lo, gap_hi = 0.75 * gaps, 1.25 * gaps
        floors = _burst_floors(np.abs(sizes), period)
        assert np.any(floors > gap_lo) and np.any(floors > gap_hi)
        starts = gaps * (1.0 + rng.uniform(-0.2, 0.2, size=(lanes, d)))
        costs, times = _fit_gaps(surrogate, sizes, starts, gap_lo, gap_hi, budget=60)
        fitted = np.diff(np.concatenate([np.zeros((lanes, 1)), times], axis=1), axis=1)
        lower = np.maximum(gap_lo, np.minimum(floors, gap_hi))
        assert np.all(fitted >= lower * (1.0 - 1e-12))
        assert np.all(fitted <= gap_hi * (1.0 + 1e-12))
        for lane in range(lanes):
            if np.all(floors[lane] <= gap_hi):
                assert _clear_of_burst_floors(sizes[lane], times[lane], period)
            cost, lone = _fit_gaps(
                surrogate, sizes[lane], starts[lane:lane + 1], gap_lo, gap_hi, budget=60
            )
            assert cost[0] == costs[lane]
            assert np.array_equal(lone[0], times[lane])

    def test_empty_group_splits_the_room_of_its_neighbours(self):
        rate = 100e6
        period = 1.0 / rate
        sizes = [5, 0, -7]
        floors = _burst_floors(np.abs(sizes), period)
        assert np.allclose(floors / period, [2.5, 2.5, 3.5])
        # centres at the floors put the bursts of 5 and 7 at the least slots
        # they fit, on the grid offset by half a period
        times = np.cumsum(floors)
        assert _slots(sizes, times, rate, 0.5 * period) == [0, 5]
        stack = np.array([[0, 5], [0, 4], [-1, 5], [1, 7]])
        assert bursts_fit(stack, [5, -7], 0.5 * period).tolist() == [True, False, False, True]
        assert bursts_fit(stack + 1, [5, -7]).tolist() == [True, False, False, True]
        # the bursts need 6 T between their centres, however the empty group
        # splits it: the per-gap floors are sufficient, not necessary
        centres = burst_center(np.array([0, 5]), np.array([5, -7]), period, 0.5 * period)
        assert floors[1] + floors[2] == pytest.approx(centres[1] - centres[0]) == 6 * period
        moved = [times[0], times[0] + 0.5 * period, times[2]]
        assert _gaps(moved)[1] < floors[1]
        assert _slots(sizes, moved, rate, 0.5 * period) == [0, 5]

    def test_bursts_fit_matches_the_pairwise_rule(self):
        rng = np.random.default_rng(66)
        period = 1.0 / 300e6
        checked = set()
        for _ in range(30):
            m = int(rng.integers(1, 7))
            sizes = [int(v) for v in rng.integers(1, 5, size=m) * rng.choice([-1, 1], size=m)]
            # each burst from one slot before the first free slot to five after
            steps = rng.integers(-1, 6, size=(8, m)) + np.abs([0] + sizes[:-1])
            stack = np.cumsum(steps, axis=1)
            for phase in (0.0, 0.5 * period):
                fits = bursts_fit(stack, sizes, phase)
                expected = [_pairwise_fit(sizes, (row + 0.5 * (np.abs(sizes) - 1)) * period + phase,
                                          period) for row in stack]
                assert fits.tolist() == expected
                assert [bool(bursts_fit(row, sizes, phase)) for row in stack] == expected
                checked.update(expected)
        assert checked == {True, False}

    def test_lane_count_scales_with_modes(self):
        def lanes(modes):
            """The lanes per batch of moves of a context for `modes` modes."""
            surrogate = types.SimpleNamespace(w=np.zeros(modes))
            return _Stage2(surrogate, 300e6, None, None, 1, 1, 0.0, "pi_pulses").lanes

        assert lanes(5) > lanes(20) > lanes(100) >= 1
        assert lanes(10_000) == 1


class TestDampedSteps:
    @pytest.mark.parametrize("residuals", [6, 21])
    def test_one_solve_matches_per_lane_free_systems(self, residuals):
        rng = np.random.default_rng(60 + residuals)
        lanes, d = 40, 8
        columns = np.exp(rng.uniform(-1, 1, size=(lanes, 1, d)))
        jac = rng.normal(size=(lanes, residuals, d)) * columns
        jac[5, :, 2] = 0.0  # a vanishing column: the floor keeps the system definite
        # a vanishing free column beside a frozen column larger than every
        # free one: the floor must read the free diagonals only
        jac[6, :, 2] = 0.0
        jac[6, :, 3] *= 1e6
        grad = rng.normal(size=(lanes, d))
        free = rng.random((lanes, d)) < 0.7
        free[0], free[1], free[2] = True, False, np.arange(d) == 3
        free[5, 2] = True
        free[6] = np.arange(d) != 3
        damping = np.exp(rng.uniform(-7, 1, size=lanes))
        steps = _damped_steps(jac, grad, free, damping)
        for lane in range(lanes):
            columns = free[lane]
            expected = np.zeros(d)
            if columns.any():
                block = jac[lane][:, columns]
                normal = block.T @ block
                scale = np.maximum(np.diag(normal), 1e-12 * np.max(np.diag(normal)))
                normal[np.diag_indices(len(scale))] += damping[lane] * scale
                expected[columns] = np.linalg.solve(normal, -grad[lane][columns])
            assert np.all(steps[lane][~columns] == 0.0)
            assert np.max(np.abs(steps[lane] - expected)) <= 1e-12 * np.max(np.abs(expected))
            alone = _damped_steps(jac[lane:lane + 1], grad[lane:lane + 1], free[lane:lane + 1],
                                  damping[lane:lane + 1])
            assert alone.tobytes() == steps[lane:lane + 1].tobytes()


def full_slot_residuals_and_jacobian(surrogate, z, t):
    """The timing kernel with both halves of the slot list exponentiated."""
    d = len(z)
    z_full = np.concatenate([-z[::-1], z])
    t_full = np.concatenate([-t[::-1], t])
    w = surrogate.w
    effective = np.empty((len(w), 2 * d))
    within_total = np.zeros(len(w))
    for i, zi in enumerate(z_full):
        form, within = surrogate._burst_terms(abs(int(zi)))
        effective[:, i] = math.copysign(1.0, zi) * form if zi else 0.0
        within_total += within
    weighted = np.exp(1j * np.outer(w, t_full)) * effective
    prefix = np.cumsum(weighted, axis=1) - weighted
    cross = weighted * np.conj(prefix)
    theta = (float(np.sum(surrogate.phase_scale * np.imag(np.sum(cross, axis=1))))
             + float(np.sum(surrogate.phase_scale * within_total)))
    alpha_scale = (2.0 * surrogate.eta * np.sqrt(surrogate.weights))[:, None]
    r = np.empty(1 + len(w))
    r[0] = math.sqrt(2.0 / 3.0) * (abs(theta) - math.pi / 4)
    r[1:] = 2.0 * alpha_scale[:, 0] * np.imag(np.sum(weighted[:, d:], axis=1))
    suffix = np.cumsum(weighted[:, ::-1], axis=1)[:, ::-1] - weighted
    slot_grad = w[:, None] * (np.real(cross) - np.real(np.conj(weighted) * suffix))
    theta_grad = surrogate.phase_scale @ (slot_grad[:, d:] - slot_grad[:, :d][:, ::-1])
    jac = np.empty((1 + len(w), d))
    jac[0] = math.sqrt(2.0 / 3.0) * math.copysign(1.0, theta) * theta_grad
    jac[1:] = 2.0 * alpha_scale * (w[:, None] * np.real(weighted[:, d:]))
    return r, jac, weighted


class TestHalfPhasorKernel:
    @pytest.mark.parametrize("period", [0.0, 1.0 / 300e6])
    def test_matches_full_slot_construction(self, chain5, chain20, period):
        rng = np.random.default_rng(50)
        for chain, targets in ((chain5, (2, 3)), (chain20, (0, 1))):
            surrogate = _TimingCost(chain, targets, NBAR, period=period)
            for _ in range(20):
                d = int(rng.integers(2, 10))
                z = rng.integers(-5, 6, size=d).astype(float)
                z[rng.integers(0, d)] = 0.0
                if not np.any(z):
                    z[0] = 2.0
                t = np.cumsum(rng.uniform(40e-9, 90e-9, size=d))
                r_ref, jac_ref, weighted_ref = full_slot_residuals_and_jacobian(surrogate, z, t)
                bound = surrogate.bind(z)
                half, prefix, total = (a[0] for a in bound._phasors(t[None])[:3])
                # the full list's positive half, with equal values; an empty
                # slot's zero may carry either sign
                assert np.array_equal(half, weighted_ref[:, d:])
                assert np.array_equal(total, half.sum(axis=-1))
                r, jacobian = bound.residuals_and_jacobian(t[None])
                r, jac = r[0], jacobian()[0]
                # the displacement residuals keep their bits; Theta and the
                # Jacobian are summed another way, so each row agrees to
                # 1e-12 of its max norm
                assert r[1:].tobytes() == r_ref[1:].tobytes()
                assert abs(r[0] - r_ref[0]) <= 1e-12 * np.max(np.abs(r_ref))
                rows = np.max(np.abs(jac_ref), axis=1)
                assert np.all(np.max(np.abs(jac - jac_ref), axis=1) <= 1e-12 * rows)

    def test_lanes_give_the_same_bits_alone_and_in_any_stack(self, chain5, chain20):
        rng = np.random.default_rng(51)
        for chain, targets in ((chain5, (2, 3)), (chain20, (0, 1))):
            surrogate = _TimingCost(chain, targets, NBAR, period=1.0 / 300e6)
            lanes, d = 9, 7
            sizes = rng.integers(-5, 6, size=(lanes, d)).astype(float)
            sizes[2, 3] = 0.0
            times = np.cumsum(rng.uniform(40e-9, 90e-9, size=(lanes, d)), axis=1)
            stacked = surrogate.bind(sizes)
            r, jacobian = stacked.residuals_and_jacobian(times)
            jac = jacobian()
            picked = rng.random(lanes) < 0.5
            assert jacobian(picked).tobytes() == jac[picked].tobytes()
            for lane in range(lanes):
                alone = surrogate.bind(sizes[lane])
                r_lane, jacobian_lane = alone.residuals_and_jacobian(times[lane:lane + 1])
                assert r_lane.tobytes() == r[lane:lane + 1].tobytes()
                assert jacobian_lane().tobytes() == jac[lane:lane + 1].tobytes()
                assert alone.cost(times[lane:lane + 1])[0] == np.sum(r[lane] ** 2)


    def test_stacks_past_256_kib_keep_each_lane_bits(self, chain20):
        # 300 lanes of 20 modes x 7 groups make 672 KiB complex temporaries,
        # past the size from which numpy computes `a * temporary` in place
        rng = np.random.default_rng(52)
        surrogate = _TimingCost(chain20, (0, 1), NBAR, period=1.0 / 100e6)
        sizes = rng.integers(-8, 9, size=(300, 7)).astype(float)
        times = np.cumsum(rng.uniform(30e-9, 70e-9, size=(300, 7)), axis=1)
        r, jacobian = surrogate.bind(sizes).residuals_and_jacobian(times)
        jac = jacobian()
        for lane in rng.choice(300, size=12, replace=False):
            r_lane, jacobian_lane = surrogate.bind(sizes[lane]).residuals_and_jacobian(
                times[lane:lane + 1])
            assert r_lane.tobytes() == r[lane:lane + 1].tobytes()
            assert jacobian_lane().tobytes() == jac[lane:lane + 1].tobytes()

    @pytest.mark.parametrize("d", [8, 9, 12, 18])
    def test_memory_layout_keeps_each_lane_bits(self, chain20, d):
        # a Fortran-ordered stack and a stack of every other row of a wider
        # one hold the same times as C-ordered rows, in other memory orders
        rng = np.random.default_rng(53)
        surrogate = _TimingCost(chain20, (0, 1), NBAR, period=1.0 / 300e6)
        bound = surrogate.bind(rng.integers(-8, 9, size=d).astype(float))
        times = np.cumsum(rng.uniform(30e-9, 70e-9, size=(24, d)), axis=1)
        wide = np.zeros((48, d + 3))
        wide[::2, 1:d + 1] = times
        for stack in (np.asfortranarray(times), wide[::2, 1:d + 1]):
            r, jacobian = bound.residuals_and_jacobian(stack)
            jac, cost = jacobian(), bound.cost(stack)
            for lane in range(len(times)):
                alone = times[lane:lane + 1].copy()
                r_lane, jacobian_lane = bound.residuals_and_jacobian(alone)
                assert r_lane.tobytes() == r[lane:lane + 1].tobytes()
                assert jacobian_lane().tobytes() == jac[lane:lane + 1].tobytes()
                assert bound.cost(alone).tobytes() == cost[lane:lane + 1].tobytes()


def _reference_window(trial, index, anchor_gap_lo, anchor_gap_hi, period):
    """The times group `index` of `trial` may take inside both of its gap
    windows widened by a quarter slot, as (low, high), one group at a time."""
    prev_t = trial[index - 1] if index > 0 else 0.0
    low = prev_t + anchor_gap_lo[index]
    high = prev_t + anchor_gap_hi[index]
    if index + 1 < len(trial):
        low = max(low, trial[index + 1] - anchor_gap_hi[index + 1])
        high = min(high, trial[index + 1] - anchor_gap_lo[index + 1])
    return low - 0.25 * period, high + 0.25 * period


def _pairwise_fit(half_sizes, half_times, period):
    """The burst rule on group times, pair by pair: the first nonempty
    group's burst ends its first kick half a period or more from the
    midpoint, and each two neighbouring nonempty bursts keep a period
    between their kicks."""
    kept = [(abs(z), t) for z, t in zip(half_sizes, half_times) if z != 0]
    if kept[0][1] < ((kept[0][0] - 1) / 2 + 0.5) * period * (1 - 1e-9):
        return False
    return all(tb - ta >= ((na - 1) / 2 + (nb - 1) / 2 + 1) * period * (1 - 1e-9)
               for (na, ta), (nb, tb) in zip(kept, kept[1:]))


def _reference_grid_descent(timing_cost, half_sizes, slots, half_times, phase,
                            anchor_gap_lo, anchor_gap_hi, max_slots=5):
    """The on-grid descent scoring one trial at a time: each pass tries
    every shift of one nonempty group's slot by +-1 to +-`max_slots`, group
    by group, then every shift of two adjacent nonempty groups together by
    +-1 or +-2 slots, and takes the best strictly improving one, the first
    on ties.  A nonempty group's time is the centre of its burst, (slot +
    (|z| - 1) / 2) T plus the grid phase; an empty group keeps its time."""
    period = timing_cost.period
    active = [i for i, zval in enumerate(half_sizes) if zval != 0]

    def placed(trial_slots):
        times = list(half_times)
        for index, slot in zip(active, trial_slots):
            times[index] = (slot + 0.5 * (abs(half_sizes[index]) - 1)) * period + phase
        return times

    def windowed(trial, index):
        return _reference_window(trial, index, anchor_gap_lo, anchor_gap_hi, period)

    slots = list(slots)
    times = placed(slots)
    if not _pairwise_fit(half_sizes, times, period):
        return math.inf, times, 0
    bound_cost = timing_cost.bind(half_sizes)
    cost = float(bound_cost.cost(np.array([times]))[0])
    evaluations = 1

    steps = [step for step in range(-max_slots, max_slots + 1) if step]
    moves = [((group,), step) for group in range(len(active)) for step in steps]
    moves += [((group, group + 1), step) for group in range(len(active) - 1)
              for step in (-2, -1, 1, 2)]
    for _ in range(40):
        best_cost, best_slots = cost, None
        for groups, step in moves:
            trial_slots = list(slots)
            for group in groups:
                trial_slots[group] += step
            trial = placed(trial_slots)
            if not _pairwise_fit(half_sizes, trial, period):
                continue
            if not all(low <= trial[active[g]] <= high
                       for g in groups for low, high in [windowed(trial, active[g])]):
                continue
            c = float(bound_cost.cost(np.array([trial]))[0])
            evaluations += 1
            if c < best_cost:
                best_cost, best_slots = c, trial_slots
        if best_slots is None:
            break
        cost, slots = best_cost, best_slots
    times = placed(slots)
    if not all(low <= times[k] <= high for k in active for low, high in [windowed(times, k)]):
        return math.inf, times, evaluations
    return cost, times, evaluations


class TestGridDescent:
    def test_batched_scan_matches_per_trial_loop(self, chain5, chain20):
        rng = np.random.default_rng(60)
        rate = 300e6
        checked = 0
        for chain, targets in ((chain5, (2, 3)), (chain20, (0, 1))):
            surrogate = _TimingCost(chain, targets, NBAR, period=1.0 / rate)
            for _ in range(8):
                d = int(rng.integers(3, 8))
                sizes = [int(v) for v in rng.integers(-3, 4, size=d)]
                if not any(sizes):
                    sizes[0] = 1
                times = np.cumsum(rng.uniform(45e-9, 80e-9, size=d))
                gaps = np.diff(np.concatenate([[0.0], times]))
                for phase in (0.0, 0.5 / rate):
                    args = (surrogate, sizes, _slots(sizes, times, rate, phase), list(times),
                            phase, 0.75 * gaps, 1.25 * gaps)
                    cost_ref, times_ref, evals_ref = _reference_grid_descent(*args)
                    cost, polished, evals = _grid_descent(*args)
                    assert cost == cost_ref
                    assert polished == times_ref
                    assert evals == evals_ref
                    checked += math.isfinite(cost)
        assert checked >= 16

    def test_ties_keep_the_first_slot(self, chain5):
        class CoarseCost:
            """A surrogate rounded so coarsely that many slots tie."""

            def __init__(self, period):
                self.period = period
                self.w = chain5.mode_frequencies

            def bind(self, half_sizes):
                return self

            def cost(self, t_half):
                t = np.asarray(t_half) / self.period
                costs = np.round(np.sum(np.abs(t - np.round(t / 7.0) * 7.0), axis=-1) / 3.0)
                return float(costs) if t.ndim == 1 else costs

        rng = np.random.default_rng(61)
        rate = 300e6
        for _ in range(10):
            d = int(rng.integers(3, 7))
            sizes = [int(v) for v in rng.integers(1, 3, size=d)]
            times = np.cumsum(rng.uniform(50e-9, 80e-9, size=d))
            gaps = np.diff(np.concatenate([[0.0], times]))
            args = (CoarseCost(1.0 / rate), sizes, _slots(sizes, times, rate), list(times), 0.0,
                    0.75 * gaps, 1.25 * gaps)
            assert _grid_descent(*args) == _reference_grid_descent(*args)

    def test_ends_inside_the_windows_or_gives_no_solution(self, chain5):
        # windows a fifth of a slot wide: most snapped starts begin outside
        # them, and the descent must bring every group back or give up
        rng = np.random.default_rng(62)
        rate = 300e6
        period = 1.0 / rate
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=period)
        outcomes = set()
        for _ in range(12):
            d = int(rng.integers(3, 6))
            sizes = [int(v) for v in rng.integers(1, 3, size=d)]
            times = np.cumsum(rng.uniform(40e-9, 60e-9, size=d))
            gaps = _gaps(times)
            args = (surrogate, sizes, _slots(sizes, times, rate), list(times), 0.0,
                    gaps - 0.1 * period, gaps + 0.1 * period)
            cost, polished, evals = _grid_descent(*args)
            assert (cost, polished, evals) == _reference_grid_descent(*args)
            snapped = _snapped(sizes, times, rate)
            started_outside = np.any(np.abs(_gaps(snapped) - gaps) > 0.35 * period)
            if math.isfinite(cost):
                assert _in_windows(polished, *args[5:], period)
            outcomes.add((started_outside, math.isfinite(cost)))
        assert {(True, True), (True, False)} <= outcomes

    def test_one_pass_takes_the_best_move_over_improving_singles(self):
        # moving group 0 back a slot improves, but shifting both groups on
        # by a slot together is the best move, and the first pass takes it
        period = 1.0 / 300e6
        start = np.array([20.0, 40.0]) * period
        landscape = {(0, 0): 10.0, (-1, 0): 5.0, (1, 1): 0.0}

        class SlotCost:
            """A surrogate read from a table of slot offsets from `start`."""

            def __init__(self):
                self.period = period

            def bind(self, half_sizes):
                return self

            def cost(self, t_half):
                offsets = np.rint((np.atleast_2d(t_half) - start) / period).astype(int)
                return np.array([landscape.get(tuple(row), 20.0) for row in offsets.tolist()])

        gaps = _gaps(start)
        args = (SlotCost(), [1, 1], [20, 40], start.tolist(), 0.0, 0.5 * gaps, 1.5 * gaps)
        cost, polished, evals = _grid_descent(*args)
        assert cost == 0.0
        assert polished == [21 * period, 41 * period]
        # 10 + 10 single shifts and 4 paired ones, scored from the start and
        # from the pair's end, where nothing improves
        assert evals == 1 + 2 * 24
        assert (cost, polished, evals) == _reference_grid_descent(*args)

    def test_kernel_stacks_stay_under_the_cap_at_n100(self, monkeypatch):
        # the recorded N=100 winner's groups, each moved a few slots off its
        # time: every pass scores up to 80 moves of 600 phasor entries
        from fastgate import fidelity

        recorded = RECORDED_STAGE2["n100-edge"]
        chain = build_chain(TrapConfig(num_ions=recorded["num_ions"]))
        rate = 300e6
        period = 1.0 / rate
        surrogate = _TimingCost(chain, tuple(recorded["targets"]), NBAR, period=period)
        sizes = recorded["half_sizes"]
        times = np.array([float.fromhex(t) for t in recorded["half_times"]])
        start = times + np.array([2, -2, 1, 2, -1, 1]) * period
        gaps = _gaps(times)
        args = (surrogate, sizes, _slots(sizes, start, rate), list(start), 0.0,
                0.5 * gaps, 1.5 * gaps)
        cap = fidelity._PHASOR_ENTRIES
        stacks = []
        phasors = fidelity._BoundTimingCost._phasors

        def spy(self, t_half, lanes=None):
            stacks.append(t_half.shape[0] * t_half.shape[1] * len(self.parent.w))
            return phasors(self, t_half, lanes)

        monkeypatch.setattr(fidelity._BoundTimingCost, "_phasors", spy)
        capped = _grid_descent(*args)
        capped_stacks = stacks[:]
        stacks.clear()
        monkeypatch.setattr(fidelity, "_PHASOR_ENTRIES", 1 << 40)
        whole = _grid_descent(*args)
        assert max(capped_stacks) <= cap < max(stacks)
        assert len(stacks) >= 3  # the start and at least two passes
        assert math.isfinite(capped[0])
        assert capped == whole


class TestInsideWindows:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_bounds_and_their_neighbouring_floats(self, d):
        # each group at each of its four window bounds, and one float either
        # side of it, against the per-group rule of the reference descent
        rng = np.random.default_rng(66 + d)
        period = 1.0 / 300e6
        quarter = 0.25 * period
        edges = 0
        for _ in range(10):
            gaps = rng.uniform(40e-9, 80e-9, size=d)
            gap_lo, gap_hi = 0.8 * gaps, 1.2 * gaps
            times = np.cumsum(gaps)
            for index in range(d):
                prev_t = times[index - 1] if index > 0 else 0.0
                bounds = [prev_t + gap_lo[index] - quarter, prev_t + gap_hi[index] + quarter]
                if index + 1 < d:
                    bounds += [times[index + 1] - gap_hi[index + 1] - quarter,
                               times[index + 1] - gap_lo[index + 1] + quarter]
                rows = np.tile(times, (3 * len(bounds), 1))
                rows[:, index] = [np.nextafter(bound, toward) for bound in bounds
                                  for toward in (-np.inf, bound, np.inf)]
                mask = _inside_windows(rows, gap_lo, gap_hi, period)
                expected = [
                    [low <= row[k] <= high
                     for k in range(d)
                     for low, high in [_reference_window(row.tolist(), k, gap_lo, gap_hi,
                                                         period)]]
                    for row in rows
                ]
                assert mask.tolist() == expected
                # a bound that binds keeps its float inside and the next one out
                edges += sum(triple in ([False, True, True], [True, True, False])
                             for triple in mask[:, index].reshape(-1, 3).tolist())
        assert edges >= 10 * d


class TestSnappedInWindows:
    def test_in_window_snaps_are_kept(self):
        rng = np.random.default_rng(63)
        rate = 300e6
        for _ in range(10):
            d = int(rng.integers(3, 8))
            sizes = [int(v) for v in rng.integers(-3, 4, size=d)]
            times = np.cumsum(rng.uniform(45e-9, 80e-9, size=d))
            gaps = _gaps(times)
            for phase in (0.0, 0.5 / rate):
                slots = _slots(sizes, times, rate, phase)
                assert bursts_fit(slots, [z for z in sizes if z != 0], phase)
                assert _snapped_in_windows(sizes, times, rate, phase, 0.75 * gaps,
                                           1.25 * gaps) == (slots, _snapped(sizes, times, rate, phase))

    @staticmethod
    def pinned_cases(rng, period, count):
        """Fitted gaps pinned at their window edges or burst floors, as the
        timing fits leave them, as (sizes, times, gap_lo, gap_hi)."""
        while count:
            d = int(rng.integers(3, 7))
            sizes = [int(v) for v in rng.integers(-5, 6, size=d)]
            gaps = rng.uniform(30e-9, 60e-9, size=d)
            gap_lo, gap_hi = 0.75 * gaps, 1.25 * gaps
            floors = _burst_floors(np.abs(sizes), period)
            if not any(sizes) or np.any(floors > gap_hi):
                continue
            fitted = np.where(rng.random(d) < 0.5, gap_hi, np.maximum(gap_lo, floors))
            times = np.cumsum(fitted)
            assert _clear_of_burst_floors(sizes, times, period)
            count -= 1
            yield sizes, times, gap_lo, gap_hi

    def test_gaps_at_window_edges_snap_back_inside(self):
        # the plain snap can put a gap up to a slot outside its window or
        # below its burst floor, the windowed snap may not
        rate = 100e6
        period = 1.0 / rate
        moved = outside = 0
        for sizes, times, gap_lo, gap_hi in self.pinned_cases(np.random.default_rng(64),
                                                              period, 40):
            for phase in (0.0, 0.5 * period):
                plain = _snapped(sizes, times, rate, phase)
                slots, snapped = _snapped_in_windows(sizes, times, rate, phase, gap_lo, gap_hi)
                assert _in_windows(snapped, gap_lo, gap_hi, period)
                assert bursts_fit(slots, [z for z in sizes if z != 0], phase)
                outside += not _in_windows(plain, gap_lo, gap_hi, period)
                # each nonempty group sits at the centre of its burst
                kept = [t for z, t in zip(sizes, snapped) if z != 0]
                assert kept == [float(burst_center(slot, z, period, phase))
                                for slot, z in zip(slots, [z for z in sizes if z != 0])]
                moved += snapped != plain
        assert outside >= 10 and moved >= outside

    @staticmethod
    def listed(half_sizes, half_times, rate, phase, gap_lo, gap_hi):
        """The windowed snap found by listing every slot whose burst centre
        may lie in each window, and a slot more on each side."""
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

    @staticmethod
    def edge_cases(period, phase):
        """One group whose window, widened by a quarter slot, starts or ends
        exactly on a burst centre, as (sizes, times, gap_lo, gap_hi)."""
        for size in (1, 2, 3, -4):
            for slot in range(30, 34):
                centre = float(burst_center(slot, size, period, phase))
                for side in (-1.0, 1.0):  # the low or the high edge
                    edge = centre - side * 0.25 * period
                    for _ in range(4):
                        widened = edge + side * 0.25 * period
                        if widened == centre:
                            break
                        edge = float(np.nextafter(edge, np.inf if widened < centre else -np.inf))
                    lo, hi = (edge, edge + 3 * period) if side < 0 else (edge - 3 * period, edge)
                    yield [size], [centre + side * 0.3 * period], np.array([lo]), np.array([hi])

    @pytest.mark.parametrize("rate", [100e6, 300e6, 1000e6])
    def test_slot_runs_match_listing_every_slot(self, rate):
        rng = np.random.default_rng(67)
        period = 1.0 / rate
        cases = list(self.pinned_cases(rng, period, 30))
        while len(cases) < 80:
            # gaps of a few slots, often too narrow for their bursts
            d = int(rng.integers(2, 7))
            sizes = [int(v) for v in rng.integers(-6, 7, size=d)]
            gaps = rng.uniform(1.0, 12.0, size=d) * period
            times = np.cumsum(gaps * (1.0 + rng.uniform(-0.3, 0.3, size=d)))
            cases.append((sizes, times, 0.75 * gaps, 1.25 * gaps))
        moved = unplaced = 0
        on_edge = 0
        for phase in (0.0, 0.5 * period):
            for sizes, times, gap_lo, gap_hi in self.edge_cases(period, phase):
                assert _snapped_in_windows(sizes, times, rate, phase, gap_lo, gap_hi) == \
                    self.listed(sizes, times, rate, phase, gap_lo, gap_hi)
                on_edge += float(burst_center(_snapped_in_windows(
                    sizes, times, rate, phase, gap_lo, gap_hi)[0][0], sizes[0], period, phase)) in (
                    gap_lo[0] - 0.25 * period, gap_hi[0] + 0.25 * period)
        assert on_edge >= 16
        for sizes, times, gap_lo, gap_hi in cases:
            for phase in (0.0, 0.5 * period):
                expected = self.listed(sizes, list(times), rate, phase, gap_lo, gap_hi)
                assert _snapped_in_windows(sizes, list(times), rate, phase, gap_lo,
                                           gap_hi) == expected
                slots = expected[0]
                moved += slots != _slots(sizes, list(times), rate, phase)
                unplaced += not bursts_fit(slots, [z for z in sizes if z != 0], phase)
        assert moved >= 10 and unplaced >= 10

    def test_every_phase_polishes_to_a_solution(self, chain5):
        # a start outside the windows could only be polished back by moves
        # that also lower the cost; the windowed snap starts inside them
        rate = 100e6
        period = 1.0 / rate
        surrogate = _TimingCost(chain5, (2, 3), NBAR, period=period)
        for sizes, times, gap_lo, gap_hi in self.pinned_cases(np.random.default_rng(65),
                                                              period, 20):
            # no pulse error: 1 - (1 - ideal)
            context = _Stage2(surrogate, rate, gap_lo, gap_hi, 0, 0, 0.0, "pi_pulses", sizes)
            solutions, _ = _grid_solutions(context, sizes, list(times))
            assert [phase for *_, phase in solutions] == [0.0, 0.5 * period]
            for _, _, polished, _ in solutions:
                assert _in_windows(polished, gap_lo, gap_hi, period)


class TestInfeasibleCandidates:
    def failing_first(self, monkeypatch):
        from fastgate import optimize

        real = optimize.stage2
        calls = []

        def stage2_failing_first(candidate, *args, **kwargs):
            calls.append(candidate)
            if len(calls) == 1:
                raise GridResolutionError("first candidate cannot be expressed")
            return real(candidate, *args, **kwargs)

        monkeypatch.setattr(optimize, "stage2", stage2_failing_first)
        return calls

    def test_dropped_and_counted(self, chain2, monkeypatch):
        config = small_stage1_config(top_k=3)
        s2 = Stage2Config(local_restarts=0)
        candidates, _ = stage1(chain2, config, seed=3)
        expected, _ = refine_candidates(candidates[1:], chain2, config, s2, seed=3)
        calls = self.failing_first(monkeypatch)
        result = optimize_gate(chain2, config, s2, seed=3)
        assert len(calls) == 3
        assert result.telemetry["stage2_infeasible"] == 1
        assert result.telemetry["stage2_candidates"] == 3
        best = min(expected, key=lambda r: (
            1.0 - r.adjusted_fidelity, r.report.sdk_count, r.gate_duration,
            r.sequence.group_sizes,
        ))
        assert result.train.to_json_dict() == best.train.to_json_dict()
        assert result.telemetry["stage2_evaluations"] == sum(
            r.telemetry["stage2_evaluations"] for r in expected
        )

    def test_raises_when_none_left(self, chain2, monkeypatch):
        from fastgate import optimize

        def never(*args, **kwargs):
            raise GridResolutionError("cannot be expressed")

        monkeypatch.setattr(optimize, "stage2", never)
        with pytest.raises(GridResolutionError, match="all 2 stage-1 candidates"):
            optimize_gate(chain2, small_stage1_config(top_k=2), Stage2Config(), seed=1)

    def test_threads_drop_the_same_candidates(self, chain2):
        from fastgate.optimize import Stage1Candidate

        config = small_stage1_config(top_k=1)
        good, _ = stage1(chain2, config, seed=2)
        # no timing within the windows fits a burst at 20 MHz
        seq = PulseGroupSequence.from_half([3, 3], [2e-9, 4e-9], (0, 1), 8e-9)
        bad = Stage1Candidate(
            sequence=seq, ideal_infidelity=0.1, adjusted_infidelity=0.1,
            sdk_count=seq.total_sdks, design_gate_time=8e-9, bound_found=3,
        )
        s2 = Stage2Config(repetition_rate=20e6, local_restarts=0)
        runs = [refine_candidates([bad, good[0], bad], chain2, config, s2, seed=2, threads=t)
                for t in (1, 2)]
        for results, infeasible in runs:
            assert infeasible == 2 and len(results) == 1
        assert json.dumps(runs[0][0][0].to_json_dict(), sort_keys=True) == json.dumps(
            runs[1][0][0].to_json_dict(), sort_keys=True
        )
