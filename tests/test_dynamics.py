import math

import numpy as np
import pytest

from fastgate.chain import TrapConfig, build_chain
from fastgate.constants import CONSTANTS
from fastgate.dynamics import (
    BASIS_STATES,
    ModeState,
    PhaseSymmetryError,
    TrajectoryResult,
    entangling_phase,
    free_evolution,
    propagate,
    propagate_lanes,
    propagate_linear_ode,
    propagate_nonlinear,
    trajectory_samples,
)
from fastgate.fidelity import (
    GateReport,
    ThermalSpec,
    evaluate_train,
    evaluate_trains,
    pulse_count_for,
)
from fastgate.optimize import OptimizationResult, jitter_sensitivity
from fastgate.sequence import KickTrain, PulseGroupSequence, instantaneous_train

from conftest import random_half_sequence


def random_train(rng, targets=(0, 1), kicks=12, span=1e-6):
    times = np.sort(rng.uniform(-span / 2, span / 2, size=kicks))
    signs = rng.choice([-1, 1], size=kicks)
    return KickTrain(tuple(times), tuple(int(s) for s in signs), targets)


class TestFreeEvolution:
    def test_rest_state_stays(self):
        state = free_evolution(ModeState(), 2 * math.pi * 1e6, 0.37e-6)
        assert state.position == 0.0 and state.velocity == 0.0

    def test_full_period_identity(self):
        w = 2 * math.pi * 1.3e6
        start = ModeState(position=2e-9, velocity=0.03)
        out = free_evolution(start, w, 2 * math.pi / w)
        assert out.position == pytest.approx(start.position, rel=1e-12)
        assert out.velocity == pytest.approx(start.velocity, rel=1e-12)

    def test_energy_conserved_to_1e12(self):
        rng = np.random.default_rng(8)
        w = 2 * math.pi * 2.2e6
        for _ in range(200):
            q, v = rng.normal(size=2) * [1e-9, 0.05]
            out = free_evolution(ModeState(position=q, velocity=v), w, rng.uniform(0, 5e-6))
            before = v**2 + w**2 * q**2
            after = out.velocity**2 + w**2 * out.position**2
            assert abs(after - before) <= 1e-12 * before

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            free_evolution(ModeState(), 1e6, -1.0)


class TestApplyKick:
    def test_symmetric_kick_skips_stretch_mode(self, chain2):
        out = propagate(KickTrain((0.0,), (1,), (0, 1)), chain2, (1, 1))
        assert out.velocities[1] == 0.0
        assert out.velocities[0] != 0.0

    def test_antisymmetric_kick_skips_com_mode(self, chain2):
        out = propagate(KickTrain((0.0,), (1,), (0, 1)), chain2, (1, -1))
        assert out.velocities[0] == 0.0
        assert out.velocities[1] != 0.0

    def test_single_kick_cat_size(self, chain5):
        # |alpha| = 2 eta |s_mu b_mu + s_nu b_nu| for a kick from rest.
        train = KickTrain((0.0,), (1,), (1, 2))
        for basis in BASIS_STATES:
            result = propagate(train, chain5, basis)
            coupling = (
                basis[0] * chain5.mode_couplings[:, 1] + basis[1] * chain5.mode_couplings[:, 2]
            )
            assert np.abs(result.alphas) == pytest.approx(
                2 * chain5.lamb_dicke * np.abs(coupling), rel=1e-12
            )

    def test_rejects_equal_targets(self, chain2):
        with pytest.raises(ValueError):
            propagate(KickTrain((0.0,), (1,), (1, 1)), chain2, (1, 1))


class TestPropagate:
    def test_empty_train(self, chain5):
        result = propagate(KickTrain((), (), (0, 1)), chain5, (1, 1))
        assert result.total_phase == 0.0
        assert np.all(result.alphas == 0)

    def test_mirror_train_same_outputs(self, chain5):
        rng = np.random.default_rng(4)
        for _ in range(10):
            train = random_train(rng, targets=(2, 3))
            mirrored = KickTrain(
                tuple(-t for t in reversed(train.kick_times)),
                tuple(-s for s in reversed(train.kick_signs)),
                train.target_ions,
            )
            a = propagate(train, chain5, (1, -1))
            b = propagate(mirrored, chain5, (1, -1))
            assert b.total_phase == pytest.approx(a.total_phase, rel=1e-10, abs=1e-14)
            assert np.abs(b.alphas) == pytest.approx(np.abs(a.alphas), rel=1e-10, abs=1e-14)

    def test_integer_kick_scaling(self, chain2):
        # c coincident kicks scale alpha by c and the phase by c^2.
        base = KickTrain((-2e-7, 3e-7), (-1, 1), (0, 1))
        result1 = propagate(base, chain2, (1, 1))
        for c in (2, 3):
            train = KickTrain((-2e-7,) * c + (3e-7,) * c, (-1,) * c + (1,) * c, (0, 1))
            result = propagate(train, chain2, (1, 1))
            assert result.alphas == pytest.approx(c * result1.alphas, rel=1e-12)
            assert result.total_phase == pytest.approx(c**2 * result1.total_phase, rel=1e-12)

    def test_momentum_restoration_random_antisymmetric(self, small_chains):
        rng = np.random.default_rng(13)
        hbar = CONSTANTS.hbar
        for _ in range(40):
            n = int(rng.integers(2, 11))
            chain = small_chains[n]
            sizes, times, gate_time = random_half_sequence(rng)
            mu = int(rng.integers(0, n - 1))
            seq = PulseGroupSequence.from_half(sizes, times, (mu, mu + 1), gate_time)
            train = instantaneous_train(seq)
            if train.num_kicks == 0:
                continue
            result = propagate(train, chain, (1, 1))
            # Momentum quadrature at the midpoint frame vs peak kick velocity.
            v_mid = np.imag(result.alphas) * np.sqrt(
                2 * hbar * chain.mode_frequencies / chain.ion_mass
            )
            coupling = chain.mode_couplings[:, mu] + chain.mode_couplings[:, mu + 1]
            peak = 2 * hbar * chain.wavenumber / chain.ion_mass * np.abs(coupling)
            assert np.all(np.abs(v_mid) <= 1e-12 * np.maximum(peak, 1e-30))

    def test_agrees_with_ode_oracle(self, chain5):
        rng = np.random.default_rng(17)
        for _ in range(5):
            sizes, times, gate_time = random_half_sequence(rng, max_groups=5, max_size=3)
            seq = PulseGroupSequence.from_half(sizes, times, (1, 2), gate_time)
            train = instantaneous_train(seq)
            if train.num_kicks == 0:
                continue
            exact = propagate(train, chain5, (1, -1))
            ode = propagate_linear_ode(train, chain5, (1, -1))
            assert ode.total_phase == pytest.approx(exact.total_phase, abs=1e-10)
            assert np.max(np.abs(ode.alphas - exact.alphas)) < 1e-10

    def test_trajectory_samples_cover_kicks(self, chain2):
        train = KickTrain((-2e-7, 3e-7), (-1, 1), (0, 1))
        rows = trajectory_samples(train, chain2, (1, 1), points_per_segment=4)
        times = sorted({row[0] for row in rows})
        assert times[0] == -2e-7 and times[-1] == 3e-7
        assert len(rows) % chain2.num_ions == 0
        # velocity jump visible at the kick instants (duplicate times)
        final_rows = [r for r in rows if r[0] == 3e-7 and r[1] == 0]
        assert len(final_rows) == 2 and final_rows[0][3] != final_rows[1][3]


class TestEntanglingPhase:
    def test_single_pair_matches_displacement_algebra(self, chain2):
        # Oracle: Theta = -8 sum_m eta^2 b_mu b_nu sin(2 w tau) for a +-1
        # group pair at -tau, +tau (phase composition of four displacements).
        tau = 87e-9
        seq = PulseGroupSequence.from_half([1], [tau], (0, 1), 4 * tau)
        train = instantaneous_train(seq)
        results = [propagate(train, chain2, b) for b in BASIS_STATES]
        theta = entangling_phase(results)
        oracle = -8 * float(
            np.sum(
                chain2.lamb_dicke**2
                * chain2.mode_couplings[:, 0]
                * chain2.mode_couplings[:, 1]
                * np.sin(2 * chain2.mode_frequencies * tau)
            )
        )
        assert theta == pytest.approx(oracle, rel=1e-12)

    def test_empty_train_zero(self, chain2):
        results = [propagate(KickTrain((), (), (0, 1)), chain2, b) for b in BASIS_STATES]
        assert entangling_phase(results) == 0.0

    def test_symmetry_assertion_fires(self, chain2):
        train = KickTrain((-1e-7, 1e-7), (-1, 1), (0, 1))
        results = [propagate(train, chain2, b) for b in BASIS_STATES]
        broken = results[0].__class__(
            basis_state=(1, 1),
            positions=results[0].positions,
            velocities=results[0].velocities,
            alphas=results[0].alphas,
            mode_phases=results[0].mode_phases,
            total_phase=results[0].total_phase + 1.0,
        )
        with pytest.raises(PhaseSymmetryError):
            entangling_phase([broken] + results[1:])

    def test_requires_four_results(self, chain2):
        train = KickTrain((-1e-7, 1e-7), (-1, 1), (0, 1))
        with pytest.raises(ValueError):
            entangling_phase([propagate(train, chain2, (1, 1))])


class TestNonlinearOracle:
    def test_no_kicks_stays_at_equilibrium(self):
        # Net-zero kick pairs leave the ions at equilibrium; the integrator
        # must hold them there over the full span.
        config = TrapConfig(num_ions=2)
        train = KickTrain(
            (-0.4e-6, -0.4e-6, 0.4e-6, 0.4e-6), (1, -1, 1, -1), (0, 1)
        )
        result = propagate_nonlinear(train, config, (1, 1))
        assert np.max(np.abs(result.alphas)) < 1e-8
        assert abs(result.total_phase) < 1e-8

    def test_empty_train_is_identity(self):
        config = TrapConfig(num_ions=2)
        result = propagate_nonlinear(KickTrain((), (), (0, 1)), config, (1, 1))
        assert np.all(result.alphas == 0)

    def test_weak_kicks_match_linear(self, chain2):
        # Basis (1, -1) drives the stretch mode, the one that actually feels
        # the Coulomb anharmonicity; COM motion is exactly linear.  The
        # mismatch grows quadratically with the kicked amplitude: measured
        # coefficients delta_alpha / alpha^2 of 8e-4 (0.2 us pair) up to
        # 6e-3 (1.5 us trains), so 0.02 alpha^2 bounds weak trains safely.
        config = TrapConfig(num_ions=2)
        rng = np.random.default_rng(3)
        for _ in range(4):
            sizes, times, gate_time = random_half_sequence(rng, max_groups=3, max_size=1)
            seq = PulseGroupSequence.from_half(sizes, times, (0, 1), gate_time)
            train = instantaneous_train(seq)
            if train.num_kicks == 0:
                continue
            linear = propagate(train, chain2, (1, -1))
            nonlinear = propagate_nonlinear(train, config, (1, -1))
            # The anharmonic error follows the mid-gate excursion, which for
            # nearly-closing antisymmetric trains far exceeds the residual:
            # bound on the excursion is one kick's displacement per SDK.
            excursion = 2.0 * np.max(chain2.lamb_dicke) * math.sqrt(2.0) * train.num_kicks
            bound = 0.02 * excursion**2 + 1e-8
            assert np.max(np.abs(nonlinear.alphas - linear.alphas)) < bound
            assert nonlinear.total_phase == pytest.approx(linear.total_phase, abs=bound)

    def test_com_kicks_exactly_linear(self):
        # Equal kicks excite only the COM mode, which decouples from the
        # Coulomb term exactly; the oracle must agree with the linear model
        # at machine-noise level even for enormous momentum.
        config = TrapConfig(num_ions=2)
        chain = build_chain(config)
        tau = 0.3e-6
        train = instantaneous_train(
            PulseGroupSequence.from_half([200], [tau], (0, 1), 4 * tau)
        )
        gap = np.max(
            np.abs(propagate_nonlinear(train, config, (1, 1)).alphas
                   - propagate(train, chain, (1, 1)).alphas)
        )
        assert gap < 1e-6

    def test_huge_kicks_diverge_from_linear(self):
        # The oracle must distinguish regimes: amplify the stretch-mode
        # momentum far beyond the gate scale and watch the nonlinearity grow.
        config = TrapConfig(num_ions=2)
        chain = build_chain(config)
        tau = 0.3e-6
        weak = instantaneous_train(
            PulseGroupSequence.from_half([2], [tau], (0, 1), 4 * tau)
        )
        strong = instantaneous_train(
            PulseGroupSequence.from_half([200], [tau], (0, 1), 4 * tau)
        )
        weak_gap = np.max(
            np.abs(propagate_nonlinear(weak, config, (1, -1)).alphas
                   - propagate(weak, chain, (1, -1)).alphas)
        ) / 2
        strong_gap = np.max(
            np.abs(propagate_nonlinear(strong, config, (1, -1)).alphas
                   - propagate(strong, chain, (1, -1)).alphas)
        ) / 200
        assert strong_gap > 50 * weak_gap

    def test_rejects_large_chains(self):
        config = TrapConfig(num_ions=4)
        with pytest.raises(ValueError):
            propagate_nonlinear(KickTrain((0.0,), (1,), (0, 1)), config, (1, 1))


def _reference_trajectory_samples(train, chain, basis_state, points_per_segment=12):
    """The per-sample loop that `trajectory_samples` vectorises."""
    n = chain.num_ions
    w = chain.mode_frequencies
    mu, nu = train.target_ions
    s_mu, s_nu = basis_state
    coupling = s_mu * chain.mode_couplings[:, mu] + s_nu * chain.mode_couplings[:, nu]
    dv_unit = (2.0 * CONSTANTS.hbar * chain.wavenumber / chain.ion_mass) * coupling

    rows = []
    if train.num_kicks == 0:
        return rows
    q = np.zeros(n)
    v = np.zeros(n)
    t_cur = train.kick_times[0]

    def emit(t, qv, vv):
        for m in range(n):
            rows.append((t, m, qv[m], vv[m]))

    emit(t_cur, q, v)
    for t_k, sign in zip(train.kick_times, train.kick_signs):
        tau = t_k - t_cur
        if tau > 0.0:
            for step in range(1, points_per_segment):
                dt = tau * step / points_per_segment
                c, s = np.cos(w * dt), np.sin(w * dt)
                emit(t_cur + dt, q * c + (v / w) * s, v * c - w * q * s)
            c, s = np.cos(w * tau), np.sin(w * tau)
            q, v = q * c + (v / w) * s, v * c - w * q * s
            t_cur = t_k
            emit(t_cur, q, v)
        v = v + sign * dv_unit
        emit(t_cur, q, v)
    return rows


class TestTrajectorySamplesVectorised:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_matches_per_sample_loop(self, small_chains, n):
        rng = np.random.default_rng(70 + n)
        chain = small_chains[n]
        for points in (2, 5, 12):
            train = random_train(rng, targets=(0, 1), kicks=int(rng.integers(1, 15)))
            # repeated kick times give zero-length segments
            train = KickTrain(train.kick_times[:1] + train.kick_times[:-1],
                              train.kick_signs, train.target_ions)
            for basis in ((1, 1), (1, -1)):
                rows = trajectory_samples(train, chain, basis, points_per_segment=points)
                expected = _reference_trajectory_samples(train, chain, basis, points)
                assert rows == expected

    def test_empty_train(self, chain2):
        assert trajectory_samples(KickTrain((), (), (0, 1)), chain2, (1, 1)) == []


def _reference_propagate(train, chain, basis_state):
    """The lone per-kick loop that `propagate_lanes` stacks."""
    n = chain.num_ions
    w = chain.mode_frequencies
    mu, nu = train.target_ions
    s_mu, s_nu = basis_state
    coupling = s_mu * chain.mode_couplings[:, mu] + s_nu * chain.mode_couplings[:, nu]
    dv_unit = (2.0 * CONSTANTS.hbar * chain.wavenumber / chain.ion_mass) * coupling

    q = np.zeros(n)
    v = np.zeros(n)
    phase = np.zeros(n)
    if train.num_kicks == 0:
        return TrajectoryResult(tuple(basis_state), q, v, np.zeros(n, dtype=complex),
                                phase, 0.0)

    t_cur = train.kick_times[0]
    m_over_2h = chain.ion_mass / (2.0 * CONSTANTS.hbar)
    for t_k, sign in zip(train.kick_times, train.kick_signs):
        tau = t_k - t_cur
        if tau > 0.0:
            c, s = np.cos(w * tau), np.sin(w * tau)
            q, v = q * c + (v / w) * s, v * c - w * q * s
            t_cur = t_k
        dv = sign * dv_unit
        phase += m_over_2h * dv * q
        v = v + dv

    back = t_cur - train.midpoint
    c, s = np.cos(w * back), np.sin(w * back)
    q0 = q * c - (v / w) * s
    v0 = v * c + w * q * s
    scale = np.sqrt(chain.ion_mass * w / (2.0 * CONSTANTS.hbar))
    alphas = scale * (q0 + 1j * v0 / w)
    return TrajectoryResult(tuple(basis_state), q, v, alphas, phase, float(np.sum(phase)))


def _assert_identical(result, expected):
    assert result.basis_state == expected.basis_state
    for field in ("positions", "velocities", "alphas", "mode_phases"):
        assert np.array_equal(getattr(result, field), getattr(expected, field)), field
    assert result.total_phase == expected.total_phase


def grid_train(rng, targets=(0, 1), groups=6, rate=300e6):
    """Antisymmetric grid train: bursts on integer slots, few distinct gaps."""
    slots, signs, position = [], [], int(rng.integers(1, 4))
    for _ in range(groups):
        size = int(rng.integers(1, 5))
        sign = int(rng.choice([-1, 1]))
        slots += range(position, position + size)
        signs += [sign] * size
        position += size + int(rng.integers(1, 5))
    times = np.asarray(slots, dtype=float) / rate
    return KickTrain(
        tuple(-times[::-1]) + tuple(times),
        tuple(-s for s in reversed(signs)) + tuple(signs),
        targets,
        rate,
    )


@pytest.fixture(scope="module")
def lane_chains(small_chains, chain20):
    return {2: small_chains[2], 5: small_chains[5], 20: chain20,
            100: build_chain(TrapConfig(num_ions=100))}


class TestPropagateLanes:
    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    def test_lone_lane_matches_reference_loop(self, lane_chains, n):
        rng = np.random.default_rng(300 + n)
        chain = lane_chains[n]
        trains = [random_train(rng, targets=(0, n - 1), kicks=int(rng.integers(1, 30)))
                  for _ in range(3)] + [grid_train(rng, targets=(n // 2 - 1, n // 2))]
        for train in trains:
            for basis in BASIS_STATES:
                _assert_identical(propagate(train, chain, basis),
                                  _reference_propagate(train, chain, basis))

    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    def test_mixed_lanes_match_reference_loop(self, lane_chains, n):
        # bases x scaled times x scaled chains in one stack
        rng = np.random.default_rng(400 + n)
        train = grid_train(rng, targets=(0, 1), groups=8)
        lanes = [
            (train.scaled_times(f), lane_chains[n].with_frequency_scale(g), basis)
            for f in (1.0, 1.0 + 3e-4, 1.0 - 7e-4)
            for g in (1.0, 1.0 - 2e-4, 1.0 + 5e-4)
            for basis in BASIS_STATES
        ]
        results = propagate_lanes(lanes)
        assert len(results) == len(lanes)
        for lane, result in zip(lanes, results):
            _assert_identical(result, _reference_propagate(*lane))

    @pytest.mark.parametrize("stack", [1, 5, 7])
    def test_lanes_cut_into_stacks_keep_order(self, lane_chains, monkeypatch, stack):
        import fastgate.dynamics

        rng = np.random.default_rng(45)
        train = grid_train(rng, groups=3)
        monkeypatch.setattr(fastgate.dynamics, "_ROTATION_ENTRIES",
                            stack * 5 * (train.num_kicks - 1))
        lanes = [(train.scaled_times(f), lane_chains[5].with_frequency_scale(g), basis)
                 for f, g in ((1.0, 1.0), (1.0004, 0.9997), (0.9996, 1.0))
                 for basis in BASIS_STATES]
        results = propagate_lanes(iter(lanes))
        assert len(results) == len(lanes)
        for lane, result in zip(lanes, results):
            _assert_identical(result, _reference_propagate(*lane))

    def test_grid_trains_reuse_rotations_exactly(self, lane_chains):
        # Grid gaps repeat, and equal slot gaps give durations that differ in
        # the last bits; the rotations must be shared only between bitwise
        # equal durations.
        rng = np.random.default_rng(41)
        chain = lane_chains[20]
        near_equal_seen = False
        for _ in range(6):
            train = grid_train(rng, groups=8)
            tau = np.diff(train.kick_times)
            distinct = np.unique(tau)
            assert len(distinct) < len(tau)
            near_equal_seen |= bool(np.any(np.diff(distinct) < 1e-12 * distinct[1:]))
            lanes = [(train, chain, basis) for basis in BASIS_STATES]
            for lane, result in zip(lanes, propagate_lanes(lanes)):
                _assert_identical(result, _reference_propagate(*lane))
        assert near_equal_seen

    def test_coincident_kicks(self, lane_chains):
        rng = np.random.default_rng(43)
        for n in (2, 5, 20):
            train = random_train(rng, targets=(0, 1), kicks=14)
            train = KickTrain(train.kick_times[:1] + train.kick_times[:1] + train.kick_times[1:-1],
                              train.kick_signs, train.target_ions)
            lanes = [(train.scaled_times(f), lane_chains[n], basis)
                     for f in (1.0, 0.999) for basis in BASIS_STATES]
            for lane, result in zip(lanes, propagate_lanes(lanes)):
                _assert_identical(result, _reference_propagate(*lane))

    def test_single_kick(self, lane_chains):
        for n in (2, 5, 100):
            train = KickTrain((1.3e-7,), (-1,), (0, 1))
            lanes = [(train, lane_chains[n].with_frequency_scale(g), basis)
                     for g in (1.0, 1.001) for basis in BASIS_STATES]
            for lane, result in zip(lanes, propagate_lanes(lanes)):
                _assert_identical(result, _reference_propagate(*lane))

    def test_empty_train(self, lane_chains):
        lanes = [(KickTrain((), (), (0, 1)), lane_chains[5], basis) for basis in BASIS_STATES]
        for lane, result in zip(lanes, propagate_lanes(lanes)):
            _assert_identical(result, _reference_propagate(*lane))
            assert result.alphas.dtype == complex

    def test_lanes_must_agree_on_coincident_kicks(self, chain2):
        apart = KickTrain((0.0, 1e-7, 2e-7), (1, 1, -1), (0, 1))
        together = KickTrain((0.0, 0.0, 2e-7), (1, 1, -1), (0, 1))
        with pytest.raises(ValueError):
            propagate_lanes([(apart, chain2, (1, 1)), (together, chain2, (1, 1))])

    def test_lanes_must_share_signs_and_targets(self, chain5):
        train = KickTrain((0.0, 1e-7), (1, -1), (0, 1))
        with pytest.raises(ValueError):
            propagate_lanes([(train, chain5, (1, 1)),
                             (KickTrain((0.0, 1e-7), (1, 1), (0, 1)), chain5, (1, 1))])
        with pytest.raises(ValueError):
            propagate_lanes([(train, chain5, (1, 1)),
                             (KickTrain((0.0, 1e-7), (1, -1), (1, 2)), chain5, (1, 1))])
        with pytest.raises(ValueError):
            propagate(KickTrain((0.0,), (1,), (0, 5)), chain5, (1, 1))


def _reference_build_report(chain, thermal, targets, theta, residuals, sdk_count, counting):
    mu, nu = targets
    nbar = thermal.occupations(chain.mode_frequencies)
    coupling_sq = chain.mode_couplings[:, mu] ** 2 + chain.mode_couplings[:, nu] ** 2
    if len(residuals) == 4:
        stack = [np.abs(np.asarray(residuals[b])) ** 2 for b in BASIS_STATES]
    else:
        stack = [np.abs(np.asarray(residuals[b])) ** 2 for b in ((1, 1), (1, -1))] * 2
    mean_sq = np.mean(stack, axis=0)
    phase_mismatch = abs(theta) - math.pi / 4.0
    motional = (4.0 / 3.0) * float(np.sum((0.5 + nbar) * mean_sq))
    ideal = (2.0 / 3.0) * phase_mismatch**2 + motional
    safe = np.where(coupling_sq > 0.0, coupling_sq, 1.0)
    magnitudes = np.sqrt(mean_sq / safe) * (coupling_sq > 0.0)
    reference = np.asarray(residuals[(1, 1)]).astype(complex)
    ref_abs = np.abs(reference)
    phases = np.divide(reference, ref_abs, out=np.ones_like(reference), where=ref_abs > 0.0)
    return GateReport(
        entangling_phase=theta, phase_mismatch=phase_mismatch,
        mode_frequencies=chain.mode_frequencies.copy(), residuals=magnitudes * phases,
        weights=(0.5 + nbar) * coupling_sq, ideal_infidelity=ideal,
        motional_infidelity=motional, sdk_count=sdk_count,
        pulse_count=pulse_count_for(sdk_count, counting),
    )


def _reference_evaluate_train(train, chain, thermal, full_basis=False, counting="pi_pulses"):
    """`evaluate_train` as a loop of lone propagations."""
    bases = BASIS_STATES if full_basis else ((1, 1), (1, -1))
    results = {b: _reference_propagate(train, chain, b) for b in bases}
    if full_basis:
        theta = entangling_phase(list(results.values()))
    else:
        theta = 0.5 * (results[(1, 1)].total_phase - results[(1, -1)].total_phase)
    residuals = {b: r.alphas for b, r in results.items()}
    return _reference_build_report(chain, thermal, train.target_ions, theta, residuals,
                                   train.num_kicks, counting)


def _reference_jitter_sensitivity(result, chain, fractional_instability, samples, seed):
    """`jitter_sensitivity` as a loop of lone evaluations, drawing per shot."""
    base = _reference_evaluate_train(result.train, chain, result.thermal).ideal_infidelity
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3)))
    added = np.empty(samples)
    for k in range(samples):
        rate_shift, trap_shift = rng.uniform(
            -fractional_instability, fractional_instability, size=2
        )
        train = result.train.scaled_times(1.0 / (1.0 + rate_shift))
        perturbed = chain.with_frequency_scale(1.0 + trap_shift)
        added[k] = (
            _reference_evaluate_train(train, perturbed, result.thermal).ideal_infidelity - base
        )
    return {
        "mean_added": float(np.mean(added)),
        "p95_added": float(np.percentile(added, 95)),
        "base_infidelity": base,
    }


def _assert_same_report(report, expected):
    for field in ("entangling_phase", "phase_mismatch", "ideal_infidelity",
                  "motional_infidelity", "sdk_count", "pulse_count"):
        assert getattr(report, field) == getattr(expected, field), field
    for field in ("mode_frequencies", "residuals", "weights"):
        assert np.array_equal(getattr(report, field), getattr(expected, field)), field


class TestLaneCallers:
    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    def test_evaluate_train_matches_lone_propagations(self, lane_chains, n):
        rng = np.random.default_rng(500 + n)
        chain = lane_chains[n]
        thermals = (ThermalSpec(nbar=0.1), ThermalSpec(nbar=None, temperature=5e-4))
        for train in (grid_train(rng, targets=(0, 1)), random_train(rng, targets=(0, n - 1))):
            for thermal in thermals:
                for full_basis in (False, True):
                    _assert_same_report(
                        evaluate_train(train, chain, thermal, full_basis=full_basis,
                                       counting="sdks"),
                        _reference_evaluate_train(train, chain, thermal, full_basis, "sdks"),
                    )

    def test_evaluate_trains_matches_each_pair_alone(self, lane_chains):
        rng = np.random.default_rng(47)
        train = grid_train(rng)
        pairs = [(train.scaled_times(f), lane_chains[5].with_frequency_scale(g))
                 for f, g in ((1.0, 1.0), (1.0002, 0.9995), (0.9993, 1.0004))]
        thermal = ThermalSpec(nbar=None, temperature=2e-3)
        reports = evaluate_trains([p[0] for p in pairs], [p[1] for p in pairs], thermal)
        for (train_k, chain_k), report in zip(pairs, reports):
            _assert_same_report(report, _reference_evaluate_train(train_k, chain_k, thermal))

    @pytest.mark.parametrize("n, samples, seed", [(2, 1, 0), (5, 9, 3), (20, 25, 7)])
    def test_jitter_sensitivity_matches_per_shot_loop(self, lane_chains, n, samples, seed):
        rng = np.random.default_rng(600 + n)
        chain = lane_chains[n]
        train = grid_train(rng, targets=(0, 1))
        thermal = ThermalSpec(nbar=0.1)
        result = OptimizationResult(
            sequence=None, train=train, report=evaluate_train(train, chain, thermal),
            epsilon=0.0, adjusted_fidelity=0.0, thermal=thermal, seed=seed,
        )
        for instability in (1e-3, 2e-2):
            stats = jitter_sensitivity(result, chain, instability, samples=samples, seed=seed)
            assert stats == _reference_jitter_sensitivity(result, chain, instability,
                                                          samples, seed)
