import math

import numpy as np
import pytest
from scipy.integrate import quad

from fastgate.chain import TrapConfig, build_chain
from fastgate.constants import CONSTANTS
from fastgate.dynamics import (
    BASIS_STATES,
    ModeState,
    PhaseSymmetryError,
    apply_kick,
    entangling_phase,
    free_evolution,
    propagate,
    propagate_linear_ode,
    propagate_nonlinear,
    segment_action,
    trajectory_samples,
)
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
        assert state.accumulated_action == 0.0

    def test_full_period_identity_and_zero_action(self):
        w = 2 * math.pi * 1.3e6
        start = ModeState(position=2e-9, velocity=0.03)
        out = free_evolution(start, w, 2 * math.pi / w, mass=1e-25)
        assert out.position == pytest.approx(start.position, rel=1e-12)
        assert out.velocity == pytest.approx(start.velocity, rel=1e-12)
        assert abs(out.accumulated_action) < 1e-12 * 1e-25 * 0.03**2 * (2 * math.pi / w)

    def test_energy_conserved_to_1e12(self):
        rng = np.random.default_rng(8)
        w = 2 * math.pi * 2.2e6
        for _ in range(200):
            q, v = rng.normal(size=2) * [1e-9, 0.05]
            out = free_evolution(ModeState(position=q, velocity=v), w, rng.uniform(0, 5e-6))
            before = v**2 + w**2 * q**2
            after = out.velocity**2 + w**2 * out.position**2
            assert abs(after - before) <= 1e-12 * before

    def test_action_matches_quadrature(self):
        # Oracle: adaptive quadrature of (M/2)(V^2 - w^2 Q^2) along the arc.
        rng = np.random.default_rng(21)
        mass = 6.64e-26
        for _ in range(25):
            w = 2 * math.pi * rng.uniform(0.5e6, 7e6)
            q0 = rng.normal() * 1e-9
            v0 = rng.normal() * 0.05
            tau = rng.uniform(0.05, 1.2) / w

            def lagrangian(t):
                q = q0 * math.cos(w * t) + (v0 / w) * math.sin(w * t)
                v = v0 * math.cos(w * t) - w * q0 * math.sin(w * t)
                return 0.5 * mass * (v**2 - w**2 * q**2)

            oracle, _ = quad(lagrangian, 0.0, tau, epsabs=1e-25, epsrel=1e-13)
            closed = segment_action(mass, q0, v0, w, tau)
            assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-25)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            free_evolution(ModeState(), 1e6, -1.0)


class TestApplyKick:
    def test_symmetric_kick_skips_stretch_mode(self, chain2):
        states = [ModeState(), ModeState()]
        out = apply_kick(states, chain2, 1, (1, 1), (0, 1))
        assert out[1].velocity == 0.0
        assert out[0].velocity != 0.0

    def test_antisymmetric_kick_skips_com_mode(self, chain2):
        out = apply_kick([ModeState(), ModeState()], chain2, 1, (1, -1), (0, 1))
        assert out[0].velocity == 0.0
        assert out[1].velocity != 0.0

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

    def test_positions_and_action_unchanged(self, chain2):
        states = [ModeState(position=1e-9, accumulated_action=3.0)] * 2
        out = apply_kick(states, chain2, -1, (1, 1), (0, 1))
        assert out[0].position == 1e-9
        assert out[0].accumulated_action == 3.0

    def test_rejects_equal_targets(self, chain2):
        with pytest.raises(ValueError):
            apply_kick([ModeState()] * 2, chain2, 1, (1, 1), (1, 1))


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
            assert np.max(np.abs(ode.actions - exact.actions)) < 1e-10 * max(
                1e-34, np.max(np.abs(exact.actions))
            )

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
            actions=results[0].actions,
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
