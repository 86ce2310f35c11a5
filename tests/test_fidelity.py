import json
import math

import numpy as np
import pytest

from fastgate.constants import CONSTANTS
from fastgate.fidelity import (
    PULSE_COUNTINGS,
    GateReport,
    ThermalSpec,
    analytic_cost,
    analytic_report,
    apply_pulse_error,
    evaluate_train,
    evaluate_train_thermals,
    infidelity,
    pulse_count_for,
    thermal_occupation,
)
from fastgate.sequence import PulseGroupSequence, instantaneous_train

from conftest import random_half_sequence

NBAR = ThermalSpec(nbar=0.1)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(0.0, 2 * math.pi * 1e6) == 0.0

    def test_ln2_gives_one(self):
        w = 2 * math.pi * 1e6
        temperature = CONSTANTS.hbar * w / (CONSTANTS.boltzmann * math.log(2.0))
        assert thermal_occupation(temperature, w) == pytest.approx(1.0, rel=1e-12)

    def test_doppler_scale_value(self):
        # k_B T / hbar = 7e7 Hz at the N=20 axial frequency of 0.5763 MHz.
        temperature = CONSTANTS.hbar * 7e7 / CONSTANTS.boltzmann
        nbar = thermal_occupation(temperature, 2 * math.pi * 0.5763e6)
        assert nbar == pytest.approx(18.84, abs=0.05)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 1e6)


class TestThermalSpec:
    def test_scalar_broadcast(self, chain5):
        spec = ThermalSpec(nbar=0.3)
        assert np.all(spec.occupations(chain5.mode_frequencies) == 0.3)

    def test_per_mode_list(self, chain2):
        spec = ThermalSpec(nbar=(0.1, 0.4))
        assert list(spec.occupations(chain2.mode_frequencies)) == [0.1, 0.4]

    def test_temperature_round_trip(self, chain5):
        spec = ThermalSpec(nbar=None, temperature=0.8e-3)
        occ = spec.occupations(chain5.mode_frequencies)
        direct = ThermalSpec(nbar=tuple(occ))
        assert direct.occupations(chain5.mode_frequencies) == pytest.approx(occ)

    def test_requires_exactly_one(self):
        with pytest.raises(ValueError):
            ThermalSpec(nbar=None, temperature=None)
        with pytest.raises(ValueError):
            ThermalSpec(nbar=0.1, temperature=1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThermalSpec(nbar=-0.1)

    def test_json_round_trip(self):
        for spec in (ThermalSpec(nbar=0.1), ThermalSpec(nbar=(0.1, 0.2)),
                     ThermalSpec(nbar=None, temperature=1e-3)):
            again = ThermalSpec.from_json_dict(spec.to_json_dict())
            assert again.to_json_dict() == spec.to_json_dict()


class TestInfidelity:
    def test_perfect_gate(self, chain2):
        residuals = {b: np.zeros(2, dtype=complex) for b in ((1, 1), (1, -1))}
        assert infidelity(0.0, residuals, chain2, NBAR) == 0.0

    def test_pure_phase_mismatch(self, chain2):
        residuals = {b: np.zeros(2, dtype=complex) for b in ((1, 1), (1, -1))}
        value = infidelity(0.01, residuals, chain2, NBAR)
        assert value == pytest.approx((2.0 / 3.0) * 1e-4, rel=1e-12)

    def test_requires_known_basis_sets(self, chain2):
        with pytest.raises(ValueError):
            infidelity(0.0, {(1, 1): np.zeros(2)}, chain2, NBAR)

    def test_four_and_two_basis_paths_agree(self, chain5):
        rng = np.random.default_rng(2)
        sizes, times, gate_time = random_half_sequence(rng)
        seq = PulseGroupSequence.from_half(sizes, times, (1, 2), gate_time)
        train = instantaneous_train(seq)
        two = evaluate_train(train, chain5, NBAR, full_basis=False)
        four = evaluate_train(train, chain5, NBAR, full_basis=True)
        assert two.ideal_infidelity == pytest.approx(four.ideal_infidelity, rel=1e-12)
        assert two.entangling_phase == pytest.approx(four.entangling_phase, rel=1e-12)

    def test_average_form_reduces_to_printed_formula(self, chain5):
        # Residuals of the factored form -(s_mu b_mu + s_nu b_nu) dalpha must
        # reproduce the (b_mu^2 + b_nu^2)|dalpha|^2 weighting exactly.
        rng = np.random.default_rng(7)
        mu, nu = 1, 2
        dalpha = rng.normal(size=5)
        b_mu = chain5.mode_couplings[:, mu]
        b_nu = chain5.mode_couplings[:, nu]
        residuals = {
            s: -(s[0] * b_mu + s[1] * b_nu) * dalpha
            for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        }
        nbar = NBAR.occupations(chain5.mode_frequencies)
        printed = (4.0 / 3.0) * np.sum(
            (0.5 + nbar) * (b_mu**2 + b_nu**2) * dalpha**2
        )
        value = infidelity(0.0, residuals, chain5, NBAR)
        assert value == pytest.approx(printed, rel=1e-14)

    def test_monotone_in_temperature(self, chain5):
        rng = np.random.default_rng(3)
        sizes, times, gate_time = random_half_sequence(rng)
        seq = PulseGroupSequence.from_half(sizes, times, (2, 3), gate_time)
        train = instantaneous_train(seq)
        values = []
        for temperature in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            spec = ThermalSpec(nbar=None, temperature=temperature)
            values.append(evaluate_train(train, chain5, spec).motional_infidelity)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestPulseError:
    def test_zero_error_identity(self):
        assert apply_pulse_error(0.987, 40, 0.0) == 0.987

    def test_zero_pulses_identity(self):
        assert apply_pulse_error(0.5, 0, 0.3) == 0.5

    def test_printed_values(self):
        assert 1 - apply_pulse_error(1.0, 40, 1e-4) == pytest.approx(7.984e-3, rel=1e-6)
        assert 1 - apply_pulse_error(1.0, 40, 1e-5) == pytest.approx(7.9984e-4, rel=1e-6)

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning):
            apply_pulse_error(1.0, 10000, 1e-4)

    def test_counting_modes(self):
        assert pulse_count_for(16) == 32
        assert pulse_count_for(16, "sdks") == 16
        with pytest.raises(ValueError):
            pulse_count_for(16, "bogus")
        assert [pulse_count_for(16, counting) for counting in PULSE_COUNTINGS] == [32, 16]


class TestAnalyticCost:
    def test_no_kicks_baseline(self, chain2):
        seq = PulseGroupSequence.from_half([0, 0], [1e-7, 2e-7], (0, 1), 1e-6)
        value = analytic_cost(seq, chain2, NBAR)
        assert value == pytest.approx((2.0 / 3.0) * (math.pi / 4.0) ** 2, rel=1e-12)

    def test_matches_trajectory_on_random_sequences(self, small_chains):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 11))
            chain = small_chains[n]
            sizes, times, gate_time = random_half_sequence(rng)
            mu = int(rng.integers(0, n - 1))
            seq = PulseGroupSequence.from_half(sizes, times, (mu, mu + 1), gate_time)
            traj = evaluate_train(instantaneous_train(seq), chain, NBAR)
            worst = max(worst, abs(analytic_cost(seq, chain, NBAR) - traj.ideal_infidelity))
        assert worst < 1e-9

    def test_time_rescaling_invariance(self, chain5):
        # Scaling all times by c and all frequencies by 1/c leaves the cost
        # unchanged: the formulas depend only on w t products.
        rng = np.random.default_rng(11)
        sizes, times, gate_time = random_half_sequence(rng)
        seq = PulseGroupSequence.from_half(sizes, times, (2, 3), gate_time)
        factor = 3.7
        scaled_chain = chain5.with_frequency_scale(1.0 / factor)
        scaled_chain = type(chain5)(
            positions=chain5.positions,
            mode_frequencies=chain5.mode_frequencies / factor,
            mode_couplings=chain5.mode_couplings,
            lamb_dicke=chain5.lamb_dicke,
            ion_mass=chain5.ion_mass,
            wavenumber=chain5.wavenumber,
        )
        scaled_seq = PulseGroupSequence.from_half(
            sizes, [t * factor for t in times], (2, 3), gate_time * factor
        )
        assert analytic_cost(scaled_seq, scaled_chain, NBAR) == pytest.approx(
            analytic_cost(seq, chain5, NBAR), rel=1e-12
        )


class TestGateReport:
    def test_motional_breakdown_identity(self, chain5):
        rng = np.random.default_rng(5)
        sizes, times, gate_time = random_half_sequence(rng)
        seq = PulseGroupSequence.from_half(sizes, times, (1, 2), gate_time)
        report = evaluate_train(instantaneous_train(seq), chain5, NBAR)
        rebuilt = (4.0 / 3.0) * np.sum(report.weights * np.abs(report.residuals) ** 2)
        assert rebuilt == pytest.approx(report.motional_infidelity, rel=1e-12)
        assert report.motional_infidelity <= report.ideal_infidelity

    def test_thermal_reports_match_one_evaluation_each(self, chain5):
        rng = np.random.default_rng(6)
        sizes, times, gate_time = random_half_sequence(rng)
        train = instantaneous_train(PulseGroupSequence.from_half(sizes, times, (1, 2), gate_time))
        thermals = [NBAR, ThermalSpec(nbar=None, temperature=1e-3), ThermalSpec(nbar=2.0)]
        for counting in ("pi_pulses", "sdks"):
            reports = evaluate_train_thermals(train, chain5, thermals, counting=counting)
            for thermal, report in zip(thermals, reports):
                alone = evaluate_train(train, chain5, thermal, counting=counting)
                assert report.to_json() == alone.to_json()
                assert report.entangling_phase == alone.entangling_phase

    def test_json_schema(self, chain2):
        seq = PulseGroupSequence.from_half([1], [1e-7], (0, 1), 1e-6)
        report = analytic_report(seq, chain2, NBAR)
        data = json.loads(report.to_json())
        assert set(data) == {"dphi", "per_mode", "ideal_inf", "motional_inf", "pulses"}
        assert set(data["per_mode"][0]) == {"omega", "dalpha_re", "dalpha_im", "weight"}
        assert data["pulses"] == 2 * seq.total_sdks

    def test_adjusted_fidelity_function(self, chain2):
        seq = PulseGroupSequence.from_half([1], [1e-7], (0, 1), 1e-6)
        report = analytic_report(seq, chain2, NBAR)
        direct = apply_pulse_error(1.0 - report.ideal_infidelity, report.pulse_count, 1e-4)
        assert report.adjusted_fidelity(1e-4) == direct

    def test_analytic_report_matches_trajectory_report(self, chain5):
        rng = np.random.default_rng(9)
        sizes, times, gate_time = random_half_sequence(rng)
        seq = PulseGroupSequence.from_half(sizes, times, (2, 3), gate_time)
        analytic = analytic_report(seq, chain5, NBAR)
        trajectory = evaluate_train(instantaneous_train(seq), chain5, NBAR)
        assert analytic.ideal_infidelity == pytest.approx(
            trajectory.ideal_infidelity, abs=1e-12
        )
        assert abs(analytic.entangling_phase) == pytest.approx(
            abs(trajectory.entangling_phase), abs=1e-12
        )
        assert np.abs(analytic.residuals) == pytest.approx(
            np.abs(trajectory.residuals), abs=1e-12
        )


class TestSharedFormula:
    def test_infidelity_equals_report_bit_for_bit(self, small_chains):
        from fastgate.dynamics import propagate

        rng = np.random.default_rng(61)
        for n in (2, 5, 9):
            chain = small_chains[n]
            sizes, times, gate_time = random_half_sequence(rng)
            seq = PulseGroupSequence.from_half(sizes, times, (0, 1), gate_time)
            train = instantaneous_train(seq)
            for thermal in (NBAR, ThermalSpec(nbar=None, temperature=1e-3)):
                report = evaluate_train(train, chain, thermal)
                residuals = {b: propagate(train, chain, b).alphas for b in ((1, 1), (1, -1))}
                assert infidelity(report.phase_mismatch, residuals, chain, thermal) == \
                    report.ideal_infidelity
