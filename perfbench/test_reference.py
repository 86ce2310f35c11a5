"""Hand-worked one- and two-kick cases for the benchmark's reference checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import reference as ref


def test_single_kick_has_no_phase_and_sine_residual():
    w, eta = 2 * math.pi * 1e6, 0.1
    t = 0.125e-6                       # w t = pi / 4
    theta, dalpha = ref.kick_phase_and_residuals([t], [1], [w], [eta], [0.6], [0.8])
    assert theta == 0.0
    assert dalpha[0] == pytest.approx(2 * eta * math.sin(math.pi / 4), rel=1e-14)


def test_antisymmetric_kick_pair():
    # Kicks -1 at -tau and +1 at +tau with w tau = pi / 4: the pair term is
    # s_2 s_1 sin(2 w tau) = -1, so Theta = -8 eta^2 b_mu b_nu, and
    # dalpha = 2 eta (-sin(-w tau) + sin(w tau)) = 2 sqrt(2) eta.
    w, eta, b_mu, b_nu = 2 * math.pi * 1e6, 0.1, 0.6, 0.8
    tau = 0.125e-6
    theta, dalpha = ref.kick_phase_and_residuals(
        [-tau, tau], [-1, 1], [w], [eta], [b_mu], [b_nu]
    )
    assert theta == pytest.approx(-8 * eta**2 * b_mu * b_nu, rel=1e-14)
    assert dalpha[0] == pytest.approx(2 * math.sqrt(2) * eta, rel=1e-14)


def test_coincident_kicks_add_no_mutual_phase():
    w, eta = 2 * math.pi * 1e6, 0.1
    theta, dalpha = ref.kick_phase_and_residuals([0.1e-6, 0.1e-6], [1, 1], [w], [eta], [1], [1])
    assert theta == 0.0
    assert dalpha[0] == pytest.approx(4 * eta * math.sin(w * 0.1e-6), rel=1e-14)


def test_expand_sizes_is_coincident_kicks():
    assert ref.expand_sizes([-2, 1], [-1.0, 1.0]) == ([-1.0, -1.0, 1.0], [-1, -1, 1])


def test_thermal_infidelity_hand_values():
    ideal, motional = ref.thermal_infidelity(math.pi / 4, [0.0], [0.3], [0.6], [0.8])
    assert (ideal, motional) == (0.0, 0.0)
    # Theta = 0, one mode with dalpha = 1, nbar = 0.5, b^mu = 1, b^nu = 0:
    # (2/3)(pi/4)^2 + (4/3)(1/2 + 1/2)(1)(1).
    ideal, motional = ref.thermal_infidelity(0.0, [1.0], [0.5], [1.0], [0.0])
    assert motional == pytest.approx(4 / 3, rel=1e-15)
    assert ideal == pytest.approx((2 / 3) * (math.pi / 4) ** 2 + 4 / 3, rel=1e-15)


def test_bose_einstein_hand_values():
    w = 2 * math.pi * 1e6
    assert ref.bose_einstein(0.0, [w])[0] == 0.0
    temperature = ref.HBAR * w / (ref.BOLTZMANN * math.log(2.0))
    assert ref.bose_einstein(temperature, [w])[0] == pytest.approx(1.0, rel=1e-12)


def test_adjusted_infidelity_hand_value():
    assert ref.adjusted_infidelity(0.0, 10, 1e-3) == pytest.approx(1 - 0.98**2, rel=1e-12)


def _two_ion_chain():
    # Two ions: separation (2 q^2 / (4 pi eps0 M w_t^2))^(1/3), modes w_t and
    # sqrt(3) w_t with couplings (1, 1)/sqrt(2) and (-1, 1)/sqrt(2).
    mass = 39.9626 * 1.66053906660e-27
    axial = ref.axial_frequency(2, 2 * math.pi * 5e6)
    coulomb = 1.602176634e-19**2 / (4 * math.pi * 8.8541878128e-12)
    half = 0.5 * (2 * coulomb / (mass * axial**2)) ** (1 / 3)
    omegas = np.array([axial, math.sqrt(3) * axial])
    couplings = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2)
    k = 2 * math.pi / 393.37e-9
    etas = k * np.sqrt(ref.HBAR / (2 * mass * omegas))
    return np.array([-half, half]), omegas, couplings, etas, axial, mass, k


def test_chain_facts_hold_for_two_ions():
    errors = ref.chain_fact_errors(*_two_ion_chain())
    assert set(errors) == {"orthonormal", "mirror", "com_mode", "breathing_mode", "lamb_dicke"}
    assert max(errors.values()) < 1e-14


def test_chain_facts_flag_a_wrong_breathing_mode():
    positions, omegas, couplings, etas, axial, mass, k = _two_ion_chain()
    errors = ref.chain_fact_errors(
        positions, omegas * [1.0, 1.01], couplings, etas, axial, mass, k
    )
    assert errors["breathing_mode"] == pytest.approx(0.01, rel=1e-12)
    assert errors["lamb_dicke"] > 1e-3


def test_train_shape_accepts_grid_antisymmetric_pair():
    rate = 300e6
    assert ref.train_shape_errors([-1 / rate, 1 / rate], [-1, 1], rate) == []


def test_train_shape_flags_off_grid_and_symmetric_signs():
    rate = 300e6
    problems = ref.train_shape_errors([-1 / rate, 1.3 / rate], [1, 1], rate)
    assert "kicks off the repetition grid" in problems
    assert "kick times not antisymmetric" in problems
    assert "kick signs not antisymmetric" in problems
