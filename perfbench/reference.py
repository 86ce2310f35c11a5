"""Reference computations for the benchmark's correctness checks.

Everything here is written from the physics alone, with numpy and
scipy.constants, and calls no fastgate function: the checks compare the
program's outputs against these closed forms and against properties every
harmonic ion chain must have.

Conventions (SI, angular frequencies in rad/s):

* a train is a list of kick times t_k (s) and signs s_k = +-1 acting on the
  target pair (mu, nu);
* Theta = 8 sum_m eta_m^2 b_m^mu b_m^nu sum_{i>j} s_i s_j sin(w_m (t_i - t_j));
* the factored residual of mode m is dalpha_m = 2 eta_m sum_k s_k sin(w_m t_k),
  with times measured from the gate midpoint;
* 1 - F = (2/3)(|Theta| - pi/4)^2
          + (4/3) sum_m (1/2 + nbar_m) ((b_m^mu)^2 + (b_m^nu)^2) dalpha_m^2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import constants as sc

PHASE_TARGET = math.pi / 4.0
HBAR = sc.hbar
BOLTZMANN = sc.k


def kick_phase_and_residuals(times, signs, omegas, etas, b_mu, b_nu):
    """Closed-form Theta and per-mode dalpha over individual kicks.

    Coincident kicks (an instantaneous group) contribute sin(0) = 0 to their
    mutual phase, so a group of size z may be passed as |z| equal times.
    """
    t = np.asarray(times, dtype=float)
    s = np.asarray(signs, dtype=float)
    w = np.asarray(omegas, dtype=float)
    eta = np.asarray(etas, dtype=float)
    pair_signs = np.tril(np.outer(s, s), k=-1)          # i > j only
    dt = t[:, None] - t[None, :]
    pair_sums = np.array([np.sum(pair_signs * np.sin(wm * dt)) for wm in w])
    theta = 8.0 * float(np.sum(eta**2 * np.asarray(b_mu) * np.asarray(b_nu) * pair_sums))
    dalpha = 2.0 * eta * (np.sin(np.outer(w, t)) @ s)
    return theta, dalpha


def bose_einstein(temperature, omegas):
    """Mean thermal occupation per mode; zero at zero temperature."""
    w = np.asarray(omegas, dtype=float)
    if temperature == 0.0:
        return np.zeros_like(w)
    return 1.0 / np.expm1(HBAR * w / (BOLTZMANN * temperature))


def thermal_infidelity(theta, dalpha, nbar, b_mu, b_nu):
    """(ideal, motional) state-averaged infidelity from the closed form."""
    weights = (0.5 + np.asarray(nbar)) * (np.asarray(b_mu) ** 2 + np.asarray(b_nu) ** 2)
    motional = (4.0 / 3.0) * float(np.sum(weights * np.asarray(dalpha) ** 2))
    return (2.0 / 3.0) * (abs(theta) - PHASE_TARGET) ** 2 + motional, motional


def adjusted_infidelity(ideal, sdk_count, epsilon):
    """Worst-case pulse-area error: two pi pulses per SDK, F = (1 - N_p eps)^2 F0."""
    return 1.0 - (1.0 - 2 * sdk_count * epsilon) ** 2 * (1.0 - ideal)


def expand_sizes(group_sizes, group_times):
    """Instantaneous-group kick list: |z| coincident kicks of sign sgn(z)."""
    times, signs = [], []
    for z, t in zip(group_sizes, group_times):
        times.extend([t] * abs(int(z)))
        signs.extend([1 if z > 0 else -1] * abs(int(z)))
    return times, signs


def axial_frequency(num_ions, radial_frequency):
    """Buckling-safe scaling rule w_t = w_r / (0.65 N^0.865)."""
    return radial_frequency / (0.65 * num_ions**0.865)


def chain_fact_errors(positions, omegas, couplings, etas, axial, ion_mass, wavenumber):
    """Relative deviations from the harmonic-chain facts, keyed by fact.

    For any harmonic Coulomb chain the lowest axial mode is the centre-of-mass
    mode at w_t and the second is the breathing mode at sqrt(3) w_t; the
    coupling rows are orthonormal; the equilibrium is mirror symmetric; and
    eta_m = k sqrt(hbar / (2 M w_m)).
    """
    x = np.asarray(positions, dtype=float)
    w = np.asarray(omegas, dtype=float)
    b = np.asarray(couplings, dtype=float)
    n = len(x)
    errors = {
        "orthonormal": float(np.max(np.abs(b @ b.T - np.eye(n)))),
        "mirror": float(np.max(np.abs(x + x[::-1])) / max(np.max(np.abs(x)), 1e-300)),
        "com_mode": abs(w[0] / axial - 1.0),
        "lamb_dicke": float(
            np.max(np.abs(np.asarray(etas) / (wavenumber * np.sqrt(HBAR / (2.0 * ion_mass * w))) - 1.0))
        ),
    }
    if n >= 2:
        errors["breathing_mode"] = abs(w[1] / (math.sqrt(3.0) * axial) - 1.0)
    return errors


def train_shape_errors(times, signs, repetition_rate):
    """Problems with a grid train: off-grid kicks or broken antisymmetry."""
    t = np.asarray(times, dtype=float)
    s = np.asarray(signs, dtype=int)
    problems = []
    steps = (t - t[0]) * repetition_rate
    if np.max(np.abs(steps - np.rint(steps))) > 1e-6:
        problems.append("kicks off the repetition grid")
    if np.any(np.diff(steps) < 1.0 - 1e-6):
        problems.append("kicks closer than one period")
    if np.max(np.abs(t + t[::-1])) > 1e-6 / repetition_rate:
        problems.append("kick times not antisymmetric")
    if np.any(s != -s[::-1]):
        problems.append("kick signs not antisymmetric")
    return problems
