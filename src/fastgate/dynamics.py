"""Classical-equivalent gate dynamics in the normal-mode basis.

Each two-qubit basis state (s_mu, s_nu) drives its own set of classical mode
trajectories: free harmonic evolution between kicks, instantaneous velocity
jumps at each SDK.  Propagation is piecewise exact (rotation maps), roughly
two orders of magnitude faster than ODE stepping in the optimiser's inner
loop; an adaptive ODE integrator is retained as a cross-check oracle, and a
full nonlinear-Coulomb integrator serves as the small-N error oracle.

The entangling phase is accumulated kick-by-kick through the displacement
composition rule, d(phase) = M * dV * Q / (2 hbar), which is exact for linear
dynamics and independent of where the trajectory ends.  The classical action
integral of the free segments is tracked separately as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, TrapConfig, build_chain, length_scale
from .constants import CONSTANTS
from .sequence import KickTrain


class PhaseSymmetryError(RuntimeError):
    """Basis-state phase symmetry violated; signals a propagation bug."""


@dataclass
class ModeState:
    """Single-mode classical state.

    `accumulated_action` is the Lagrangian integral of the free segments
    (J s); it is untouched by kicks.  `kick_phase` is the per-mode share of
    the displacement-composition phase (rad), updated only at kicks.
    """

    position: float = 0.0            # m
    velocity: float = 0.0            # m/s
    accumulated_action: float = 0.0  # J s
    kick_phase: float = 0.0          # rad


def free_evolution(
    state: ModeState, mode_frequency: float, duration: float, mass: float = 1.0
) -> ModeState:
    """Exact harmonic rotation of a mode state over `duration` seconds.

    The action accumulates the closed-form segment integral of
    (M/2)(V^2 - w^2 Q^2); over a full period the integral vanishes.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    w = mode_frequency
    c, s = math.cos(w * duration), math.sin(w * duration)
    q0, v0 = state.position, state.velocity
    return ModeState(
        position=q0 * c + (v0 / w) * s,
        velocity=v0 * c - w * q0 * s,
        accumulated_action=state.accumulated_action + segment_action(mass, q0, v0, w, duration),
        kick_phase=state.kick_phase,
    )


def segment_action(mass: float, q0: float, v0: float, w: float, duration: float) -> float:
    """Closed-form integral of (M/2)(V^2 - w^2 Q^2) over one free segment, J s."""
    c2, s2 = math.cos(2.0 * w * duration), math.sin(2.0 * w * duration)
    return 0.5 * mass * ((v0**2 - w**2 * q0**2) * s2 / (2.0 * w) + q0 * v0 * (c2 - 1.0))


def apply_kick(
    states: list,
    chain: ChainModel,
    kick_sign: int,
    basis_state: tuple,
    target_ions: tuple,
) -> list:
    """Instantaneous SDK: velocity jump on every mode, positions unchanged.

    The velocity of mode m changes by sign * (2 hbar k / M)(s_mu b_m^mu +
    s_nu b_m^nu); the composition phase picks up M dV Q / (2 hbar) per mode.
    The free-segment action is untouched at the kick instant.
    """
    mu, nu = target_ions
    if mu == nu:
        raise ValueError("target ions must differ")
    s_mu, s_nu = basis_state
    unit = 2.0 * CONSTANTS.hbar * chain.wavenumber / chain.ion_mass
    out = []
    for m, state in enumerate(states):
        coupling = s_mu * chain.mode_couplings[m, mu] + s_nu * chain.mode_couplings[m, nu]
        dv = kick_sign * unit * coupling
        out.append(
            ModeState(
                position=state.position,
                velocity=state.velocity + dv,
                accumulated_action=state.accumulated_action,
                kick_phase=state.kick_phase
                + chain.ion_mass * dv * state.position / (2.0 * CONSTANTS.hbar),
            )
        )
    return out


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    """Final trajectory data for one two-qubit basis state.

    `alphas[m]` is sqrt(M w_m / 2 hbar)(Q + i V / w_m) with (Q, V) rotated
    back to the gate midpoint, i.e. the residual displacement in the frame
    rotating at w_m with the midpoint as phase reference.  For antisymmetric
    trains its imaginary part (the momentum quadrature) vanishes.
    """

    basis_state: tuple
    positions: np.ndarray       # m, at the final kick
    velocities: np.ndarray      # m/s, at the final kick
    alphas: np.ndarray          # complex, dimensionless
    mode_phases: np.ndarray     # rad, per-mode composition phase
    actions: np.ndarray         # J s, free-segment Lagrangian integrals
    total_phase: float          # rad, sum of mode_phases

    @property
    def final_states(self) -> list:
        return [
            ModeState(q, v, a, p)
            for q, v, a, p in zip(self.positions, self.velocities, self.actions, self.mode_phases)
        ]


def _midpoint_alphas(chain, positions, velocities, back_duration):
    """Rotate final states back to the gate midpoint and form alpha_m."""
    w = chain.mode_frequencies
    c, s = np.cos(w * back_duration), np.sin(w * back_duration)
    q0 = positions * c - (velocities / w) * s
    v0 = velocities * c + w * positions * s
    scale = np.sqrt(chain.ion_mass * w / (2.0 * CONSTANTS.hbar))
    return scale * (q0 + 1j * v0 / w)


def propagate(train: KickTrain, chain: ChainModel, basis_state: tuple) -> TrajectoryResult:
    """Propagate all modes through a kick train from the motional origin.

    Alternates exact free evolution with velocity kicks in train order; the
    returned residuals and phase are invariant under further free evolution,
    so the nominal trailing evolution to the gate end is omitted.
    """
    n = chain.num_ions
    w = chain.mode_frequencies
    mu, nu = train.target_ions
    if mu == nu or mu >= n or nu >= n:
        raise ValueError("target ions must be distinct indices into the chain")
    s_mu, s_nu = basis_state
    coupling = s_mu * chain.mode_couplings[:, mu] + s_nu * chain.mode_couplings[:, nu]
    dv_unit = (2.0 * CONSTANTS.hbar * chain.wavenumber / chain.ion_mass) * coupling

    q = np.zeros(n)
    v = np.zeros(n)
    phase = np.zeros(n)
    action = np.zeros(n)
    if train.num_kicks == 0:
        return TrajectoryResult(
            basis_state=tuple(basis_state),
            positions=q,
            velocities=v,
            alphas=np.zeros(n, dtype=complex),
            mode_phases=phase,
            actions=action,
            total_phase=0.0,
        )

    t_cur = train.kick_times[0]
    m_over_2h = chain.ion_mass / (2.0 * CONSTANTS.hbar)
    for t_k, sign in zip(train.kick_times, train.kick_signs):
        tau = t_k - t_cur
        if tau > 0.0:
            c, s = np.cos(w * tau), np.sin(w * tau)
            c2, s2 = np.cos(2.0 * w * tau), np.sin(2.0 * w * tau)
            action += 0.5 * chain.ion_mass * (
                (v**2 - w**2 * q**2) * s2 / (2.0 * w) + q * v * (c2 - 1.0)
            )
            q, v = q * c + (v / w) * s, v * c - w * q * s
            t_cur = t_k
        dv = sign * dv_unit
        phase += m_over_2h * dv * q
        v = v + dv

    back = t_cur - train.midpoint
    alphas = _midpoint_alphas(chain, q, v, back)
    return TrajectoryResult(
        basis_state=tuple(basis_state),
        positions=q,
        velocities=v,
        alphas=alphas,
        mode_phases=phase,
        actions=action,
        total_phase=float(np.sum(phase)),
    )


BASIS_STATES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def entangling_phase(results) -> float:
    """Entangling phase from the four basis-state propagations.

    Theta = (Phi_++ - Phi_+- - Phi_-+ + Phi_--)/4.  The global sign flip of
    all kicks maps (+,+) <-> (-,-) and (+,-) <-> (-,+) while leaving the
    phase (quadratic in kick velocities) unchanged, so the pairs must agree;
    a violation raises `PhaseSymmetryError`.
    """
    by_basis = {tuple(r.basis_state): r for r in results}
    if set(by_basis) != set(BASIS_STATES):
        raise ValueError("entangling_phase needs results for all four basis states")
    scale = max(1.0, *(abs(r.total_phase) for r in results))
    for a, b in (((1, 1), (-1, -1)), ((1, -1), (-1, 1))):
        if abs(by_basis[a].total_phase - by_basis[b].total_phase) > 1e-9 * scale:
            raise PhaseSymmetryError(
                f"basis phases {a}/{b} disagree: "
                f"{by_basis[a].total_phase!r} vs {by_basis[b].total_phase!r}"
            )
    return 0.25 * (
        by_basis[(1, 1)].total_phase
        - by_basis[(1, -1)].total_phase
        - by_basis[(-1, 1)].total_phase
        + by_basis[(-1, -1)].total_phase
    )


def trajectory_samples(
    train: KickTrain,
    chain: ChainModel,
    basis_state: tuple,
    points_per_segment: int = 12,
) -> list:
    """Sampled (time_s, mode, Q_m, V_m) rows for phase-space plotting.

    Each free segment is sampled at `points_per_segment` even steps, all
    samples of a segment computed together; every sample time gives one row
    per mode.
    """
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
    modes = list(range(n))
    steps = np.arange(1, points_per_segment)

    def emit(times, qs, vs):
        rows.extend(zip(
            np.repeat(times, n).tolist(), modes * len(times),
            qs.ravel().tolist(), vs.ravel().tolist(),
        ))

    emit([t_cur], q, v)
    for t_k, sign in zip(train.kick_times, train.kick_signs):
        tau = t_k - t_cur
        if tau > 0.0:
            dt = tau * steps / points_per_segment
            c, s = np.cos(dt[:, None] * w), np.sin(dt[:, None] * w)
            emit(t_cur + dt, q * c + (v / w) * s, v * c - w * q * s)
            c, s = np.cos(w * tau), np.sin(w * tau)
            q, v = q * c + (v / w) * s, v * c - w * q * s
            t_cur = t_k
            emit([t_cur], q, v)
        v = v + sign * dv_unit
        emit([t_cur], q, v)
    return rows


def propagate_linear_ode(
    train: KickTrain,
    chain: ChainModel,
    basis_state: tuple,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> TrajectoryResult:
    """Cross-check oracle: numerically integrate the decoupled mode ODEs.

    Integrates Q'' = -w^2 Q per mode (in dimensionless per-mode units for
    conditioning) together with the free-segment action, applying kicks as
    velocity jumps.  Agrees with `propagate` to the integrator tolerance.
    """
    from scipy.integrate import solve_ivp

    n = chain.num_ions
    w = chain.mode_frequencies
    mu, nu = train.target_ions
    s_mu, s_nu = basis_state
    coupling = s_mu * chain.mode_couplings[:, mu] + s_nu * chain.mode_couplings[:, nu]
    dv_unit = (2.0 * CONSTANTS.hbar * chain.wavenumber / chain.ion_mass) * coupling

    # Dimensionless per-mode units: Q in x0 = sqrt(hbar/(2 M w)), V in x0 * w.
    x0 = np.sqrt(CONSTANTS.hbar / (2.0 * chain.ion_mass * w))
    if train.num_kicks == 0:
        return propagate(train, chain, basis_state)

    def rhs(_t, y):
        out = np.empty(3 * n)
        out[:n] = w * y[n : 2 * n]
        out[n : 2 * n] = -w * y[:n]
        # action rate in units of hbar: (M/2)(V^2 - w^2 Q^2) / hbar = (w/4)(v~^2 - q~^2)
        out[2 * n :] = 0.25 * w * (y[n : 2 * n] ** 2 - y[:n] ** 2)
        return out

    y = np.zeros(3 * n)
    phase = np.zeros(n)
    t_cur = train.kick_times[0]
    for t_k, sign in zip(train.kick_times, train.kick_signs):
        if t_k > t_cur:
            sol = solve_ivp(
                rhs, (t_cur, t_k), y, method="DOP853", rtol=rtol, atol=atol, dense_output=False
            )
            if not sol.success:
                raise RuntimeError(f"linear ODE oracle failed: {sol.message}")
            y = sol.y[:, -1]
            t_cur = t_k
        dv_scaled = sign * dv_unit / (x0 * w)
        phase += 0.25 * y[:n] * dv_scaled  # M dV Q / (2 hbar), with x0^2 w = hbar / 2M
        y[n : 2 * n] += dv_scaled

    q = y[:n] * x0
    v = y[n : 2 * n] * x0 * w
    back = t_cur - train.midpoint
    alphas = _midpoint_alphas(chain, q, v, back)
    return TrajectoryResult(
        basis_state=tuple(basis_state),
        positions=q,
        velocities=v,
        alphas=alphas,
        mode_phases=phase,
        actions=y[2 * n :] * CONSTANTS.hbar,
        total_phase=float(np.sum(phase)),
    )


def propagate_nonlinear(
    train: KickTrain,
    config: TrapConfig,
    basis_state: tuple,
    rtol: float = 1e-12,
    atol: float = 1e-13,
) -> TrajectoryResult:
    """Full nonlinear oracle: integrate the exact Coulomb dynamics at small N.

    Ion coordinates evolve under the untruncated trap + Coulomb forces
    (dimensionless units: length l, time 1/w_t); kicks are velocity jumps on
    the two target ions.  The final state is projected onto the normal modes
    of the linearised model so the result is directly comparable with
    `propagate`.  Restricted to N <= 3, the regime where adaptive integration
    is cheap enough to serve as an oracle.
    """
    from scipy.integrate import solve_ivp

    n = config.num_ions
    if n > 3:
        raise ValueError("nonlinear oracle is restricted to N <= 3")
    chain = build_chain(config)
    if train.num_kicks == 0:
        return propagate(train, chain, basis_state)
    w = chain.mode_frequencies
    mu, nu = train.target_ions
    s_mu, s_nu = basis_state

    ell = length_scale(config)
    wt = config.axial_freq
    kappa = config.quartic * ell**2 / (config.ion_mass * wt**2)
    u0 = chain.positions / ell

    def rhs(_t, y):
        u, du = y[:n], y[n:]
        sep = u[:, None] - u[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv2 = np.where(sep != 0.0, 1.0 / np.abs(sep) ** 2, 0.0)
        force = -u - 4.0 * kappa * u**3 + np.sum(np.sign(sep) * inv2, axis=1)
        return np.concatenate([du, force])

    kick_scaled = 2.0 * CONSTANTS.hbar * config.wavenumber / config.ion_mass / (ell * wt)

    y = np.concatenate([u0, np.zeros(n)])
    phase = np.zeros(n)
    t_cur = train.kick_times[0]
    m_over_2h = config.ion_mass / (2.0 * CONSTANTS.hbar)
    for t_k, sign in zip(train.kick_times, train.kick_signs):
        if t_k > t_cur:
            sol = solve_ivp(
                rhs,
                (t_cur * wt, t_k * wt),
                y,
                method="DOP853",
                rtol=rtol,
                atol=atol,
            )
            if not sol.success:
                raise RuntimeError(f"nonlinear oracle integration failed: {sol.message}")
            y = sol.y[:, -1]
            t_cur = t_k
        # Project the current displacement onto the modes for the phase increment.
        q_modes = chain.mode_couplings @ ((y[:n] - u0) * ell)
        dv_ions = np.zeros(n)
        dv_ions[mu] += sign * s_mu * kick_scaled
        dv_ions[nu] += sign * s_nu * kick_scaled
        dv_modes = chain.mode_couplings @ (dv_ions * ell * wt)
        phase += m_over_2h * dv_modes * q_modes
        y[n:] += dv_ions

    q = chain.mode_couplings @ ((y[:n] - u0) * ell)
    v = chain.mode_couplings @ (y[n:] * ell * wt)
    back = t_cur - train.midpoint
    alphas = _midpoint_alphas(chain, q, v, back)
    return TrajectoryResult(
        basis_state=tuple(basis_state),
        positions=q,
        velocities=v,
        alphas=alphas,
        mode_phases=phase,
        actions=np.full(n, math.nan),  # not tracked by the nonlinear oracle
        total_phase=float(np.sum(phase)),
    )
