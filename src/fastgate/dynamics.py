"""Classical-equivalent gate dynamics in the normal-mode basis.

Each two-qubit basis state (s_mu, s_nu) drives its own set of classical mode
trajectories: free harmonic evolution between kicks, instantaneous velocity
jumps at each SDK.  Propagation is piecewise exact (rotation maps), roughly
two orders of magnitude faster than ODE stepping in the optimiser's inner
loop; an adaptive ODE integrator is retained as a cross-check oracle, and a
full nonlinear-Coulomb integrator serves as the small-N error oracle.

`propagate_lanes` is the one per-kick loop.  It advances a (lanes x modes)
stack: lanes share the kick count, the sign sequence and the target pair,
and may differ in basis state, kick times and mode frequencies (a basis
state of a gate evaluation, a jitter sample's scaled train and chain).
Every lane does elementwise exactly the arithmetic of a lone propagation,
so a lane's outputs are bit-identical to a stack of one (`propagate`).  The
rotations cos/sin(w tau) are computed once for each segment duration
tau = t_k - t_(k-1) that is bitwise equal across all lanes; grid trains
repeat a handful of gaps, so most segments reuse them.  Many lanes are cut
into several stacks, to bound the rotation tables' memory.

The entangling phase is accumulated kick-by-kick through the displacement
composition rule, d(phase) = M * dV * Q / (2 hbar), which is exact for linear
dynamics and independent of where the trajectory ends.
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
    """Single-mode classical state."""

    position: float = 0.0  # m
    velocity: float = 0.0  # m/s


def free_evolution(state: ModeState, mode_frequency: float, duration: float) -> ModeState:
    """Exact harmonic rotation of a mode state over `duration` seconds."""
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    w = mode_frequency
    c, s = math.cos(w * duration), math.sin(w * duration)
    q0, v0 = state.position, state.velocity
    return ModeState(position=q0 * c + (v0 / w) * s, velocity=v0 * c - w * q0 * s)


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
    total_phase: float          # rad, sum of mode_phases


def _midpoint_alphas(w, mass, positions, velocities, back_duration):
    """Rotate final states back to the gate midpoint and form alpha_m.

    Arguments broadcast: one chain's (modes,) arrays or a lane stack's
    (lanes, modes) arrays with (lanes, 1) masses and durations.
    """
    c, s = np.cos(w * back_duration), np.sin(w * back_duration)
    q0 = positions * c - (velocities / w) * s
    v0 = velocities * c + w * positions * s
    scale = np.sqrt(mass * w / (2.0 * CONSTANTS.hbar))
    return scale * (q0 + 1j * v0 / w)


def propagate(train: KickTrain, chain: ChainModel, basis_state: tuple) -> TrajectoryResult:
    """Propagate all modes through a kick train from the motional origin.

    Alternates exact free evolution with velocity kicks in train order; the
    returned residuals and phase are invariant under further free evolution,
    so the nominal trailing evolution to the gate end is omitted.  A stack
    of one lane of `propagate_lanes`.
    """
    return propagate_lanes([(train, chain, basis_state)])[0]


# Entries (lanes x modes x distinct segments) of each of a stack's two
# rotation tables, 2 MB: the lanes are cut into stacks that fit, so that a
# 100-shot jitter study at N=100 holds about 4 MB of tables, not 28 MB.
_ROTATION_ENTRIES = 1 << 18


def propagate_lanes(lanes) -> list:
    """Propagate (train, chain, basis_state) lanes as stacks, one kick loop each.

    The lanes must share the kick signs (hence the kick count), the target
    pair and the chain size, and agree on which consecutive kicks coincide
    (zero-length segments are skipped); kick times, mode frequencies and
    basis states may differ per lane.  Each lane's `TrajectoryResult` is
    bit-identical to propagating that lane alone.
    """
    lanes = list(lanes)
    train, chain, _ = lanes[0]
    size = max(1, _ROTATION_ENTRIES // (chain.num_ions * max(1, train.num_kicks - 1)))
    return [
        result
        for start in range(0, len(lanes), size)
        for result in _propagate_stack(lanes[start:start + size])
    ]


def _propagate_stack(lanes) -> list:
    """One (lanes x modes) stack through the per-kick loop."""
    trains, chains, bases = zip(*lanes)
    first = trains[0]
    n = chains[0].num_ions
    mu, nu = first.target_ions
    if mu == nu or mu >= n or nu >= n:
        raise ValueError("target ions must be distinct indices into the chain")
    if any(c.num_ions != n for c in chains) or any(
        t.target_ions != first.target_ions or t.kick_signs != first.kick_signs for t in trains
    ):
        raise ValueError("lanes must share the chain size, the target pair and the kick signs")

    # Per-lane (lanes, modes) rows and (lanes, 1) columns; every expression
    # below is a lone lane's, evaluated elementwise.
    w = np.array([c.mode_frequencies for c in chains])
    mass = np.array([[c.ion_mass] for c in chains])
    s_mu, s_nu = np.array(bases, dtype=float).T[:, :, None]
    b_mu = np.array([c.mode_couplings[:, mu] for c in chains])
    b_nu = np.array([c.mode_couplings[:, nu] for c in chains])
    unit = np.array([[2.0 * CONSTANTS.hbar * c.wavenumber / c.ion_mass] for c in chains])
    dv_unit = unit * (s_mu * b_mu + s_nu * b_nu)

    shape = (len(trains), n)
    q = np.zeros(shape)
    v = np.zeros(shape)
    phase = np.zeros(shape)
    if first.num_kicks == 0:
        alphas = np.zeros(shape, dtype=complex)
    else:
        times = np.array([t.kick_times for t in trains])
        tau = np.diff(times, axis=1)   # t_k - t_(k-1), the free segment before kick k
        moving = tau > 0.0
        if np.any(moving != moving[0]):
            raise ValueError("lanes disagree on which kicks coincide")
        # Rotations once per segment column that is bitwise equal across the
        # lanes: `segment[k]` indexes the tables for the segment before kick
        # k, -1 where kick k coincides with the previous one.
        distinct, column = np.unique(tau[:, moving[0]], axis=1, return_inverse=True)
        segment = np.full(first.num_kicks, -1)
        segment[1:][moving[0]] = column.ravel()
        duration = distinct.T[:, :, None]
        cos, sin = np.cos(w * duration), np.sin(w * duration)

        m_over_2h = mass / (2.0 * CONSTANTS.hbar)
        kick = {sign: sign * dv_unit for sign in (1, -1)}
        phase_step = {sign: m_over_2h * dv for sign, dv in kick.items()}
        for sign, u in zip(first.kick_signs, segment.tolist()):
            if u >= 0:
                c, s = cos[u], sin[u]
                q, v = q * c + (v / w) * s, v * c - w * q * s
            phase += phase_step[sign] * q
            v = v + kick[sign]
        back = np.array([[t.kick_times[-1] - t.midpoint] for t in trains])
        alphas = _midpoint_alphas(w, mass, q, v, back)

    return [
        TrajectoryResult(
            basis_state=tuple(basis_state),
            positions=q[i],
            velocities=v[i],
            alphas=alphas[i],
            mode_phases=phase[i],
            total_phase=float(np.sum(phase[i])),
        )
        for i, basis_state in enumerate(bases)
    ]


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
    conditioning), applying kicks as velocity jumps.  Agrees with `propagate` to the integrator tolerance.
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
        return np.concatenate([w * y[n:], -w * y[:n]])

    y = np.zeros(2 * n)
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
        y[n:] += dv_scaled

    q = y[:n] * x0
    v = y[n:] * x0 * w
    back = t_cur - train.midpoint
    alphas = _midpoint_alphas(w, chain.ion_mass, q, v, back)
    return TrajectoryResult(
        basis_state=tuple(basis_state),
        positions=q,
        velocities=v,
        alphas=alphas,
        mode_phases=phase,
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
    alphas = _midpoint_alphas(w, chain.ion_mass, q, v, back)
    return TrajectoryResult(
        basis_state=tuple(basis_state),
        positions=q,
        velocities=v,
        alphas=alphas,
        mode_phases=phase,
        total_phase=float(np.sum(phase)),
    )
