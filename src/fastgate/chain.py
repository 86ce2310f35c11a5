"""Ion-chain model: trap scaling, equilibrium positions, normal modes.

The chain is a 1-D Coulomb crystal in a harmonic (optionally quartic) axial
potential.  Radial motion is never modelled; the light field couples only to
the axial modes.  The axial frequency follows the buckling-safe scaling rule
``w_t = w_r / (0.65 N^0.865)`` unless an explicit override is given.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import CA40_ION_MASS, CONSTANTS, SDK_WAVELENGTH


class EquilibriumNotConverged(RuntimeError):
    """Newton iteration for the crystal equilibrium failed to converge."""


class NonConfiningPotential(ValueError):
    """The axial potential does not confine the chain (or is a saddle)."""


def axial_frequency(num_ions: int, radial_frequency: float) -> float:
    """Axial trap frequency from the buckling-safe scaling rule.

    Parameters
    ----------
    num_ions : int
        Number of ions N >= 1.
    radial_frequency : float
        Radial trap frequency w_r in rad/s.

    Returns
    -------
    float
        w_r / (0.65 N^0.865) in rad/s.
    """
    if int(num_ions) != num_ions or num_ions < 1:
        raise ValueError(f"num_ions must be a positive integer, got {num_ions}")
    if not radial_frequency > 0.0:
        raise ValueError("radial_frequency must be positive")
    return radial_frequency / (0.65 * float(num_ions) ** 0.865)


@dataclass(frozen=True)
class TrapConfig:
    """Trap and species definition for one experiment.

    `axial_frequency_override` replaces the scaling rule when set; the
    quartic term adds ``quartic_coefficient * x^4`` (J/m^4) to the axial
    potential of every ion.
    """

    num_ions: int
    ion_mass: float = CA40_ION_MASS            # kg
    laser_wavelength: float = SDK_WAVELENGTH   # m
    radial_frequency: float = 2.0 * math.pi * 5.0e6  # rad/s
    axial_frequency_override: float | None = None    # rad/s
    quartic_coefficient: float | None = None         # J / m^4

    def __post_init__(self):
        if int(self.num_ions) != self.num_ions or self.num_ions < 1:
            raise ValueError("num_ions must be a positive integer")
        if not self.radial_frequency > 0.0:
            raise ValueError("radial_frequency must be positive")
        if not self.ion_mass > 0.0:
            raise ValueError("ion_mass must be positive")
        if not self.laser_wavelength > 0.0:
            raise ValueError("laser_wavelength must be positive")
        if self.axial_frequency_override is not None and not self.axial_frequency_override > 0.0:
            raise ValueError("axial_frequency_override must be positive")

    @property
    def axial_freq(self) -> float:
        """Axial frequency in rad/s (override or scaling rule)."""
        if self.axial_frequency_override is not None:
            return self.axial_frequency_override
        return axial_frequency(self.num_ions, self.radial_frequency)

    @property
    def wavenumber(self) -> float:
        """Laser wavenumber k = 2 pi / lambda, 1/m."""
        return 2.0 * math.pi / self.laser_wavelength

    @property
    def quartic(self) -> float:
        return 0.0 if self.quartic_coefficient is None else self.quartic_coefficient


def length_scale(config: TrapConfig) -> float:
    """Standard Coulomb length scale l = (q^2 / (4 pi eps0 M w_t^2))^(1/3), m."""
    return (CONSTANTS.coulomb_coefficient / (config.ion_mass * config.axial_freq**2)) ** (1.0 / 3.0)


def _scaled_gradient(u: np.ndarray, kappa: float) -> np.ndarray:
    """Gradient of the potential in units of M w_t^2 l, positions in units of l."""
    du = u[:, None] - u[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where(du != 0.0, 1.0 / np.abs(du) ** 2, 0.0)
    coulomb = np.sum(np.sign(du) * inv2, axis=1)
    return u + 4.0 * kappa * u**3 - coulomb


def _scaled_hessian(u: np.ndarray, kappa: float) -> np.ndarray:
    """Hessian of the potential in units of w_t^2 (per unit mass), positions in l."""
    du = u[:, None] - u[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv3 = np.where(du != 0.0, 1.0 / np.abs(du) ** 3, 0.0)
    h = -2.0 * inv3
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, 1.0 + 12.0 * kappa * u**2 - h.sum(axis=1))
    return h


def _scaled_quartic(config: TrapConfig) -> float:
    """Dimensionless quartic strength kappa = c4 l^2 / (M w_t^2)."""
    ell = length_scale(config)
    return config.quartic * ell**2 / (config.ion_mass * config.axial_freq**2)


def _uniform_ansatz(n: int, kappa: float) -> np.ndarray:
    """Uniform-spacing seed u_i = c (i - (N+1)/2), with c minimising the energy
    along the uniform-spacing family so Newton starts well scaled at any N."""
    base = np.arange(n) - 0.5 * (n - 1)
    alpha = 0.5 * np.sum(base**2)
    beta = np.sum(base**4)
    gaps = np.arange(1, n)
    gamma = np.sum((n - gaps) / gaps)
    if kappa == 0.0:
        c = (gamma / (2.0 * alpha)) ** (1.0 / 3.0)
    else:
        # Unique positive root of 2 a c^3 + 4 k b c^5 = g, by bisection.
        lo, hi = 1e-6, (gamma / (2.0 * alpha)) ** (1.0 / 3.0) + 1.0
        for _ in range(200):
            c = 0.5 * (lo + hi)
            if 2.0 * alpha * c**3 + 4.0 * kappa * beta * c**5 > gamma:
                hi = c
            else:
                lo = c
        c = 0.5 * (lo + hi)
    return c * base


def equilibrium_positions(config: TrapConfig, max_iterations: int = 200) -> np.ndarray:
    """Solve for the crystal equilibrium positions, sorted ascending.

    Damped Newton iteration on the potential gradient, seeded from a
    uniform-spacing ansatz.  Deterministic; converges in well under the
    iteration cap for N <= 100.

    Returns positions in metres.  Raises `EquilibriumNotConverged` if the
    residual force does not drop below 1e-13 (scaled units), and
    `NonConfiningPotential` for a negative quartic coefficient.
    """
    if config.quartic < 0.0:
        raise NonConfiningPotential("negative quartic coefficient does not confine")
    n = config.num_ions
    ell = length_scale(config)
    if n == 1:
        return np.zeros(1)

    kappa = _scaled_quartic(config)
    u = _uniform_ansatz(n, kappa)
    residual = _scaled_gradient(u, kappa)
    for _ in range(max_iterations):
        # Residual floor scales with the chain extent through float cancellation.
        scale = max(1.0, float(np.max(np.abs(u))))
        if np.max(np.abs(residual)) < 1e-13 * scale:
            break
        step = np.linalg.solve(_scaled_hessian(u, kappa), residual)
        damping = 1.0
        for _ in range(60):
            trial = u - damping * step
            if np.all(np.diff(trial) > 0.0):
                trial_residual = _scaled_gradient(trial, kappa)
                if np.max(np.abs(trial_residual)) < np.max(np.abs(residual)):
                    break
            damping *= 0.5
        else:
            if np.max(np.abs(residual)) < 1e-11 * scale:
                break  # at the float noise floor, far inside the 1e-10 contract
            raise EquilibriumNotConverged("damped Newton step failed to reduce the residual")
        u, residual = trial, trial_residual
    else:
        raise EquilibriumNotConverged(
            f"equilibrium residual {np.max(np.abs(residual)):.3e} after {max_iterations} iterations"
        )
    # Symmetrise exactly: the potential is even, so the solution is mirror symmetric.
    u = 0.5 * (u - u[::-1])
    return u * ell


def hessian(config: TrapConfig, positions: np.ndarray) -> np.ndarray:
    """Mass-scaled Hessian H_ij (s^-2) of the trap + Coulomb potential.

    Analytic second derivatives evaluated at `positions` (m); no finite
    differencing.  Symmetric by construction.
    """
    positions = np.asarray(positions, dtype=float)
    m = config.ion_mass
    wt2 = config.axial_freq**2
    dx = positions[:, None] - positions[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv3 = np.where(dx != 0.0, 1.0 / np.abs(dx) ** 3, 0.0)
    coeff = CONSTANTS.coulomb_coefficient / m
    h = -2.0 * coeff * inv3
    np.fill_diagonal(h, 0.0)
    diagonal = wt2 + 12.0 * config.quartic * positions**2 / m - h.sum(axis=1)
    np.fill_diagonal(h, diagonal)
    return 0.5 * (h + h.T)


def normal_modes(hessian_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mode frequencies (rad/s, ascending) and coupling matrix from the Hessian.

    Rows of the coupling matrix are orthonormal eigenvectors b_m; the sign
    convention fixes each row's largest-magnitude entry positive so that
    serialized models are byte-for-byte reproducible.
    """
    h = np.asarray(hessian_matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hessian must be a square matrix")
    if not np.allclose(h, h.T, rtol=0.0, atol=1e-9 * max(1.0, np.max(np.abs(h)))):
        raise ValueError("hessian must be symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    if eigenvalues[0] <= 0.0:
        raise NonConfiningPotential(
            f"non-positive Hessian eigenvalue {eigenvalues[0]:.3e}: saddle or unconfined chain"
        )
    couplings = eigenvectors.T.copy()
    for row in couplings:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    return np.sqrt(eigenvalues), couplings


def lamb_dicke(wavenumber: float, mode_frequency: float, mass: float) -> float:
    """Lamb-Dicke parameter k sqrt(hbar / (2 M w_m)), dimensionless."""
    if wavenumber < 0.0:
        raise ValueError("wavenumber must be non-negative")
    if not mode_frequency > 0.0 or not mass > 0.0:
        raise ValueError("mode_frequency and mass must be positive")
    return wavenumber * math.sqrt(CONSTANTS.hbar / (2.0 * mass * mode_frequency))


@dataclass(frozen=True, eq=False)
class ChainModel:
    """Immutable normal-mode model of an ion chain.

    `mode_couplings[m, j]` is the coupling b_m^j of ion j to mode m; rows are
    orthonormal.  Safe to share across threads/processes.
    """

    positions: np.ndarray         # m, sorted ascending
    mode_frequencies: np.ndarray  # rad/s, sorted ascending
    mode_couplings: np.ndarray    # dimensionless, rows orthonormal
    lamb_dicke: np.ndarray        # dimensionless
    ion_mass: float               # kg
    wavenumber: float             # 1/m

    @property
    def num_ions(self) -> int:
        return len(self.positions)

    def with_frequency_scale(self, factor: float) -> "ChainModel":
        """Chain with every mode frequency scaled by `factor`.

        For a harmonic trap a fractional change of w_t scales all mode
        frequencies exactly and leaves the couplings untouched; Lamb-Dicke
        parameters pick up 1/sqrt(factor).  Used for trap-jitter studies.
        """
        if not factor > 0.0:
            raise ValueError("frequency scale factor must be positive")
        return ChainModel(
            positions=self.positions,
            mode_frequencies=self.mode_frequencies * factor,
            mode_couplings=self.mode_couplings,
            lamb_dicke=self.lamb_dicke / math.sqrt(factor),
            ion_mass=self.ion_mass,
            wavenumber=self.wavenumber,
        )

    def to_json_dict(self) -> dict:
        return {
            "positions_m": [float(x) for x in self.positions],
            "mode_freqs_rad_s": [float(w) for w in self.mode_frequencies],
            "couplings": [[float(b) for b in row] for row in self.mode_couplings],
            "lamb_dicke": [float(e) for e in self.lamb_dicke],
            "ion_mass_kg": float(self.ion_mass),
            "wavenumber_m": float(self.wavenumber),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainModel":
        chain = cls(
            positions=np.asarray(data["positions_m"], dtype=float),
            mode_frequencies=np.asarray(data["mode_freqs_rad_s"], dtype=float),
            mode_couplings=np.asarray(data["couplings"], dtype=float),
            lamb_dicke=np.asarray(data["lamb_dicke"], dtype=float),
            ion_mass=float(data["ion_mass_kg"]),
            wavenumber=float(data["wavenumber_m"]),
        )
        n = chain.num_ions
        if not (chain.positions.shape == chain.mode_frequencies.shape
                == chain.lamb_dicke.shape == (n,) and chain.mode_couplings.shape == (n, n)):
            raise ValueError(f"chain arrays do not all fit {n} ions")
        return chain

    @classmethod
    def from_json(cls, text: str) -> "ChainModel":
        return cls.from_json_dict(json.loads(text))


def build_chain(config: TrapConfig) -> ChainModel:
    """Full pipeline: equilibrium -> Hessian -> modes -> Lamb-Dicke parameters."""
    positions = equilibrium_positions(config)
    freqs, couplings = normal_modes(hessian(config, positions))
    etas = np.array([lamb_dicke(config.wavenumber, w, config.ion_mass) for w in freqs])
    model = ChainModel(
        positions=positions,
        mode_frequencies=freqs,
        mode_couplings=couplings,
        lamb_dicke=etas,
        ion_mass=config.ion_mass,
        wavenumber=config.wavenumber,
    )
    gram = couplings @ couplings.T
    if np.max(np.abs(gram - np.eye(config.num_ions))) > 1e-12:
        raise NonConfiningPotential("mode couplings failed the orthonormality check")
    return model
