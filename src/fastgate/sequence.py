"""Pulse-sequence representation: antisymmetric kick groups and expanded trains.

A gate is parameterised by signed group sizes z_j and group times t_j that are
antisymmetric about the gate midpoint (t = 0): z_{-j} = -z_j, t_{-j} = -t_j.
Each group of |z_j| momentum kicks is realised as individual 2*hbar*k SDKs
spaced by the laser repetition period.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .jsonnumbers import json_integer, json_number


class BurstOverlap(ValueError):
    """Adjacent kick bursts would overlap at the requested repetition rate."""


class GridResolutionError(ValueError):
    """The repetition-rate grid cannot resolve the requested group timings."""


@dataclass(frozen=True, eq=False)
class PulseGroupSequence:
    """Antisymmetric pulse-group sequence targeting one ion pair.

    `group_sizes[i]` kicks arrive together at `group_times[i]` (seconds,
    relative to the gate midpoint).  Negative size means the kick direction is
    reversed.  `gate_time` is the total design duration T_G; all group times
    lie within [-T_G/2, +T_G/2].
    """

    group_sizes: tuple
    group_times: tuple
    target_ions: tuple
    gate_time: float

    def __post_init__(self):
        z, t = self.group_sizes, self.group_times
        if len(z) != len(t):
            raise ValueError("group_sizes and group_times must have equal length")
        if len(z) == 0 or len(z) % 2 != 0:
            raise ValueError("group count must be even and non-zero")
        if any(int(v) != v for v in z):
            raise ValueError("group sizes must be integers")
        for i in range(len(z)):
            if z[i] != -z[len(z) - 1 - i] or t[i] != -t[len(t) - 1 - i]:
                raise ValueError("group sizes and times must be exactly antisymmetric")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ValueError("group times must be strictly increasing")
        if not self.gate_time > 0.0 or abs(t[0]) > 0.5 * self.gate_time * (1.0 + 1e-9):
            raise ValueError("group times must lie within [-T_G/2, +T_G/2]")
        mu, nu = self.target_ions
        if mu == nu or mu < 0 or nu < 0:
            raise ValueError("target ions must be a pair of distinct non-negative indices")

    @classmethod
    def from_half(cls, half_sizes, half_times, target_ions, gate_time) -> "PulseGroupSequence":
        """Build the full antisymmetric sequence from its positive-time half."""
        half_sizes = [int(v) for v in half_sizes]
        half_times = [float(v) for v in half_times]
        if any(tv <= 0.0 for tv in half_times):
            raise ValueError("half times must be strictly positive")
        sizes = tuple(-v for v in reversed(half_sizes)) + tuple(half_sizes)
        times = tuple(-v for v in reversed(half_times)) + tuple(half_times)
        return cls(sizes, times, tuple(target_ions), float(gate_time))

    @property
    def half_sizes(self) -> tuple:
        return self.group_sizes[len(self.group_sizes) // 2:]

    @property
    def half_times(self) -> tuple:
        return self.group_times[len(self.group_times) // 2:]

    @property
    def total_sdks(self) -> int:
        return int(sum(abs(v) for v in self.group_sizes))

    def trimmed(self) -> "PulseGroupSequence":
        """Drop empty trailing groups, shortening the reported gate time.

        Optimal sequences often end with z = 0 at the outermost slots; removing
        them shortens the gate without changing its action.  Interior empty
        groups are kept (they carry no kicks either way).
        """
        half_z = list(self.half_sizes)
        half_t = list(self.half_times)
        while half_z and half_z[-1] == 0:
            half_z.pop()
            half_t.pop()
        if not half_z or len(half_z) == len(self.half_sizes):
            return self
        return PulseGroupSequence.from_half(
            half_z, half_t, self.target_ions, 2.0 * half_t[-1]
        )

    def to_json_dict(self) -> dict:
        return {
            "group_sizes": [int(v) for v in self.group_sizes],
            "group_times_s": [float(v) for v in self.group_times],
            "targets": [int(v) for v in self.target_ions],
            "gate_time_s": float(self.gate_time),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseGroupSequence":
        return cls(
            tuple(json_integer(v, "sequence.group_sizes entry") for v in data["group_sizes"]),
            tuple(json_number(v, "sequence.group_times_s entry") for v in data["group_times_s"]),
            tuple(json_integer(v, "sequence.targets entry") for v in data["targets"]),
            json_number(data["gate_time_s"], "sequence.gate_time_s"),
        )


@dataclass(frozen=True, eq=False)
class KickTrain:
    """Fully expanded SDK train on the repetition-rate grid.

    `repetition_rate` is None for the instantaneous-group limit used by the
    closed-form cost (all kicks of a group coincide); on a real grid every
    kick time is an integer multiple of the repetition period relative to the
    train start.
    """

    kick_times: tuple
    kick_signs: tuple
    target_ions: tuple
    repetition_rate: float | None = None

    def __post_init__(self):
        times, signs = self.kick_times, self.kick_signs
        if len(times) != len(signs):
            raise ValueError("kick_times and kick_signs must have equal length")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("kick signs must be +1 or -1")
        t = np.array(times, dtype=float)
        if np.any(t[:-1] > t[1:]):
            raise ValueError("kick times must be non-decreasing")
        if self.repetition_rate is not None:
            if not 0.0 < self.repetition_rate < math.inf:
                raise ValueError("repetition rate must be positive and finite")
            period = 1.0 / self.repetition_rate
            # kicks one period apart, up to 1e-9 periods, and on the grid, up to
            # 1e-6 periods; at rates where those are finer than the times
            # resolve, up to four and eight ulps of the latest kick time.  Times
            # whose eight ulps pass 2**-13 periods cannot place a kick at all.
            latest = max(abs(times[0]), abs(times[-1])) if times else 0.0
            least = min(period * (1.0 - 1e-9), period - 4.0 * math.ulp(latest))
            slack = max(1e-6, 8.0 * math.ulp(latest) * self.repetition_rate)
            with np.errstate(invalid="ignore"):  # a non-finite step is off the grid
                overlap = np.any(np.diff(t) < least)
                steps = (t - t[:1]) * self.repetition_rate
                off_grid = ~(np.abs(steps - np.rint(steps)) <= slack)
            if overlap:
                raise BurstOverlap("consecutive kicks closer than one repetition period")
            if off_grid.any():
                # round() raises its own error when the first such step is not finite
                round(steps[np.argmax(off_grid)])
                raise GridResolutionError(
                    "kick times are not integer multiples of the repetition period"
                )
            if slack > 2.0**-13:
                raise GridResolutionError("kick times too late to resolve the repetition period")

    @property
    def num_kicks(self) -> int:
        return len(self.kick_times)

    @property
    def midpoint(self) -> float:
        if not self.kick_times:
            return 0.0
        return 0.5 * (self.kick_times[0] + self.kick_times[-1])

    def scaled_times(self, factor: float) -> "KickTrain":
        """Train with all kick times scaled by `factor` (repetition-rate jitter)."""
        return KickTrain(
            kick_times=tuple(tv * factor for tv in self.kick_times),
            kick_signs=self.kick_signs,
            target_ions=self.target_ions,
            repetition_rate=None if self.repetition_rate is None else self.repetition_rate / factor,
        )

    def to_json_dict(self) -> dict:
        return {
            "rep_rate_hz": None if self.repetition_rate is None else float(self.repetition_rate),
            "targets": [int(v) for v in self.target_ions],
            "kicks": [
                {"t_s": float(tv), "sign": int(sv)}
                for tv, sv in zip(self.kick_times, self.kick_signs)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "KickTrain":
        rate = data.get("rep_rate_hz")
        return cls(
            kick_times=tuple(json_number(k["t_s"], "train kick t_s") for k in data["kicks"]),
            kick_signs=tuple(json_integer(k["sign"], "train kick sign") for k in data["kicks"]),
            target_ions=tuple(json_integer(v, "train.targets entry") for v in data["targets"]),
            repetition_rate=None if rate is None else json_number(rate, "train.rep_rate_hz"),
        )

    @classmethod
    def from_json(cls, text: str) -> "KickTrain":
        return cls.from_json_dict(json.loads(text))


def instantaneous_train(sequence: PulseGroupSequence) -> KickTrain:
    """Instantaneous-group limit: all |z_j| kicks of a group exactly at t_j."""
    times, signs = [], []
    for z, t in zip(sequence.group_sizes, sequence.group_times):
        times.extend([t] * abs(z))
        signs.extend([1 if z > 0 else -1] * abs(z))
    return KickTrain(tuple(times), tuple(signs), sequence.target_ions, repetition_rate=None)


def burst_slot(time: float, size: int, repetition_rate: float, grid_phase: float = 0.0) -> int:
    """The grid slot of the first kick of the burst of |size| kicks centred
    nearest `time`.  Slot k lies at k/R + `grid_phase`; an odd burst is
    centred on a slot and an even burst half a period off one, so mirrored
    bursts stay exact mirrors.  The only grid offsets compatible with an
    antisymmetric train are zero and half a period, a free discrete choice
    the optimiser may exploit."""
    steps = (time - grid_phase) * repetition_rate
    return (round(steps) if abs(size) % 2 else math.floor(steps) + 1) - abs(size) // 2


def burst_center(slot, size, period, grid_phase=0.0):
    """The centre time of the burst of |size| kicks whose first kick takes
    grid slot `slot`, the inverse of `burst_slot`; elementwise for arrays
    of slots and sizes."""
    return (slot + 0.5 * (abs(size) - 1)) * period + grid_phase


def bursts_fit(slots, sizes, grid_phase=0.0):
    """Whether bursts of |sizes| kicks starting at grid `slots` fit the grid
    in order: each burst's first slot comes after the previous burst's
    last, and the first is at least 1, or at least 0 on the grid offset by
    half a period (a nonzero `grid_phase`): a period or more from its
    mirror image.  Row by row for a (k, m) stack of slots."""
    slots = np.asarray(slots)
    after = slots[..., :-1] + np.abs(np.asarray(sizes)[:-1])  # the slot after each burst
    return (slots[..., 0] >= (0 if grid_phase else 1)) & np.all(slots[..., 1:] >= after, axis=-1)


def _burst_times(center: float, size: int, period: float) -> list:
    """Kick times of one burst: |size| kicks spaced by the period, centred."""
    count = abs(size)
    return [center + (k - 0.5 * (count - 1)) * period for k in range(count)]


def expand_groups(
    sequence: PulseGroupSequence, repetition_rate: float, grid_phase: float = 0.0
) -> KickTrain:
    """Expand an antisymmetric group sequence into individual SDKs on the grid.

    Each nonempty group j becomes |z_j| kicks of sign sgn(z_j) separated by
    exactly one repetition period: the burst centred nearest its group time
    (`burst_slot`) on the grid offset by `grid_phase`, laid out from that
    centre (`burst_center`), so a group time that is a burst centre is
    reproduced bit for bit.  The negative-time half is generated by
    mirroring so the expanded train is exactly antisymmetric.

    Raises `BurstOverlap` when the bursts do not fit the grid in order
    (`bursts_fit`).
    """
    if not repetition_rate > 0.0:
        raise ValueError("repetition_rate must be positive")
    period = 1.0 / repetition_rate
    sizes = [z for z in sequence.half_sizes if z != 0]
    slots = [burst_slot(t, z, repetition_rate, grid_phase)
             for z, t in zip(sequence.half_sizes, sequence.half_times) if z != 0]
    if sizes and not bursts_fit(slots, sizes, grid_phase):
        raise BurstOverlap(f"bursts overlap on the {repetition_rate:.3g} Hz grid")

    pos_times, pos_signs = [], []
    for z, slot in zip(sizes, slots):
        pos_times.extend(_burst_times(float(burst_center(slot, z, period, grid_phase)), z, period))
        pos_signs.extend([1 if z > 0 else -1] * abs(z))

    times = [-tv for tv in reversed(pos_times)] + pos_times
    signs = [-sv for sv in reversed(pos_signs)] + pos_signs
    return KickTrain(tuple(times), tuple(signs), sequence.target_ions, repetition_rate)
