import json

import numpy as np
import pytest

from fastgate.sequence import (
    BurstOverlap,
    GridResolutionError,
    KickTrain,
    PulseGroupSequence,
    burst_center,
    burst_slot,
    expand_groups,
    instantaneous_train,
    _burst_times,
)

from conftest import random_half_sequence


def simple_sequence(sizes, times, gate_time=1e-6, targets=(0, 1)):
    return PulseGroupSequence.from_half(sizes, times, targets, gate_time)


class TestPulseGroupSequence:
    def test_from_half_builds_antisymmetric_lists(self):
        seq = simple_sequence([2, -1], [0.1e-6, 0.3e-6])
        assert seq.group_sizes == (1, -2, 2, -1)
        assert seq.group_times == (-0.3e-6, -0.1e-6, 0.1e-6, 0.3e-6)
        assert seq.total_sdks == 6

    def test_rejects_broken_antisymmetry(self):
        with pytest.raises(ValueError):
            PulseGroupSequence((1, 1), (-1e-7, 1e-7), (0, 1), 1e-6)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            PulseGroupSequence((-1, 1), (1e-7, -1e-7), (0, 1), 1e-6)

    def test_rejects_times_outside_gate(self):
        with pytest.raises(ValueError):
            simple_sequence([1], [0.9e-6], gate_time=1e-6)

    def test_rejects_equal_targets(self):
        with pytest.raises(ValueError):
            simple_sequence([1], [0.1e-6], targets=(1, 1))

    def test_trim_drops_trailing_zeros_and_shortens(self):
        seq = simple_sequence([1, 0, 2, 0, 0], [1e-7, 2e-7, 3e-7, 4e-7, 5e-7])
        trimmed = seq.trimmed()
        assert trimmed.half_sizes == (1, 0, 2)
        assert trimmed.gate_time == pytest.approx(6e-7)
        # interior zero group is retained
        assert trimmed.half_times == (1e-7, 2e-7, 3e-7)

    def test_trim_noop_without_trailing_zeros(self):
        seq = simple_sequence([1, 2], [1e-7, 2e-7])
        assert seq.trimmed() is seq

    def test_json_round_trip(self):
        seq = simple_sequence([3, -2], [0.11e-6, 0.42e-6])
        rebuilt = PulseGroupSequence.from_json_dict(seq.to_json_dict())
        assert rebuilt.group_sizes == seq.group_sizes
        assert rebuilt.group_times == seq.group_times


class TestInstantaneousTrain:
    def test_singleton_groups(self):
        seq = simple_sequence([1], [2.5e-7])
        train = instantaneous_train(seq)
        assert train.kick_times == (-2.5e-7, 2.5e-7)
        assert train.kick_signs == (-1, 1)
        assert train.repetition_rate is None

    def test_group_multiplicity(self, small_chains):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sizes, times, gate_time = random_half_sequence(rng)
            seq = PulseGroupSequence.from_half(sizes, times, (0, 1), gate_time)
            train = instantaneous_train(seq)
            assert train.num_kicks == seq.total_sdks
            assert train.midpoint == pytest.approx(0.0, abs=1e-22)


class TestBurstPlacement:
    def test_odd_burst_centred_on_group_time(self):
        # 3 kicks at rate R, group at t=0: one kick per period around zero.
        times = _burst_times(0.0, 3, 1.0 / 300e6)
        assert times == pytest.approx([-1 / 300e6, 0.0, 1 / 300e6])

    def test_even_burst_centred_off_grid(self):
        rate = 300e6
        period = 1.0 / rate
        assert burst_slot(1.0e-7, 2, rate) == 30
        assert burst_center(30, 2, period) * rate == pytest.approx(30.5)
        assert burst_slot(1.0e-7, 3, rate) == 29
        assert burst_center(29, 3, period) * rate == pytest.approx(30.0)
        # on the grid offset by half a period the parities swap
        assert burst_slot(1.0e-7, 2, rate, 0.5 * period) == 29
        assert burst_slot(1.0e-7, -3, rate, 0.5 * period) == 28
        assert burst_center(28, -3, period, 0.5 * period) * rate == pytest.approx(29.5)

    def test_centres_round_trip_through_their_slots(self):
        # a burst centre snaps back to its own slot, so expand_groups lays
        # each burst out from the group time itself, bit for bit
        rng = np.random.default_rng(5)
        for rate in (100e6, 300e6, 1e9):
            period = 1.0 / rate
            for phase in (0.0, 0.5 * period):
                sizes = [int(v) for v in rng.integers(1, 9, size=6) * rng.choice([-1, 1], size=6)]
                slots = (1 + np.cumsum(np.abs([0] + sizes[:-1]) + rng.integers(0, 40, size=6)))
                centres = [float(burst_center(int(a), z, period, phase))
                           for a, z in zip(slots, sizes)]
                assert [burst_slot(t, z, rate, phase) for z, t in zip(sizes, centres)] == \
                    slots.tolist()
                seq = simple_sequence(sizes, centres, gate_time=2.0 * centres[-1])
                train = expand_groups(seq, rate, grid_phase=phase)
                kicks = [t for t in train.kick_times if t > 0.0]
                expected = [t + (k - 0.5 * (abs(z) - 1)) * period
                            for z, t in zip(sizes, centres) for k in range(abs(z))]
                assert kicks == expected


class TestExpandGroups:
    def test_sixteen_kick_train(self):
        # 16 groups of one SDK each expand to a 16-kick train.
        sizes = [1, -1, 1, -1, 1, -1, 1, -1]
        times = [(j + 1) * 1.0e-6 / 16 for j in range(8)]
        seq = simple_sequence(sizes, times, gate_time=1.0e-6)
        train = expand_groups(seq, 300e6)
        assert train.num_kicks == 16 == seq.total_sdks

    def test_kicks_on_global_grid_and_antisymmetric(self):
        seq = simple_sequence([2, -3, 1], [0.1e-6, 0.25e-6, 0.4e-6])
        train = expand_groups(seq, 300e6)
        steps = np.asarray(train.kick_times) * 300e6
        assert np.allclose(steps, np.round(steps), atol=1e-6)
        assert np.allclose(train.kick_times, -np.asarray(train.kick_times)[::-1])
        assert list(train.kick_signs) == [-s for s in train.kick_signs[::-1]]

    def test_consecutive_kicks_at_least_one_period(self):
        seq = simple_sequence([4, 4], [0.1e-6, 0.2e-6])
        train = expand_groups(seq, 300e6)
        gaps = np.diff(train.kick_times)
        assert np.all(gaps >= (1.0 / 300e6) * (1 - 1e-9))

    def test_burst_overlap_raises(self):
        seq = simple_sequence([5, -5], [0.10e-6, 0.11e-6])
        with pytest.raises(BurstOverlap):
            expand_groups(seq, 300e6)

    def test_midpoint_overlap_raises(self):
        seq = simple_sequence([9], [0.005e-6])
        with pytest.raises(BurstOverlap):
            expand_groups(seq, 300e6)

    def test_unresolvable_timing_raises(self):
        seq = simple_sequence([1, 1], [0.100e-6, 0.101e-6])
        with pytest.raises((GridResolutionError, BurstOverlap)):
            expand_groups(seq, 10e6)

    def test_zero_groups_skipped(self):
        seq = simple_sequence([0, 2], [0.1e-6, 0.2e-6])
        train = expand_groups(seq, 300e6)
        assert train.num_kicks == 4


class TestKickTrain:
    def test_json_round_trip(self):
        seq = simple_sequence([2, -1], [0.1e-6, 0.3e-6])
        train = expand_groups(seq, 300e6)
        text = train.to_json()
        rebuilt = KickTrain.from_json(text)
        assert rebuilt.kick_times == train.kick_times
        assert rebuilt.kick_signs == train.kick_signs
        assert rebuilt.repetition_rate == train.repetition_rate
        data = json.loads(text)
        assert set(data) == {"rep_rate_hz", "targets", "kicks"}
        assert set(data["kicks"][0]) == {"t_s", "sign"}

    def test_grid_validation(self):
        with pytest.raises(GridResolutionError):
            KickTrain((0.0, 1.7e-9), (1, 1), (0, 1), repetition_rate=1e9)

    def test_overlap_validation(self):
        with pytest.raises(BurstOverlap):
            KickTrain((0.0, 0.4e-9), (1, 1), (0, 1), repetition_rate=1e9)

    def test_overlap_tolerance_covers_the_rounding_of_late_kicks(self):
        # at 1e15 Hz a period is 1e-15 s while a kick time near 100 ns rounds
        # by 1.3e-23 s, more than the 1e-24 s that 1e-9 periods allow
        rate = 1e15
        period = 1.0 / rate
        sizes = [5, -4, 3]
        slots = [100_000_000, 100_000_009, 100_000_020]
        centres = [float(burst_center(a, z, period)) for a, z in zip(slots, sizes)]
        train = expand_groups(simple_sequence(sizes, centres, 2.0 * centres[-1]), rate)
        gaps = np.diff(train.kick_times)
        assert train.num_kicks == 24 and np.any(gaps < period * (1.0 - 1e-9))
        with pytest.raises(BurstOverlap):
            KickTrain((1e-7, 1e-7 + 0.5 * period), (1, 1), (0, 1), repetition_rate=rate)

    @pytest.mark.parametrize("rate", [0.0, -3e8, float("inf"), float("nan")])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="repetition rate must be positive and finite"):
            KickTrain((0.0, 1e-8), (1, 1), (0, 1), repetition_rate=rate)

    def test_scaled_times_keeps_grid_alignment(self):
        seq = simple_sequence([2, -1], [0.1e-6, 0.3e-6])
        train = expand_groups(seq, 300e6)
        scaled = train.scaled_times(1.0 / (1.0 + 1e-3))
        assert scaled.num_kicks == train.num_kicks
        assert scaled.repetition_rate == pytest.approx(300e6 * (1 + 1e-3))


def _reference_kick_checks(times, rate):
    """The per-kick order, burst-overlap and grid checks of a `KickTrain`."""
    if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        raise ValueError("kick times must be non-decreasing")
    if rate is not None:
        period = 1.0 / rate
        gaps = [times[i + 1] - times[i] for i in range(len(times) - 1)]
        if any(g < period * (1.0 - 1e-9) for g in gaps):
            raise BurstOverlap("consecutive kicks closer than one repetition period")
        if times:
            t0 = times[0]
            for tv in times:
                steps = (tv - t0) * rate
                if abs(steps - round(steps)) > 1e-6:
                    raise GridResolutionError(
                        "kick times are not integer multiples of the repetition period"
                    )


def _outcome(check):
    try:
        check()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


class TestKickTrainChecks:
    RATE = 300e6

    def _cases(self):
        period = 1.0 / self.RATE
        t0 = -7.3e-7
        cases = [(), (t0,), (t0, t0 + period), (t0 + period, t0), (float("nan"), t0),
                 (t0, float("inf")), (t0, float("nan"), t0 + 2.5 * period)]
        # a gap at the burst-overlap tolerance, a few ulps either side; from
        # zero the gap is the kick time itself, so it meets the tolerance exactly
        for start in (t0, 0.0):
            edge = start + period * (1.0 - 1e-9)
            for ulps in range(-3, 4):
                cases.append((start, float(edge + ulps * np.spacing(edge))))
        # a kick off the grid by the grid tolerance, a few ulps either side,
        # behind on-grid kicks and ahead of an off-grid one
        for k in (3, 40):
            for sign in (1.0, -1.0):
                off = t0 + (k + sign * 1e-6) * period
                for ulps in range(-3, 4):
                    tv = float(off + ulps * np.spacing(off))
                    cases.append((t0, t0 + period, tv, tv + (k + 0.5) * period))
        # a kick one ulp before its predecessor
        cases.append((t0, t0 + 2 * period, float(np.nextafter(t0 + 2 * period, -1.0))))
        return cases

    def test_times_too_late_to_resolve_the_grid_are_rejected(self):
        # near 1e6 s a float time resolves 1.2e-10 s: on the 300 MHz grid
        # the kicks still land within 0.04 periods of their slots, inside
        # the allowance of eight ulps (0.28 periods), which no longer places
        # a kick
        first = 3 * 10**14
        times = tuple(k / self.RATE for k in range(first, first + 3))
        with pytest.raises(GridResolutionError, match="too late"):
            KickTrain(times, (1, 1, 1), (0, 1), self.RATE)
        # the same slots a gate's length from zero are kept
        KickTrain(tuple(k / self.RATE for k in range(300, 303)), (1, 1, 1), (0, 1), self.RATE)

    def test_array_checks_match_the_per_kick_loop(self):
        outcomes = set()
        for times in self._cases():
            for rate in (self.RATE, None):
                expected = _outcome(lambda: _reference_kick_checks(times, rate))
                signs = tuple(1 for _ in times)
                got = _outcome(lambda: KickTrain(times, signs, (0, 1), rate))
                assert got == expected, (times, rate)
                outcomes.add(None if expected is None else expected[0])
        assert outcomes == {None, ValueError, BurstOverlap, GridResolutionError, OverflowError}
