"""Unit tests for the time-based GBF and TBF extensions."""

import random

import pytest

from repro.baselines import TimeBasedExactDetector
from repro.core import TimeBasedGBFDetector, TimeBasedTBFDetector
from repro.errors import ConfigurationError, StreamError
from repro.windows import TimeBasedJumpingWindow, TimeBasedSlidingWindow


class TestTimeBasedTBF:
    def make(self, duration=10.0, resolution=10, entries=1 << 14, k=5, **kwargs):
        return TimeBasedTBFDetector(duration, resolution, entries, k, seed=1, **kwargs)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TimeBasedTBFDetector(0.0, 10, 100)
        with pytest.raises(ConfigurationError):
            TimeBasedTBFDetector(10.0, 0, 100)
        with pytest.raises(ConfigurationError):
            TimeBasedTBFDetector(10.0, 10, 0)
        with pytest.raises(ConfigurationError):
            TimeBasedTBFDetector(10.0, 10, 100, cleanup_slack=-1)

    def test_duplicate_within_duration(self):
        detector = self.make()
        assert detector.process_at(42, 0.5) is False
        assert detector.process_at(42, 5.0) is True

    def test_fresh_after_duration(self):
        detector = self.make(duration=10.0, resolution=10)
        detector.process_at(42, 0.5)
        detector.process_at(7, 11.5)  # moves the clock past expiry
        assert detector.process_at(42, 11.6) is False

    def test_expiry_granularity_is_one_unit(self):
        # Elements expire at unit boundaries: a repeat at age slightly
        # above duration - unit may still be caught, but a repeat after
        # a full duration + unit must not be.
        detector = self.make(duration=10.0, resolution=10)
        detector.process_at(42, 0.0)
        assert detector.process_at(42, 9.0) is True
        fresh = self.make(duration=10.0, resolution=10)
        fresh.process_at(42, 0.0)
        fresh.process_at(1, 11.01)
        assert fresh.process_at(42, 11.02) is False
        # Expiry is early, never late: a click late in unit 0 leaves the
        # window with its unit, at age 9.05 < duration.
        early = self.make(duration=10.0, resolution=10)
        early.process_at(42, 0.95)
        assert early.process_at(42, 10.0) is False

    def test_monotone_timestamps_enforced(self):
        detector = self.make()
        detector.process_at(1, 5.0)
        with pytest.raises(StreamError):
            detector.process_at(2, 4.0)

    def test_long_idle_gap_wipes_filter(self):
        detector = self.make(duration=10.0, resolution=10)
        for identifier in range(50):
            detector.process_at(identifier, 0.1 + identifier * 0.01)
        detector.process_at(999, 1000.0)  # idle gap >> duration
        assert detector.query_at(0, 1000.1) is False

    def test_against_exact_at_unit_granularity(self):
        # With timestamps aligned to unit boundaries the granularity
        # approximation is exact, so verdicts must match the exact
        # time-based labeler (filter sized to make FPs negligible).
        duration, resolution = 8.0, 8
        detector = self.make(duration=duration, resolution=resolution, entries=1 << 16, k=8)
        exact = TimeBasedExactDetector(TimeBasedSlidingWindow(duration))
        rng = random.Random(3)
        now = 0.0
        for _ in range(2000):
            now += float(rng.choice([0.0, 1.0, 1.0, 2.0]))
            identifier = rng.randrange(60)
            assert detector.process_at(identifier, now) == exact.process_at(
                identifier, now
            )

    def test_no_wraparound_resurrection_with_bursty_gaps(self):
        # Regression: cleaning runs only at arrival instants, so a
        # cursor re-visit can be delayed by an inter-arrival gap and an
        # expired entry's age can wrap past a too-small period, making
        # it look fresh again.  Long random-gap run vs the exact
        # labeler; the big filter makes genuine FPs impossible, so any
        # disagreement is a resurrection.
        duration, resolution = 16.0, 16
        detector = self.make(duration=duration, resolution=resolution,
                             entries=1 << 16, k=8)
        from repro.baselines import TimeBasedExactDetector

        exact = TimeBasedExactDetector(TimeBasedSlidingWindow(duration))
        rng = random.Random(1234)
        now = 0.0
        for _ in range(4000):
            now += float(rng.choice([0.0, 1.0, 2.0, 5.0, 9.0]))
            identifier = rng.randrange(60)
            assert detector.process_at(identifier, now) == exact.process_at(
                identifier, now
            )

    def test_zero_false_negatives_self_consistent(self):
        rng = random.Random(9)
        detector = self.make(duration=16.0, resolution=16, entries=512, k=2)
        window = TimeBasedSlidingWindow(16.0)
        last_valid = {}
        now = 0.0
        for _ in range(4000):
            now += rng.random()
            identifier = rng.randrange(50)
            window.observe_at(now)
            predicted = detector.process_at(identifier, now)
            previous = last_valid.get(identifier)
            # Only claim a guaranteed catch when the previous valid is
            # strictly younger than duration - one unit (granularity).
            if previous is not None and now - previous < 16.0 - 1.0:
                assert predicted, "missed a duplicate within the safe horizon"
            if not predicted:
                last_valid[identifier] = now


class TestTimeBasedGBF:
    def make(self, duration=8.0, subwindows=4, bits=1 << 14, k=5, units=4, **kwargs):
        return TimeBasedGBFDetector(
            duration, subwindows, bits, k, units_per_subwindow=units, seed=1, **kwargs
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TimeBasedGBFDetector(0.0, 4, 100)
        with pytest.raises(ConfigurationError):
            TimeBasedGBFDetector(8.0, 0, 100)
        with pytest.raises(ConfigurationError):
            TimeBasedGBFDetector(8.0, 4, 0)
        with pytest.raises(ConfigurationError):
            TimeBasedGBFDetector(8.0, 4, 100, units_per_subwindow=0)
        with pytest.raises(ConfigurationError):
            TimeBasedGBFDetector(8.0, 4, 100, word_bits=10)

    def test_duplicate_within_window(self):
        detector = self.make()
        assert detector.process_at(42, 0.5) is False
        assert detector.process_at(42, 3.0) is True

    def test_fresh_after_block_expiry(self):
        # Window 8.0 in 4 blocks of 2.0: a click at t=0.5 (block 0)
        # expires when block 4 begins at t=8.0.
        detector = self.make()
        detector.process_at(42, 0.5)
        detector.process_at(1, 8.5)
        assert detector.process_at(42, 8.6) is False

    def test_still_duplicate_in_last_active_block(self):
        detector = self.make()
        detector.process_at(42, 0.5)
        assert detector.process_at(42, 7.9) is True

    def test_monotone_timestamps_enforced(self):
        detector = self.make()
        detector.process_at(1, 5.0)
        with pytest.raises(StreamError):
            detector.process_at(2, 4.9)

    def test_long_idle_gap_wipes_lanes(self):
        detector = self.make()
        for identifier in range(50):
            detector.process_at(identifier, 0.1 + identifier * 0.01)
        detector.process_at(999, 500.0)
        assert detector.query_at(0, 500.1) is False

    def test_against_exact_on_block_aligned_stream(self):
        duration, subwindows = 8.0, 4
        detector = self.make(duration=duration, subwindows=subwindows, bits=1 << 16, k=8)
        exact = TimeBasedExactDetector(TimeBasedJumpingWindow(duration, subwindows))
        rng = random.Random(5)
        now = 0.0
        for _ in range(1500):
            now += float(rng.choice([0.0, 2.0]))  # block-aligned steps
            identifier = rng.randrange(50)
            assert detector.process_at(identifier, now) == exact.process_at(
                identifier, now
            )

    def test_empty_subwindows_rotate_safely(self):
        # Traffic with gaps of several (but not all) sub-windows: the
        # rotations for the empty blocks must not corrupt older lanes.
        detector = self.make()
        detector.process_at(1, 0.1)    # block 0
        detector.process_at(2, 4.1)    # block 2 (block 1 empty)
        detector.process_at(3, 6.1)    # block 3
        assert detector.process_at(1, 6.2) is True    # block 0 still active
        detector.process_at(4, 8.1)    # block 4: block 0 expires
        assert detector.process_at(1, 8.2) is False

    def test_active_lanes_bounded(self):
        detector = self.make()
        now = 0.0
        for identifier in range(200):
            now += 0.11
            detector.process_at(identifier, now)
        assert len(detector.active_lanes()) <= detector.num_subwindows
