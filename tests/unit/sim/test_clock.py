"""Unit tests for the simulated clock and time breakdowns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimulatedClock, TimeBreakdown


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(2.5, "io")
        assert clock.now == 4.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)


_CHARGES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True),
        st.sampled_from(["base-copy", "handle", "reset", "import"]),
    ),
    max_size=12,
)


def _windowed(start, before, charge):
    """``now`` and both windows (an outer one opened over ``before``)
    after ``charge(clock)``, as exact float bits."""
    clock = SimulatedClock()
    clock.advance(start, "setup")
    with clock.measure() as outer:
        for seconds, label in before:
            clock.advance(seconds, label)
        with clock.measure() as inner:
            charge(clock)
    return clock.now.hex(), [
        [(label, value.hex()) for label, value in window.totals.items()]
        for window in (outer, inner)
    ]


class TestAdvanceAll:
    @settings(max_examples=60, deadline=None)
    @given(
        start=st.floats(min_value=0.0, max_value=1e9),
        before=_CHARGES,
        charges=_CHARGES,
    )
    def test_matches_a_loop_of_advance_bit_for_bit(
        self, start, before, charges
    ):
        def one_by_one(clock):
            for seconds, label in charges:
                clock.advance(seconds, label)

        assert _windowed(start, before, one_by_one) == _windowed(
            start, before, lambda clock: clock.advance_all(charges)
        )

    def test_negative_duration_rejected_before_any_charge(self):
        clock = SimulatedClock()
        clock.advance(1.25, "handle")
        with clock.measure() as window:
            clock.advance(0.5, "reset")
            with pytest.raises(ValueError):
                clock.advance_all(
                    [(2.0, "import"), (-1.0, "import"), (3.0, "handle")]
                )
        assert clock.now == 1.75
        assert window.totals == {"reset": 0.5}


class TestMeasure:
    def test_captures_labelled_time(self):
        clock = SimulatedClock()
        with clock.measure() as b:
            clock.advance(2.0, "copy")
            clock.advance(3.0, "import")
            clock.advance(1.0, "copy")
        assert b.component("copy") == 3.0
        assert b.component("import") == 3.0
        assert b.total == 6.0

    def test_outside_time_not_captured(self):
        clock = SimulatedClock()
        clock.advance(10.0, "before")
        with clock.measure() as b:
            clock.advance(1.0, "inside")
        clock.advance(10.0, "after")
        assert b.total == 1.0

    def test_nested_windows_both_capture(self):
        clock = SimulatedClock()
        with clock.measure() as outer:
            clock.advance(1.0, "a")
            with clock.measure() as inner:
                clock.advance(2.0, "b")
        assert inner.total == 2.0
        assert outer.total == 3.0

    def test_default_label(self):
        clock = SimulatedClock()
        with clock.measure() as b:
            clock.advance(1.0)
        assert b.component("other") == 1.0
        assert b.component("missing") == 0.0


class TestBreakdown:
    def test_merged(self):
        a = TimeBreakdown(totals={"x": 1.0, "y": 2.0})
        b = TimeBreakdown(totals={"y": 3.0, "z": 4.0})
        merged = a.merged(b)
        assert merged.totals == {"x": 1.0, "y": 5.0, "z": 4.0}
        # originals untouched
        assert a.totals == {"x": 1.0, "y": 2.0}
