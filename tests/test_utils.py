"""Tests for the utils package (timers, bit ops)."""

from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import complement_bits
from repro.utils.timer import Budget, Stopwatch


class TestStopwatch:
    def test_elapsed_monotone(self):
        sw = Stopwatch()
        first = sw.elapsed
        second = sw.elapsed
        assert second >= first >= 0.0


class TestBudget:
    def test_unlimited_never_expires(self):
        budget = Budget.unlimited()
        assert not budget.expired
        assert budget.remaining == float("inf")

    def test_zero_budget_expires_immediately(self):
        budget = Budget(0.0)
        assert budget.expired
        assert budget.remaining == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1.0)

    def test_remaining_decreases(self):
        budget = Budget(10.0)
        first = budget.remaining
        time.sleep(0.01)
        assert budget.remaining < first

    def test_sub_budget_capped_by_parent(self):
        parent = Budget(0.05)
        child = parent.sub(100.0)
        assert child.remaining <= 0.05

    def test_sub_of_unlimited(self):
        child = Budget.unlimited().sub(1.0)
        assert child.seconds == pytest.approx(1.0, abs=0.01)

    def test_sub_unlimited_of_unlimited(self):
        child = Budget.unlimited().sub()
        assert child.seconds is None

    def test_repr(self):
        assert "unlimited" in repr(Budget.unlimited())
        assert "remaining" in repr(Budget(5.0))


class TestBitOps:
    def test_complement(self):
        assert complement_bits((1, 0, 1)) == (0, 1, 0)


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16),
)
def test_hd_complement_property(bits):
    bits = tuple(bits)
    complement = complement_bits(bits)
    assert all(a != b for a, b in zip(bits, complement))
    assert complement_bits(complement) == bits
