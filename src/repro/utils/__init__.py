"""Shared utilities: budgets/timers and bit manipulation."""
