"""Shared utilities: budgets/timers, bit manipulation, deterministic RNG."""
