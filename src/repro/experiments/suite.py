"""Benchmark suite construction: generate, lock, optimize.

Follows the paper's methodology (§VI-A): every circuit is locked with
TTLock/SFLL-HD for each Hamming-distance setting and the locked netlist
is optimized (our strash pipeline standing in for ABC) "to minimize any
structural bias introduced by our locking implementation".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.circuit.circuit import Circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.experiments.profiles import CircuitProfile, h_for
from repro.locking.base import LockedCircuit
from repro.locking.sfll import lock_sfll_hd


@dataclass
class LockedBenchmark:
    """One (circuit, h-setting) cell of the evaluation grid."""

    profile: CircuitProfile
    h_label: str
    h: int
    original: Circuit
    locked: LockedCircuit

    @property
    def name(self) -> str:
        return f"{self.profile.name}[{self.h_label}]"


@lru_cache(maxsize=64)
def _original_for(profile: CircuitProfile) -> Circuit:
    return generate_random_circuit(
        profile.name,
        num_inputs=profile.num_inputs,
        num_outputs=profile.num_outputs,
        num_gates=profile.num_gates,
        seed=profile.seed(),
    )


def build_benchmark(
    profile: CircuitProfile, h_label: str, lock_seed: int = 0
) -> LockedBenchmark:
    """Generate + lock one benchmark circuit for one h setting."""
    original = _original_for(profile)
    h = h_for(h_label, profile.key_width)
    locked = lock_sfll_hd(
        original,
        h=h,
        key_width=profile.key_width,
        seed=profile.seed() + lock_seed + h,
    )
    return LockedBenchmark(
        profile=profile,
        h_label=h_label,
        h=h,
        original=original,
        locked=locked,
    )
