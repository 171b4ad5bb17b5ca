"""Shared plumbing for the stripped-functionality lockers."""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.circuit.circuit import Circuit
from repro.errors import LockingError
from repro.locking.base import choose_protected_inputs, choose_target_output

KEY_PREFIX = "keyinput"


def displace_target(circuit: Circuit, target: str) -> tuple[Circuit, str]:
    """Rename the target output's driver so its name can be reused.

    Returns a working copy in which the node previously named ``target``
    is now ``<target>$pre`` (and still listed as the output — callers
    replace it once the locking logic is in place).
    """
    if target not in circuit.outputs:
        raise LockingError(f"{target!r} is not an output of {circuit.name!r}")
    hidden = f"{target}$pre"
    while circuit.has_node(hidden):
        hidden += "_"
    return circuit.renamed({target: hidden}), hidden


def add_key_inputs(circuit: Circuit, width: int) -> list[str]:
    """Create ``width`` fresh key inputs named keyinput0, keyinput1, ..."""
    names: list[str] = []
    index = 0
    while len(names) < width:
        candidate = f"{KEY_PREFIX}{index}"
        index += 1
        if circuit.has_node(candidate):
            continue
        circuit.add_key_input(candidate)
        names.append(candidate)
    return names


def resolve_lock_site(
    circuit: Circuit, key_width: int | None
) -> tuple[str, tuple[str, ...]]:
    """Pick the target output and protected inputs for a locking call.

    The target is the widest-support output; ``key_width`` defaults to
    ``min(#inputs, 64)``, the paper's cap.
    """
    width = key_width
    if width is None:
        width = min(len(circuit.circuit_inputs), 64)
    protected = choose_protected_inputs(circuit, width)
    return choose_target_output(circuit), protected


def resolve_cube(
    cube: Sequence[int] | None, width: int, seed: int
) -> tuple[int, ...]:
    """Use the given protected cube or draw one uniformly at random."""
    if cube is not None:
        cube = tuple(int(b) for b in cube)
        if len(cube) != width:
            raise LockingError(
                f"cube width {len(cube)} does not match key width {width}"
            )
        if any(b not in (0, 1) for b in cube):
            raise LockingError("cube bits must be 0 or 1")
        return cube
    rng = random.Random(seed)
    return tuple(rng.getrandbits(1) for _ in range(width))
