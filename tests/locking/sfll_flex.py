"""SFLL-flex^{k×w} [Yasin et al., CCS 2017] — the multi-cube SFLL variant.

Where SFLL-HDh strips a Hamming shell, SFLL-flex strips ``k`` explicitly
chosen cubes (stored on-chip in a small LUT keyed by the user key). We
model the functional essence: the stripping unit is an OR of ``k``
hard-coded cube detectors, the restoration unit an OR of ``k`` equality
comparators against key-register slices, and the correct key is the
concatenation of the protected cubes.

Included deliberately as a *scope boundary* for the FALL attack: an OR
of two or more cubes with conflicting literal polarities is neither
unate (Lemma 1 fails) nor a Hamming-distance shell (Lemmas 2/3 fail), so
the paper's functional analyses return ⊥ — our tests pin this down. The
key confirmation stage still works given hints from elsewhere, which is
exactly the division the paper's §V anticipates. For ``k = 1`` the
scheme degenerates to TTLock and falls to FALL as usual.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.opt import optimize
from repro.errors import LockingError
from repro.locking._common import (
    add_key_inputs,
    displace_target,
    resolve_lock_site,
)
from repro.locking.base import LockedCircuit
from repro.locking.comparators import add_cube_detector, add_equality_comparator


def lock_sfll_flex(
    circuit: Circuit,
    num_cubes: int = 2,
    cube_width: int | None = None,
    cubes: Sequence[Sequence[int]] | None = None,
    seed: int = 0,
    optimize_netlist: bool = True,
) -> LockedCircuit:
    """Lock ``circuit`` with SFLL-flex^{k×w}.

    ``num_cubes`` is k; ``cube_width`` is w (default: the usual
    min(#inputs, 64) site). The key has ``k*w`` bits — the concatenated
    protected cubes, in order.
    """
    if num_cubes < 1:
        raise LockingError("need at least one protected cube")
    target, protected = resolve_lock_site(circuit, cube_width)
    width = len(protected)
    cube_list = _resolve_cubes(cubes, num_cubes, width, seed)

    work, hidden = displace_target(circuit, target)
    work.name = f"{circuit.name}~sfll_flex{num_cubes}x{width}"

    # Functionality-stripped circuit: OR of hard-coded cube detectors.
    strip_terms = [
        add_cube_detector(work, protected, cube, prefix=f"fsc{i}")
        for i, cube in enumerate(cube_list)
    ]
    strip = _or_tree(work, strip_terms, "fsc_or")
    fsc = work.fresh_name("fsc_out")
    work.add_gate(fsc, GateType.XOR, [hidden, strip])

    # Restoration unit: OR of comparators against key-register slices.
    keys = add_key_inputs(work, num_cubes * width)
    restore_terms = []
    for i in range(num_cubes):
        key_slice = keys[i * width : (i + 1) * width]
        restore_terms.append(
            add_equality_comparator(work, protected, key_slice, prefix=f"fru{i}")
        )
    restore = _or_tree(work, restore_terms, "fru_or")
    work.add_gate(target, GateType.XOR, [fsc, restore])
    work.replace_output(hidden, target)

    correct_key = tuple(bit for cube in cube_list for bit in cube)
    locked = optimize(work) if optimize_netlist else work
    return LockedCircuit(
        circuit=locked,
        scheme=f"sfll_flex{num_cubes}x{width}",
        key_names=tuple(keys),
        _correct_key=correct_key,
    )


def _resolve_cubes(
    cubes: Sequence[Sequence[int]] | None,
    num_cubes: int,
    width: int,
    seed: int,
) -> list[tuple[int, ...]]:
    if cubes is not None:
        resolved = [tuple(int(b) for b in cube) for cube in cubes]
        if len(resolved) != num_cubes:
            raise LockingError(
                f"expected {num_cubes} cubes, got {len(resolved)}"
            )
        for cube in resolved:
            if len(cube) != width:
                raise LockingError(
                    f"cube width {len(cube)} does not match site width {width}"
                )
            if any(bit not in (0, 1) for bit in cube):
                raise LockingError("cube bits must be 0 or 1")
        if len(set(resolved)) != num_cubes:
            raise LockingError("protected cubes must be distinct")
        return resolved
    rng = random.Random(seed)
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < num_cubes:
        chosen.add(tuple(rng.getrandbits(1) for _ in range(width)))
    return sorted(chosen)


def _or_tree(circuit: Circuit, terms: list[str], prefix: str) -> str:
    if len(terms) == 1:
        return terms[0]
    top = circuit.fresh_name(prefix)
    circuit.add_gate(top, GateType.OR, terms)
    return top
