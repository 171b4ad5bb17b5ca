"""Equivalence-check confirmation (paper §IV-C).

Lemmas 1-3 are necessary but not sufficient: a candidate node may
satisfy the per-variable checks without being the stripping function.
Sufficiency comes from combinational equivalence checking: the candidate
cone must equal ``strip_h(Kc)`` for the recovered cube Kc, i.e.
``strip_h(Kc)(X) ≠ cktfn_c(X)`` must be UNSAT.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.circuit.aig import aig_from_circuit
from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.sharding import sweep_outputs
from repro.circuit.gates import GateType
from repro.errors import AttackError
from repro.locking.comparators import add_cube_detector, add_hamming_distance_equals
from repro.utils.rng import make_rng
from repro.utils.timer import Budget

#: Random patterns of the simulation tier that refutes most wrong cubes.
_SIM_PATTERNS = 512


def build_strip_reference(
    input_names: list[str], cube: Mapping[str, int], h: int
) -> Circuit:
    """A fresh circuit computing ``strip_h(cube)`` over the given inputs."""
    reference = Circuit(f"strip_hd{h}_ref")
    for name in input_names:
        reference.add_input(name)
    bits = [int(cube[name]) for name in input_names]
    if h == 0:
        top = add_cube_detector(reference, input_names, bits, prefix="ref")
    else:
        top = add_hamming_distance_equals(
            reference, input_names, bits, h, prefix="ref"
        )
    reference.add_output(top)
    return reference


def confirm_cube(
    cone: Circuit,
    cube: Mapping[str, int],
    h: int,
    budget: Budget | None = None,
) -> bool | None:
    """Is the candidate cone equivalent to ``strip_h(cube)``?

    ``True``/``False`` for a definite answer, ``None`` on timeout.

    Three tiers, cheapest first:

    1. random bit-parallel simulation — refutes most wrong cubes with
       one pass;
    2. joint structural hashing — the cone and the reference are
       strashed into one AIG; identical output literals prove
       equivalence outright (this hits whenever the locked netlist was
       itself produced by a strash-based flow, making the common-case
       confirmation O(cone size) instead of an adder-tree CEC);
    3. full SAT-based CEC as the completeness fallback.
    """
    if len(cone.outputs) != 1:
        raise AttackError("confirm_cube expects a single-output cone")
    inputs = list(cone.inputs)
    if set(inputs) != set(cube):
        raise AttackError(
            "cube keys must match the cone's inputs exactly "
            f"(cone: {sorted(inputs)}, cube: {sorted(cube)})"
        )
    reference = build_strip_reference(inputs, cube, h)

    # Tier 1: random simulation refutation. Both sides run on their
    # compiled outputs-only programs (the cone's program is shared with
    # the prefilter sweeps that ran on the same cone object).
    rng = make_rng(1)
    values = {name: rng.getrandbits(_SIM_PATTERNS) for name in inputs}
    (cone_out,) = sweep_outputs(cone, values, width=_SIM_PATTERNS)
    (ref_out,) = sweep_outputs(reference, values, width=_SIM_PATTERNS)
    if cone_out != ref_out:
        return False

    # Tier 2: joint strash. Both circuits are folded into one AIG with
    # shared input literals; equal output literals prove equivalence.
    joint = _joint_miter_circuit(cone, reference)
    aig, lit_of = aig_from_circuit(joint)
    if lit_of[joint.outputs[0]] == lit_of[joint.outputs[1]]:
        return True

    # Tier 3: SAT CEC.
    result = check_equivalence(cone, reference, budget=budget)
    return result.equivalent


def _joint_miter_circuit(cone: Circuit, reference: Circuit) -> Circuit:
    """One circuit exposing both the cone and reference outputs."""
    joint = Circuit("joint")
    for name in cone.inputs:
        joint.add_input(name)
    renaming: dict[str, dict[str, str]] = {"cone": {}, "ref": {}}
    for tag, source in (("cone", cone), ("ref", reference)):
        mapping = renaming[tag]
        for node in source.topological_order():
            gate_type = source.gate_type(node)
            if gate_type is GateType.INPUT:
                mapping[node] = node
                continue
            fresh = f"{tag}${node}"
            mapping[node] = fresh
            if gate_type is GateType.CONST0:
                joint.add_const(fresh, 0)
            elif gate_type is GateType.CONST1:
                joint.add_const(fresh, 1)
            else:
                joint.add_gate(
                    fresh,
                    gate_type,
                    [mapping[f] for f in source.fanins(node)],
                )
    joint.add_output(renaming["cone"][cone.outputs[0]])
    joint.add_output(renaming["ref"][reference.outputs[0]])
    return joint
