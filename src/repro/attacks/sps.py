"""Signal Probability Skew (SPS) attack [Yasin et al., HOST 2016].

The structural/removal attack that broke Anti-SAT (paper §I): Anti-SAT's
AND-tree blocks produce an internal *flip* signal that is 1 for at most
one input pattern per key — a probability skew detectable by random
simulation. Once found, the flip signal can be removed and the original
function recovered without ever learning the key.

Two removal strategies are implemented:

- ``xor-stage``: the textbook form — an output XOR/XNOR stage with one
  maximally skewed side is bypassed (works on netlists that keep their
  XOR gates);
- ``constant-forcing``: after synthesis (strash) the XOR stage is gone,
  so instead the most skewed key-dependent node is forced to its
  majority constant and the key logic swept away (the same effect,
  robust to optimization).

Included as one of the prior-work attacks the paper positions FALL
against, and as an experiment control: SPS breaks Anti-SAT but not
SFLL-HDh, whose flip signal fires on C(m, h) patterns and (for the
h values of Figure 5) is far less skewed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.attacks.base import TelemetryRecorder
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.analysis import support_table
from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.sharding import sweep_popcounts
from repro.circuit.opt import optimize, sweep
from repro.errors import AttackError, CircuitError
from repro.utils.timer import Stopwatch

#: Random patterns per signal-probability estimate, and the skew
#: (distance from 0.5) a flip-signal candidate must reach.
PATTERNS = 4096
SKEW_THRESHOLD = 0.45


@dataclass(frozen=True)
class SkewEstimate:
    """Estimated signal probability of one node."""

    node: str
    probability: float

    @property
    def skew(self) -> float:
        """Absolute distance from the unbiased probability 0.5."""
        return abs(self.probability - 0.5)

    @property
    def majority_value(self) -> int:
        return 1 if self.probability >= 0.5 else 0


def estimate_signal_probabilities(
    circuit: Circuit, seed: int = 0
) -> dict[str, SkewEstimate]:
    """Monte-Carlo signal probabilities of every node (keys included)
    over :data:`PATTERNS` random patterns."""
    rng = random.Random(seed)
    values = {name: rng.getrandbits(PATTERNS) for name in circuit.inputs}
    counts = sweep_popcounts(circuit, values, PATTERNS)
    return {
        node: SkewEstimate(node, counts[node] / PATTERNS)
        for node in circuit.nodes
    }


def sps_attack(
    locked: Circuit,
    seed: int = 0,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the SPS removal attack.

    On success the reconstructed key-free netlist is returned in
    ``details['reconstructed']``; no key is recovered (``key=None``),
    which is the defining property of removal-style attacks. Without an
    oracle the reconstruction goes unchecked, so a SUCCESS is marked
    ``details['approximate']``.
    """
    stopwatch = Stopwatch()
    telemetry = telemetry or TelemetryRecorder()
    if not locked.key_inputs:
        raise AttackError("circuit has no key inputs to attack")
    with telemetry.stage("probability_estimation", patterns=PATTERNS):
        probabilities = estimate_signal_probabilities(locked, seed)

    with telemetry.stage("xor_stage"):
        reconstructed, info = _try_xor_stage(locked, probabilities)
    if reconstructed is None:
        with telemetry.stage("constant_forcing"):
            reconstructed, info = _try_constant_forcing(locked, probabilities)
    if reconstructed is None:
        return AttackResult(
            attack="sps",
            status=AttackStatus.FAILED,
            elapsed_seconds=stopwatch.elapsed,
            details=info,
        )
    return AttackResult(
        attack="sps",
        status=AttackStatus.SUCCESS,
        elapsed_seconds=stopwatch.elapsed,
        details={"reconstructed": reconstructed, "approximate": True, **info},
    )


def _try_xor_stage(
    locked: Circuit, probabilities: dict[str, SkewEstimate]
) -> tuple[Circuit | None, dict]:
    """Bypass an output XOR/XNOR stage with one highly skewed side."""
    best: tuple[float, str, str] | None = None
    for output in locked.outputs:
        stage = _through_buffers(locked, output)
        if locked.gate_type(stage) not in (GateType.XOR, GateType.XNOR):
            continue
        fanins = locked.fanins(stage)
        if len(fanins) != 2:
            continue
        for skew_side, keep_side in (fanins, tuple(reversed(fanins))):
            skew = probabilities[skew_side].skew
            if best is None or skew > best[0]:
                best = (skew, output, keep_side)
    if best is None or best[0] < SKEW_THRESHOLD:
        return None, {"xor_stage_skew": best[0] if best else None}
    _, output, keep = best
    rebuilt = _copy_without(locked, {output})
    rebuilt.add_gate(output, GateType.BUF, [keep])
    for out in locked.outputs:
        rebuilt.add_output(out)
    try:
        return sweep(rebuilt), {"strategy": "xor-stage", "max_skew": best[0]}
    except CircuitError:
        # Key logic still reachable: the stage was not removable.
        return None, {"strategy": "xor-stage", "max_skew": best[0]}


_MAX_FORCING_ATTEMPTS = 20


def _try_constant_forcing(
    locked: Circuit, probabilities: dict[str, SkewEstimate]
) -> tuple[Circuit | None, dict]:
    """Force skewed key-dependent nodes to their majority values.

    Candidates are tried from most to least skewed: forcing the wrong
    one (e.g. an AND inside the decomposed output XOR) leaves key logic
    reachable, which the post-folding support check detects, and the
    next candidate is tried.
    """
    supports = support_table(locked)
    key_set = set(locked.key_inputs)
    candidates = [
        probabilities[node]
        for node in locked.gates
        if probabilities[node].skew >= SKEW_THRESHOLD
        and supports[node] & key_set
        and node not in locked.outputs
    ]
    candidates.sort(key=lambda e: -e.skew)
    info: dict = {
        "strategy": "constant-forcing",
        "max_skew": candidates[0].skew if candidates else None,
    }
    for estimate in candidates[:_MAX_FORCING_ATTEMPTS]:
        rebuilt = _copy_without(locked, {estimate.node}, keep_keys=True)
        rebuilt.add_const(estimate.node, estimate.majority_value)
        for out in locked.outputs:
            rebuilt.add_output(out)
        # Fold the forced constant through the netlist: forcing one side
        # of the flip conjunction turns the whole flip cone constant,
        # which disconnects the other locking block too.
        folded = optimize(rebuilt)
        reachable = support_table(folded)
        still_keyed = any(
            reachable[out] & key_set for out in folded.outputs
        )
        if still_keyed:
            continue
        info.update(
            forced_node=estimate.node,
            forced_value=estimate.majority_value,
        )
        return _drop_key_inputs(folded), info
    return None, info


def _through_buffers(circuit: Circuit, node: str) -> str:
    while circuit.gate_type(node) is GateType.BUF:
        node = circuit.fanins(node)[0]
    return node


def _copy_without(
    locked: Circuit, omit: set[str], keep_keys: bool = False
) -> Circuit:
    """Copy all nodes except ``omit``; optionally drop key inputs."""
    rebuilt = Circuit(f"{locked.name}~sps")
    for node in locked.nodes:
        key = locked.is_key_input(node)
        if node in omit or (key and not keep_keys):
            continue
        rebuilt.add_node(node, locked.gate_type(node), locked.fanins(node), key)
    return rebuilt


def _drop_key_inputs(circuit: Circuit) -> Circuit:
    """Remove (now dangling) key inputs from a reconstructed netlist."""
    rebuilt = Circuit(circuit.name)
    for node in circuit.topological_order(targets=circuit.outputs):
        rebuilt.add_node(node, circuit.gate_type(node), circuit.fanins(node))
    # Non-key inputs outside the cone are still part of the interface.
    for name in circuit.circuit_inputs:
        if not rebuilt.has_node(name):
            rebuilt.add_input(name)
    for out in circuit.outputs:
        rebuilt.add_output(out)
    return rebuilt
