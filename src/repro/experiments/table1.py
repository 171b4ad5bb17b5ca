"""Table I reproduction: benchmark statistics, original vs SFLL.

Regenerates the paper's Table I layout — circuit name, #inputs,
#outputs, #keys, original gate count, and min/max gate counts over the
SFLL-locked variants (the paper's min/max span its h settings).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.profiles import H_LABELS, CircuitProfile, Scale
from repro.experiments.report import render_table, write_csv
from repro.experiments.suite import build_benchmark


def table1_rows(profiles: Sequence[CircuitProfile]) -> list[tuple]:
    """One row per circuit: (name, #in, #out, #keys, gates, min, max)."""
    rows = []
    for profile in profiles:
        benchmarks = [build_benchmark(profile, label) for label in H_LABELS]
        original_gates = benchmarks[0].original.num_gates
        locked_gates = [b.locked.circuit.num_gates for b in benchmarks]
        rows.append(
            (
                profile.name,
                profile.num_inputs,
                profile.num_outputs,
                profile.key_width,
                original_gates,
                min(locked_gates),
                max(locked_gates),
            )
        )
    return rows


HEADERS = ("ckt", "#in", "#out", "#keys", "gates-orig", "SFLL-min", "SFLL-max")


def main(scale: Scale, csv_path: str | None = None) -> str:
    rows = table1_rows(scale.profiles())
    text = render_table(
        HEADERS, rows, title="Table I: benchmark circuits (reproduced)"
    )
    if csv_path:
        write_csv(csv_path, HEADERS, rows)
    return text
