"""Attacks on logic locking.

The paper's contribution (the FALL attack pipeline and SAT-based key
confirmation) plus the prior-work attacks used as baselines and context:
the SAT attack [22], SPS [30], Double DIP [18] and AppSAT [17]. The SAT
attack, AppSAT and Double DIP share one distinguishing-input loop in
:mod:`repro.attacks.cegis`; key confirmation
(:mod:`repro.attacks.key_confirmation`) reuses its input checks and I/O
constraints.

Since the unified-engine refactor, every family is registered behind the
uniform :class:`~repro.attacks.base.Attack` interface and driven through
:func:`~repro.attacks.engine.run_attack` /
:func:`~repro.attacks.engine.run_portfolio`; the per-family functions
remain importable for direct, object-returning use.
"""

from repro.attacks.base import Attack, AttackConfig, TelemetryRecorder
from repro.attacks.engine import run_attack, run_portfolio
from repro.attacks.oracle import IOOracle
from repro.attacks.registry import (
    all_attacks,
    attack_names,
    get_attack,
    register_attack,
)
from repro.attacks.results import AttackResult, AttackStatus
from repro.attacks.cegis import appsat_attack, double_dip_attack, sat_attack
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.fall import fall_attack
from repro.attacks.sps import sps_attack
from repro.attacks.guess import guess_keys

__all__ = [
    "Attack",
    "AttackConfig",
    "TelemetryRecorder",
    "IOOracle",
    "AttackResult",
    "AttackStatus",
    "run_attack",
    "run_portfolio",
    "get_attack",
    "attack_names",
    "all_attacks",
    "register_attack",
    "sat_attack",
    "key_confirmation",
    "fall_attack",
    "sps_attack",
    "double_dip_attack",
    "appsat_attack",
    "guess_keys",
]
