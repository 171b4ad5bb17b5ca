"""The attack registry: one fixed table of all seven families.

Every attack family in the repo is one :class:`Attack` record in
:data:`_TABLE`, keyed by its CLI name:

====================  =====================================================
``fall``              the paper's FALL pipeline (§III-§V)
``sat``               the SAT attack baseline [Subramanyan et al. 2015]
``appsat``            AppSAT approximate attack [Shamsi et al. 2017]
``double-dip``        Double DIP 2-DIP attack [Shen & Zhou 2017]
``sps``               Signal Probability Skew removal [Yasin et al. 2016]
``key-confirmation``  Algorithm 4 key confirmation (paper §V)
``guess``             SURF-style structural key guessing (paper §V motiv.)
====================  =====================================================

Every family attacks the netlist it is given and needs key inputs to do
so. The §VI-D IND-CPA game is not one of them: it locks its own
circuits and never reads an input netlist, so it lives with its tests
(``tests/attacks/indcpa.py``).

Consumers — the CLI, the experiment suite runner, the portfolio racer,
benchmarks and tests — resolve attacks by name through :func:`get_attack`
and never import family entry points directly, so adding a family is one
record and one adapter function in this module.

Each adapter imports its family on first use. A run executes one family,
and importing the table must not load the other six or the SAT/CEC stack
they share: the CLI's ``--list-attacks``, the engine and the suite runner
then start without compiling code they never call. A pool worker pays
the import of its family once, at its first task.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.attacks.results import AttackResult
from repro.errors import AttackError


@dataclass(frozen=True)
class Attack:
    """One registered attack family: plain data plus its entry adapter.

    ``entry(locked, oracle, config, budget, telemetry)`` runs the family
    within ``budget``, emitting into ``telemetry``. The flags say
    whether it needs an I/O oracle, whether its oracle stream can be
    checkpointed and resumed (deterministic oracle-guided loops), and
    whether it needs ``AttackConfig.candidates``.
    """

    #: Registry name (CLI ``--attack`` value).
    name: str
    #: One-line description shown by ``fall-attack --list-attacks``.
    description: str
    entry: Callable[..., AttackResult]
    requires_oracle: bool = False
    supports_checkpoint: bool = False
    requires_candidates: bool = False

    def applicability(self, locked, oracle, config) -> str | None:
        """``None`` if runnable, else the reason it is not (the engine
        reports it as a ``NOT_APPLICABLE`` result)."""
        if self.requires_oracle and oracle is None:
            return f"{self.name} requires an I/O oracle"
        if not locked.key_inputs:
            return "circuit has no key inputs to attack"
        if self.requires_candidates and not config.candidates:
            return (
                f"{self.name} needs a candidate shortlist "
                "(AttackConfig.candidates)"
            )
        return None

    def run(self, locked, oracle, config, budget, telemetry) -> AttackResult:
        """Execute the attack; always returns an :class:`AttackResult`.

        The engine calls this method rather than ``entry`` so that
        ``attackbench/tracer.py`` times every family by patching
        ``Attack.run``."""
        return self.entry(locked, oracle, config, budget, telemetry)


# ----------------------------------------------------------------------
# Family adapters
# ----------------------------------------------------------------------
def _fall(locked, oracle, config, budget, telemetry):
    from repro.attacks.fall.pipeline import fall_attack

    return fall_attack(
        locked,
        h=config.h,
        oracle=oracle,
        budget=budget,
        analyses=config.analyses,
        telemetry=telemetry,
    )


def _sat(locked, oracle, config, budget, telemetry):
    from repro.attacks.cegis import sat_attack

    return sat_attack(
        locked,
        oracle,
        budget=budget,
        max_iterations=config.max_iterations,
        telemetry=telemetry,
    )


def _appsat(locked, oracle, config, budget, telemetry):
    from repro.attacks.cegis import appsat_attack

    return appsat_attack(
        locked,
        oracle,
        budget=budget,
        max_iterations=config.max_iterations,
        seed=config.seed,
        telemetry=telemetry,
    )


def _double_dip(locked, oracle, config, budget, telemetry):
    from repro.attacks.cegis import double_dip_attack

    return double_dip_attack(
        locked,
        oracle,
        budget=budget,
        max_iterations=config.max_iterations,
        telemetry=telemetry,
    )


def _sps(locked, oracle, config, budget, telemetry):
    from repro.attacks.sps import sps_attack

    return sps_attack(locked, seed=config.seed, telemetry=telemetry)


def _key_confirmation(locked, oracle, config, budget, telemetry):
    from repro.attacks.key_confirmation import key_confirmation

    return key_confirmation(
        locked,
        oracle,
        list(config.candidates),
        budget=budget,
        max_iterations=config.max_iterations,
        telemetry=telemetry,
    )


def _guess(locked, oracle, config, budget, telemetry):
    from repro.attacks.guess import guess_and_confirm

    return guess_and_confirm(
        locked, oracle, h=config.h, budget=budget, telemetry=telemetry
    )


# FALL, key confirmation and guess are not checkpointable: FALL's
# geometric budget slicing makes its confirmed-cube shortlist, and key
# confirmation's probe mining truncates, on the wall clock, so a resumed
# run cannot promise to replay the recorded transcript.
_TABLE = (
    Attack(
        "fall",
        "FALL functional-analysis pipeline (oracle optional; uses key "
        "confirmation on multi-key shortlists when an oracle is given)",
        _fall,
    ),
    Attack(
        "sat",
        "SAT attack (oracle-guided distinguishing-input CEGIS)",
        _sat,
        requires_oracle=True,
        supports_checkpoint=True,
    ),
    Attack(
        "appsat",
        "AppSAT approximate SAT attack (random-query validation)",
        _appsat,
        requires_oracle=True,
        supports_checkpoint=True,
    ),
    Attack(
        "double-dip",
        "Double DIP (2-distinguishing-input SAT attack variant)",
        _double_dip,
        requires_oracle=True,
        supports_checkpoint=True,
    ),
    Attack(
        "sps",
        "Signal Probability Skew removal attack (oracle-less)",
        _sps,
    ),
    Attack(
        "key-confirmation",
        "SAT-based key confirmation of a candidate shortlist (paper Alg. "
        "4); the shortlist is AttackConfig.candidates, so it runs from "
        "the library only",
        _key_confirmation,
        requires_oracle=True,
        requires_candidates=True,
    ),
    Attack(
        "guess",
        "structural key guessing; guesses are confirmed through "
        "key-confirmation when an oracle is available (the paper's §V "
        "guess-and-confirm workflow)",
        _guess,
    ),
)

_REGISTRY = {attack.name: attack for attack in _TABLE}


def attack_names() -> tuple[str, ...]:
    """All registered names, in table (documentation) order."""
    return tuple(_REGISTRY)


def all_attacks() -> tuple[Attack, ...]:
    return _TABLE


def get_attack(name: str) -> Attack:
    """Resolve a registry name; unknown names list the valid choices."""
    attack = _REGISTRY.get(name)
    if attack is None:
        raise AttackError(
            f"unknown attack {name!r}; registered attacks: "
            f"{', '.join(attack_names())}"
        )
    return attack
