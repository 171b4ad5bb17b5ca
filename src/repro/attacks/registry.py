"""The declarative attack registry: all seven families, one interface.

Every attack family in the repo registers an :class:`~repro.attacks.
base.Attack` adapter here, keyed by its CLI name:

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
adapter class with the ``@register_attack`` decorator.
"""

from __future__ import annotations

from repro.attacks.base import Attack
from repro.attacks.cegis import appsat_attack, double_dip_attack, sat_attack
from repro.attacks.fall.pipeline import fall_attack
from repro.attacks.guess import guess_and_confirm
from repro.attacks.key_confirmation import key_confirmation
from repro.attacks.sps import sps_attack
from repro.errors import AttackError

_REGISTRY: dict[str, Attack] = {}


def register_attack(cls: type[Attack]) -> type[Attack]:
    """Class decorator adding one :class:`Attack` family to the registry."""
    attack = cls()
    if not attack.name:
        raise AttackError(f"attack class {cls.__name__} has no name")
    if attack.name in _REGISTRY:
        raise AttackError(f"attack {attack.name!r} registered twice")
    _REGISTRY[attack.name] = attack
    return cls


def attack_names() -> tuple[str, ...]:
    """All registered names, in registration (documentation) order."""
    return tuple(_REGISTRY)


def all_attacks() -> tuple[Attack, ...]:
    return tuple(_REGISTRY.values())


def get_attack(name: str) -> Attack:
    """Resolve a registry name; unknown names list the valid choices."""
    attack = _REGISTRY.get(name)
    if attack is None:
        raise AttackError(
            f"unknown attack {name!r}; registered attacks: "
            f"{', '.join(attack_names())}"
        )
    return attack


# ----------------------------------------------------------------------
# Family adapters
# ----------------------------------------------------------------------
@register_attack
class FallAttackFamily(Attack):
    name = "fall"
    description = (
        "FALL functional-analysis pipeline (oracle optional; uses key "
        "confirmation on multi-key shortlists when an oracle is given)"
    )
    requires_oracle = False
    # Not checkpointable: the geometric budget slicing makes the
    # confirmed-cube shortlist — and therefore the key-confirmation
    # query sequence — wall-clock-dependent, so a resumed run cannot
    # promise to replay the recorded transcript.
    supports_checkpoint = False

    def run(self, locked, oracle, config, budget, telemetry):
        return fall_attack(
            locked,
            h=config.h,
            oracle=oracle,
            budget=budget,
            analyses=config.analyses,
            telemetry=telemetry,
        )


@register_attack
class SatAttackFamily(Attack):
    name = "sat"
    description = "SAT attack (oracle-guided distinguishing-input CEGIS)"
    requires_oracle = True
    supports_checkpoint = True

    def run(self, locked, oracle, config, budget, telemetry):
        return sat_attack(
            locked,
            oracle,
            budget=budget,
            max_iterations=config.max_iterations,
            telemetry=telemetry,
        )


@register_attack
class AppSatFamily(Attack):
    name = "appsat"
    description = "AppSAT approximate SAT attack (random-query validation)"
    requires_oracle = True
    supports_checkpoint = True

    def run(self, locked, oracle, config, budget, telemetry):
        return appsat_attack(
            locked,
            oracle,
            budget=budget,
            max_iterations=config.max_iterations,
            seed=config.seed,
            telemetry=telemetry,
        )


@register_attack
class DoubleDipFamily(Attack):
    name = "double-dip"
    description = "Double DIP (2-distinguishing-input SAT attack variant)"
    requires_oracle = True
    supports_checkpoint = True

    def run(self, locked, oracle, config, budget, telemetry):
        return double_dip_attack(
            locked,
            oracle,
            budget=budget,
            max_iterations=config.max_iterations,
            telemetry=telemetry,
        )


@register_attack
class SpsFamily(Attack):
    name = "sps"
    description = "Signal Probability Skew removal attack (oracle-less)"
    requires_oracle = False

    def run(self, locked, oracle, config, budget, telemetry):
        return sps_attack(
            locked, seed=config.seed, telemetry=telemetry
        )


@register_attack
class KeyConfirmationFamily(Attack):
    name = "key-confirmation"
    description = (
        "SAT-based key confirmation of a candidate shortlist (paper Alg. "
        "4); the shortlist is AttackConfig.candidates, so it runs from "
        "the library only"
    )
    requires_oracle = True
    # Not checkpointable: probe mining truncates on the wall-clock
    # budget, so the query prefix is not a pure function of (config,
    # oracle answers) across differently-timed runs.
    supports_checkpoint = False

    def applicability(self, locked, oracle, config):
        reason = super().applicability(locked, oracle, config)
        if reason is not None:
            return reason
        if not config.candidates:
            return (
                "key-confirmation needs a candidate shortlist "
                "(AttackConfig.candidates)"
            )
        return None

    def run(self, locked, oracle, config, budget, telemetry):
        return key_confirmation(
            locked,
            oracle,
            list(config.candidates),
            budget=budget,
            max_iterations=config.max_iterations,
            telemetry=telemetry,
        )


@register_attack
class GuessFamily(Attack):
    name = "guess"
    description = (
        "structural key guessing; guesses are confirmed through "
        "key-confirmation when an oracle is available (the paper's §V "
        "guess-and-confirm workflow)"
    )
    requires_oracle = False
    # Inherits key-confirmation's wall-clock-dependent query prefix.
    supports_checkpoint = False

    def run(self, locked, oracle, config, budget, telemetry):
        return guess_and_confirm(
            locked,
            oracle,
            h=config.h,
            budget=budget,
            telemetry=telemetry,
        )
