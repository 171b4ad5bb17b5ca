"""The declarative attack registry: all eight families, one interface.

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
``indcpa``            the §VI-D IND-CPA distinguishing game
====================  =====================================================

Consumers — the CLI, the experiment suite runner, the portfolio racer,
benchmarks and tests — resolve attacks by name through :func:`get_attack`
and never import family entry points directly, so adding a family is one
adapter class with the ``@register_attack`` decorator.
"""

from __future__ import annotations

from repro.attacks.base import Attack, telemetry_or_null
from repro.attacks.results import AttackResult, AttackStatus
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

    def run(self, locked, oracle, config):
        from repro.attacks.fall.pipeline import fall_attack

        return fall_attack(
            locked,
            h=config.h,
            oracle=oracle,
            budget=config.make_budget(),
            analyses=config.analyses,
            telemetry=config.telemetry,
        )


@register_attack
class SatAttackFamily(Attack):
    name = "sat"
    description = "SAT attack (oracle-guided distinguishing-input CEGIS)"
    requires_oracle = True
    supports_checkpoint = True

    def run(self, locked, oracle, config):
        from repro.attacks.cegis import sat_attack

        return sat_attack(
            locked,
            oracle,
            budget=config.make_budget(),
            max_iterations=config.max_iterations,
            telemetry=config.telemetry,
        )


@register_attack
class AppSatFamily(Attack):
    name = "appsat"
    description = "AppSAT approximate SAT attack (random-query validation)"
    requires_oracle = True
    supports_checkpoint = True

    def run(self, locked, oracle, config):
        from repro.attacks.cegis import appsat_attack

        return appsat_attack(
            locked,
            oracle,
            budget=config.make_budget(),
            max_iterations=config.max_iterations,
            seed=config.seed,
            telemetry=config.telemetry,
        )


@register_attack
class DoubleDipFamily(Attack):
    name = "double-dip"
    description = "Double DIP (2-distinguishing-input SAT attack variant)"
    requires_oracle = True
    supports_checkpoint = True

    def run(self, locked, oracle, config):
        from repro.attacks.cegis import double_dip_attack

        return double_dip_attack(
            locked,
            oracle,
            budget=config.make_budget(),
            max_iterations=config.max_iterations,
            telemetry=config.telemetry,
        )


@register_attack
class SpsFamily(Attack):
    name = "sps"
    description = "Signal Probability Skew removal attack (oracle-less)"
    requires_oracle = False

    def run(self, locked, oracle, config):
        from repro.attacks.sps import sps_attack

        return sps_attack(
            locked, seed=config.seed, telemetry=config.telemetry
        )


@register_attack
class KeyConfirmationFamily(Attack):
    name = "key-confirmation"
    description = (
        "SAT-based key confirmation of a candidate shortlist (paper Alg. 4)"
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

    def run(self, locked, oracle, config):
        from repro.attacks.key_confirmation import key_confirmation

        return key_confirmation(
            locked,
            oracle,
            list(config.candidates),
            budget=config.make_budget(),
            max_iterations=config.max_iterations,
            telemetry=config.telemetry,
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

    def run(self, locked, oracle, config):
        from repro.attacks.guess import guess_keys
        from repro.attacks.key_confirmation import key_confirmation
        from repro.utils.timer import Stopwatch

        stopwatch = Stopwatch()
        telemetry = telemetry_or_null(config.telemetry)
        budget = config.make_budget()
        queries_before = oracle.query_count if oracle is not None else 0
        with telemetry.stage("guess"):
            report = guess_keys(locked, h=config.h, budget=budget)
        guesses = tuple(report.guesses)
        details = {
            "nodes_examined": report.nodes_examined,
            "guesses": [list(guess) for guess in guesses],
        }

        def result(status, key=None, extra=None):
            return AttackResult(
                attack="guess",
                status=status,
                key=key,
                key_names=locked.key_inputs,
                candidates=guesses,
                elapsed_seconds=stopwatch.elapsed,
                oracle_queries=(
                    oracle.query_count - queries_before
                    if oracle is not None
                    else 0
                ),
                details={**details, **(extra or {})},
            )

        if not guesses:
            return result(
                AttackStatus.TIMEOUT if budget.expired else AttackStatus.FAILED
            )
        if oracle is None:
            # Unverified by design: confirmation is key confirmation's job.
            return result(AttackStatus.MULTIPLE_CANDIDATES)
        with telemetry.stage("confirm"):
            confirmation = key_confirmation(
                locked,
                oracle,
                list(guesses),
                budget=budget,
                telemetry=config.telemetry,
            )
        if confirmation.status is AttackStatus.SUCCESS:
            return result(
                AttackStatus.SUCCESS,
                key=confirmation.key,
                extra={"verification": confirmation.details.get("verification")},
            )
        return result(confirmation.status)


@register_attack
class IndCpaFamily(Attack):
    name = "indcpa"
    description = (
        "IND-CPA-style distinguishing game (paper §VI-D); SUCCESS means "
        "the equivalence adversary distinguishes with non-negligible "
        "advantage"
    )
    requires_oracle = False

    def needs_key_inputs(self):
        # The game locks its own fresh random circuits; the input
        # netlist is not used.
        return False

    def run(self, locked, oracle, config):
        from repro.attacks.indcpa import (
            ADVANTAGE_THRESHOLD,
            GAME_ROUNDS,
            adversary_advantage,
            play_game,
        )
        from repro.utils.timer import Stopwatch

        stopwatch = Stopwatch()
        telemetry = telemetry_or_null(config.telemetry)
        with telemetry.stage("play_game", rounds=GAME_ROUNDS):
            transcript = play_game(h=max(config.h, 1), seed=config.seed)
        advantage = adversary_advantage(transcript)
        wins = sum(1 for game_round in transcript if game_round.won)
        for index, game_round in enumerate(transcript):
            telemetry.iteration(
                "play_game", index, won=game_round.won
            )
        status = (
            AttackStatus.SUCCESS if advantage >= ADVANTAGE_THRESHOLD
            else AttackStatus.FAILED
        )
        return AttackResult(
            attack="indcpa",
            status=status,
            key_names=locked.key_inputs,
            elapsed_seconds=stopwatch.elapsed,
            iterations=len(transcript),
            details={
                "advantage": advantage,
                "wins": wins,
                "rounds": GAME_ROUNDS,
                "threshold": ADVANTAGE_THRESHOLD,
            },
        )
