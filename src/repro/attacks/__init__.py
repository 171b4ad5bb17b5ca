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
remain importable from their defining modules for direct,
object-returning use. Like every package here but
:mod:`repro.locking`, this one re-exports nothing.
"""
