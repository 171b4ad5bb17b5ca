"""Attacks on logic locking.

The paper's contribution (the FALL attack pipeline and SAT-based key
confirmation) plus the prior-work attacks used as baselines and context:
the SAT attack [22], SPS [30], Double DIP [18] and AppSAT [17]. The SAT
attack, AppSAT, Double DIP and key confirmation
(:mod:`repro.attacks.key_confirmation`) run on one distinguishing-input
loop state, :mod:`repro.attacks.cegis`'s ``_Cegis``: key confirmation's
P and Q are its key solver and its two-copy miter.

Every family is one :class:`~repro.attacks.registry.Attack` record in
the registry's table and is driven through
:func:`~repro.attacks.engine.run_attack` /
:func:`~repro.attacks.engine.run_portfolio`; the per-family functions
remain importable from their defining modules for direct,
object-returning use. Like every package here but
:mod:`repro.locking`, this one re-exports nothing.
"""
