"""Experiment harness reproducing the paper's evaluation (§VI).

One module per artifact: Table I (:mod:`repro.experiments.table1`),
Figure 5 (:mod:`repro.experiments.fig5`), Figure 6
(:mod:`repro.experiments.fig6`) and the §VI-B headline statistics
(:mod:`repro.experiments.summary`). The benchmark suite substitutes
profile-matched synthetic circuits for the ISCAS/MCNC netlists, and
each artifact takes a :class:`~repro.experiments.profiles.Scale`: the
laptop-sized ``DEFAULT_SCALE``, the paper's ``PAPER_SCALE``, or any
scale in between (see :mod:`repro.experiments.profiles`).
"""
