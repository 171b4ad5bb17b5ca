"""FALL: Functional Analysis attacks on Logic Locking (the paper's core).

Stage 1 (oracle-less, §III-§IV): comparator identification, support-set
matching, the three functional analyses (AnalyzeUnateness,
SlidingWindow, Distance2H) and equivalence-check confirmation, yielding
a shortlist of candidate keys. Stage 2 (§V): key confirmation against an
I/O oracle when the shortlist has more than one entry.
"""
