"""Measure test sets: constructions and desk-scale verification.

A test set T distinguishes members of a family through the intersection
measures lambda(A ∩ T); this package constructs such sets for translates and
magnified copies of bodies and functions (deterministically) and for general
k-parameter families (randomized grids), then verifies the resulting
monotonicity/injectivity guarantees numerically with exact dyadic interval
arithmetic at the core.

The package root re-exports nothing: import the submodules
(`reconset.intervals`, `reconset.construct`, ...), so that a program loads
only the modules, and numpy only if one of them, that it runs.
"""

__version__ = "0.1.0"
