"""Convergence rates and weight optimization for permutation-driven
qudit consensus networks.

The classical layer (permutations, tabloid-induced graphs, spectra)
predicts the decay rates of the quantum dynamics; the quantum layer
(density matrices under weighted permutation swaps) is simulated
directly so the prediction can be checked end to end.  The `qcl`
console script exposes the whole pipeline; the names below are the
ones the `demos/` scripts use, and everything else is imported from its
module.
"""

from .permgroup import generator_set
from .induced import dominates, enumerate_tabloids, induced_laplacian, partitions_of
from .spectra import (
    convergence_rates,
    eigenvalues,
    intertwining_check,
    multiset_contained,
)
from .optimize import BudgetConstraint, maximize_rate, pareto_scan
from .quantum import (
    evolve,
    fit_decay_rate,
    frobenius_distances,
    generic_state,
    symmetric_state,
    sync_distance,
    uniform_site_hamiltonian,
)

__version__ = "0.1.0"
