"""Dense references the tests compare the package against.

None of these runs in the package: the dynamics applies permutations as
gathers, and the rates read the tabloid orbits of ``induced``.
"""

import numpy as np

from qconsensus.permgroup import GeneratorSet, Permutation, compose, generate_group
from qconsensus.quantum import _pull_map, _sites_of, gellmann_basis


def reconstruct(coeffs: np.ndarray, d: int = 2) -> np.ndarray:
    """Inverse of :func:`decompose` (includes the 1/d^N prefactor)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = _sites_of(coeffs.size, d * d)
    basis = gellmann_basis(d)
    h = basis.reshape(d * d, d * d).T / d
    t = coeffs.reshape((d * d,) * n).astype(complex)
    for _ in range(n):
        t = np.tensordot(t, h, axes=([0], [1]))
    t = t.reshape((d, d) * n)
    rows = [2 * k for k in range(n)]
    cols = [2 * k + 1 for k in range(n)]
    t = np.transpose(t, rows + cols)
    dim = d**n
    return t.reshape(dim, dim)


def permutation_unitary(p: Permutation, d: int) -> np.ndarray:
    """Unitary that transports the state of site j to site p(j).

    On basis kets: U_p |y_1 .. y_N> = |x_1 .. x_N> with x_k = y_{p^{-1}(k)}.
    The map p -> U_p is a group homomorphism.  Dense reference only: the
    dynamics applies U_p as a gather.
    """
    s = _pull_map(tuple(p), d)
    u = np.zeros((s.size, s.size))
    u[np.arange(s.size), s] = 1.0
    return u


def cayley_laplacian(gens: GeneratorSet, weights=None) -> np.ndarray:
    """Laplacian of the Cayley digraph of the generated group: x attends to x*s.

    Vertices are the group elements in sorted (lexicographic) order;
    ``weights`` defaults to 1.0 per generator.
    """
    if weights is None:
        weights = np.ones(len(gens))
    group = sorted(generate_group(gens))
    index = {x: i for i, x in enumerate(group)}
    L = np.zeros((len(group), len(group)))
    for x in group:
        for s, w in zip(gens.perms, weights):
            i, j = index[x], index[compose(x, s)]
            L[i, i] += w
            L[i, j] -= w
    return L
