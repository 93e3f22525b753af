"""The site-label Laplacian of a weighted generator set.

Vertex v is attracted toward the state at u with strength w when a
generator p of weight w has u = p^{-1}(v), so the Laplacian carries -w
at entry [v, u] and the diagonal makes every row sum to zero.  This is
the shape ``(n-1, 1)`` induced graph with each tabloid relabeled by its
singleton position.
"""

from __future__ import annotations

import numpy as np

from .permgroup import GeneratorSet, check_weights, inverse


def generator_laplacian(gens: GeneratorSet, weights) -> np.ndarray:
    """L = sum_p w_p (I - P_p) on site labels; rows sum to zero exactly."""
    weights = check_weights([weights], len(gens))[0]
    n = gens.n
    L = np.zeros((n, n))
    for p, w in zip(gens.perms, weights):
        pinv = inverse(p)
        for v in range(n):
            u = pinv[v] - 1
            if u == v:
                continue
            L[v, v] += w
            L[v, u] -= w
    return L
