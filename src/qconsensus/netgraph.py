"""The site-label Laplacian of a weighted generator set.

Vertex v is attracted toward the state at u with strength w when a
generator p of weight w has u = p^{-1}(v), so the Laplacian carries -w
at entry [v, u] and the moved weights on the diagonal: the rows
``permgroup.laplacian_rows`` gives the site table v -> p^{-1}(v).  This
is the shape ``(n-1, 1)`` induced graph with each tabloid relabeled by
its singleton position.
"""

from __future__ import annotations

import numpy as np

from .permgroup import GeneratorSet, check_weights, inverse, laplacian_matrix


def generator_laplacian(gens: GeneratorSet, weights) -> np.ndarray:
    """L = sum_p w_p (I - P_p) on site labels, by :func:`laplacian_matrix`
    over the site table v -> p^{-1}(v)."""
    img = np.array([inverse(p) for p in gens.perms], dtype=np.intp).reshape(-1, gens.n).T - 1
    return laplacian_matrix(img, check_weights([weights], len(gens))[0])
