"""Weighted digraphs and their Laplacians.

An edge (u, v, w) means vertex u is attracted toward the state at v
with strength w, so the Laplacian carries -w at entry [u, v] and the
diagonal makes every row sum to zero.  Under a generator permutation p
each vertex v attends to p^{-1}(v); summing w*(I - P) over generators
in that convention is what `generator_laplacian` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permgroup import GeneratorSet, compose, generate_group, inverse


@dataclass(frozen=True)
class WeightedDigraph:
    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if w < 0:
                raise ValueError(f"negative weight on edge ({u},{v})")
            seen.add((u, v))


def laplacian_of(g: WeightedDigraph) -> np.ndarray:
    L = np.zeros((g.n_vertices, g.n_vertices))
    for u, v, w in g.edges:
        L[u - 1, v - 1] -= w
        L[u - 1, u - 1] += w
    return L


def underlying_graph(gens: GeneratorSet, weights) -> WeightedDigraph:
    """The n-vertex digraph the generators induce on site labels.

    Parallel contributions to one ordered pair are summed into a single
    edge.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(gens),):
        raise ValueError("one weight per generator required")
    acc: dict[tuple[int, int], float] = {}
    for p, w in zip(gens.perms, weights):
        pinv = inverse(p)
        for v in range(1, gens.n + 1):
            u = pinv[v - 1]
            if u != v and w != 0.0:
                acc[(v, u)] = acc.get((v, u), 0.0) + float(w)
    edges = tuple((u, v, w) for (u, v), w in sorted(acc.items()))
    return WeightedDigraph(n_vertices=gens.n, edges=edges)


def generator_laplacian(gens: GeneratorSet, weights) -> np.ndarray:
    """L = sum_p w_p (I - P_p) on site labels; rows sum to zero exactly."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(gens),):
        raise ValueError("one weight per generator required")
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


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """Dipath between every ordered vertex pair over positive-weight edges."""
    n = g.n_vertices
    if n == 0:
        return True
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        if w > 0:
            fwd[u - 1].append(v - 1)
            bwd[v - 1].append(u - 1)

    def reaches_all(adj) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    return reaches_all(fwd) and reaches_all(bwd)


def cayley_graph(gens: GeneratorSet, weights=None) -> WeightedDigraph:
    """Cayley digraph of the generated group: edge x -> x*s per generator s.

    Vertices are the group elements in sorted (lexicographic) order;
    ``weights`` defaults to 1.0 per generator.
    """
    if weights is None:
        weights = np.ones(len(gens))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(gens),):
        raise ValueError("one weight per generator required")
    group = sorted(generate_group(gens))
    index = {x: i + 1 for i, x in enumerate(group)}
    acc: dict[tuple[int, int], float] = {}
    for x in group:
        for s, w in zip(gens.perms, weights):
            y = compose(x, s)
            key = (index[x], index[y])
            acc[key] = acc.get(key, 0.0) + float(w)
    edges = tuple((u, v, w) for (u, v), w in sorted(acc.items()))
    return WeightedDigraph(n_vertices=len(group), edges=edges)
