"""Integer partitions, row-labeled tabloids, and the graphs a generator
set induces on them.

A tabloid of shape ``parts`` is stored as a ``row_of`` tuple: position k
(1-based) sits in row ``row_of[k-1]``.  A permutation p acts by pulling
row labels along positions, ``(t . p)[k] = t[p(k)]``, which is
``permgroup.compose(t, p)``; the induced Laplacian and the site-label
Laplacian in :mod:`qconsensus.netgraph` are both the rows of
``permgroup.laplacian_rows`` over an image table, so the shape
``(n-1, 1)`` graph is that Laplacian up to relabeling vertices by their
singleton position.

Partitions compare in the dominance order (prefix sums); enumeration
orders are fixed (descending lexicographic for partitions, ascending
lexicographic for tabloids and standard tableaux) so every matrix is
reproducible bit for bit.

By Young's rule the tabloid module of shape mu is the direct sum of the
irreducible modules S^lambda for lambda dominating mu, so every rate can
be read from one small :class:`IrrepBlock` per shape: the same weighted
sum ``sum_p w_p (I - rho(p))`` in Young's orthogonal form, a matrix of
the irrep's dimension instead of the orbit's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .permgroup import (
    DEFAULT_GROUP_CAP,
    GeneratorSet,
    Permutation,
    check_d,
    check_weights,
    laplacian_rows,
    orbit,
)

Partition = tuple[int, ...]
Tabloid = tuple[int, ...]

# a modulus within ZERO_TOL of its scale counts as zero: an eigenvalue
# against its spectrum's largest, a singular value of the orthogonal
# form's I - rho(p) against 1
ZERO_TOL = 1e-9


def partitions_of(n: int, max_parts: int) -> list[Partition]:
    """Partitions of n with at most ``max_parts`` parts, excluding (n).

    The one-part partition is excluded because its induced graph is a
    single vertex carrying the conserved coefficient.  Output is sorted
    descending lexicographically, a linear extension of dominance with
    the most dominant shape first.
    """
    if n < 1 or max_parts < 1:
        raise ValueError("n and max_parts must be positive")
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    out = [p for p in out if p != (n,)]
    out.sort(reverse=True)
    return out


def rate_shapes(n: int, d: int) -> list[Partition]:
    """The shapes of every rate at site dimension d: at most d*d rows, most
    dominant first, so the (n-1, 1) site graph of lambda_synch leads."""
    check_d(d)
    return partitions_of(n, d * d)


def dominates(a: Partition, b: Partition) -> bool:
    """True iff every prefix sum of ``a`` is >= the matching one of ``b``."""
    if sum(a) != sum(b):
        raise ValueError("partitions must partition the same integer")
    k = max(len(a), len(b))
    sa = sb = 0
    for i in range(k):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def enumerate_tabloids(parts: Partition) -> list[Tabloid]:
    """All row_of vectors of the given shape, ascending lexicographic."""
    return sorted(set(permutations(canonical_tabloid(parts))))


def check_partition(parts: Partition, n: int) -> None:
    """ValueError unless ``parts`` is a partition of n: positive integers,
    non-increasing, summing to n (the one partition rule)."""
    if not all(isinstance(k, (int, np.integer)) and k >= 1 for k in parts):
        raise ValueError(f"partition parts must be positive integers, got {parts}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"partition parts must not increase, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"partition {parts} does not partition {n}")


def canonical_tabloid(parts: Partition) -> Tabloid:
    """Positions filled row-wise ascending: 1..parts[0] in row 1, and so on."""
    check_partition(parts, sum(parts))
    out: list[int] = []
    for row, count in enumerate(parts, start=1):
        out.extend([row] * count)
    return tuple(out)


def tabloid_orbit(
    parts: Partition, gens: GeneratorSet
) -> tuple[tuple[Tabloid, ...], np.ndarray]:
    """One shape's sorted :func:`~qconsensus.permgroup.orbit` of its canonical
    tabloid (every tabloid under S_N) with its (V, m) image table, raising
    :class:`CapExceededError` past ``DEFAULT_GROUP_CAP`` tabloids."""
    check_partition(parts, gens.n)
    return orbit(canonical_tabloid(parts), gens, DEFAULT_GROUP_CAP)


def tabloid_count(parts: Partition) -> int:
    """Number of tabloids of shape ``parts``: n! over the rows' factorials."""
    check_partition(parts, sum(parts))
    return math.factorial(sum(parts)) // math.prod(math.factorial(k) for k in parts)


def dominance_covers(parts: Partition) -> list[tuple[Partition, int, int]]:
    """Every shape ``parts`` covers in the dominance order, with the rows
    (i, j), 0-based, between which its box moves.

    A cover moves one box from row i, the last row of its length a, to row
    j > i, the first of its length b <= a - 2 (j may be a new row), where
    j = i + 1 or b = a - 2 (Brylawski, Discrete Math. 6, 1973).  Ordered
    by i, then j.
    """
    check_partition(parts, sum(parts))
    rows = list(parts) + [0]
    out = []
    for i, a in enumerate(parts):
        if rows[i + 1] == a:
            continue
        for j in range(i + 1, len(rows)):
            b = rows[j]
            if b <= a - 2 and rows[j - 1] != b and (j == i + 1 or b == a - 2):
                moved = rows.copy()
                moved[i] -= 1
                moved[j] += 1
                out.append((tuple(k for k in moved if k), i, j))
    return out


def cover_map(
    inner_verts: tuple[Tabloid, ...], outer_verts: tuple[Tabloid, ...], i: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 map Phi from the tabloids of a shape to those of the shape it
    covers by moving a box from row i to row j (0-based, as
    :func:`dominance_covers` gives them), as the (rows, cols) of its ones:
    Phi[s, t] = 1 iff s is t with one entry moved from row i to row j.

    Both vertex lists are whole sorted tabloid sets, so each tabloid is a
    number in base ``rows`` (the covered shape's row count) and every s is
    found by one search.  Phi commutes with the action of S_N, and it is
    of full column rank (Gottlieb, Proc. AMS 17, 1966; Kantor, Math. Z.
    124, 1972): with the other rows fixed it is the inclusion matrix of
    b-subsets in (b+1)-subsets of a+b points, b < a.
    """
    inner = np.asarray(inner_verts, dtype=np.int64)
    outer = np.asarray(outer_verts, dtype=np.int64)
    rows = int(outer.max())
    place = rows ** np.arange(inner.shape[1] - 1, -1, -1, dtype=np.int64)
    cols, at = np.nonzero(inner == i + 1)
    moved = (inner - 1) @ place
    moved = moved[cols] + (j - i) * place[at]
    return np.searchsorted((outer - 1) @ place, moved), cols


@dataclass(frozen=True)
class InducedGraph:
    partition: Partition
    vertices: tuple[Tabloid, ...]
    laplacian: np.ndarray


def induced_laplacian(
    parts: Partition, gens: GeneratorSet, weights, orbit=None
) -> InducedGraph:
    """Weighted Laplacian sum_p w_p (I - P_p) of the generator action on one
    shape's orbit, ``orbit`` being :func:`tabloid_orbit` of the shape (built
    here unless the caller has it already).

    The orbit is that of the canonical tabloid, the component the
    dynamics of a canonically-labeled coefficient explores; it holds
    every tabloid when the generators produce the full symmetric group.
    """
    verts, img = tabloid_orbit(parts, gens) if orbit is None else orbit
    cols, vals = laplacian_rows(img, check_weights([weights], len(gens))[0])
    lap = np.zeros((len(verts), len(verts)))
    # weights that overflow leave inf for the eigensolve to reject
    with np.errstate(over="ignore"):
        np.add.at(lap, (np.arange(len(verts))[:, None], cols), vals)
    return InducedGraph(partition=tuple(parts), vertices=verts, laplacian=lap)


def standard_tableaux(parts: Partition) -> list[Tabloid]:
    """Standard Young tableaux of shape ``parts`` as row words (entry k sits
    in row ``word[k-1]``, like a tabloid's ``row_of``), ascending
    lexicographic."""
    out: list[Tabloid] = []
    word: list[int] = []
    filled = [0] * len(parts)

    def rec():
        if len(word) == sum(parts):
            out.append(tuple(word))
            return
        for r, size in enumerate(parts):
            if filled[r] < size and (r == 0 or filled[r] < filled[r - 1]):
                filled[r] += 1
                word.append(r + 1)
                rec()
                word.pop()
                filled[r] -= 1

    rec()
    return out


def irrep_dim(parts: Partition) -> int:
    """Number of standard tableaux of shape ``parts``, by the hook length
    formula: n! over the product of every box's hook."""
    check_partition(parts, sum(parts))
    cols = [sum(1 for r in parts if r > c) for c in range(parts[0])]
    hooks = math.prod(r - c + cols[c] - i - 1 for i, r in enumerate(parts) for c in range(r))
    return math.factorial(sum(parts)) // hooks


def _bubble_word(p: Permutation) -> list[int]:
    """Adjacent transpositions s_i = (i i+1) with p = s_{a_K} o ... o s_{a_1}
    for the returned [a_1, ..., a_K]: the swaps that bubble-sort p's images."""
    seq = list(p)
    word = []
    for end in range(len(seq) - 1, 0, -1):
        for j in range(end):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                word.append(j + 1)
    return word


def young_orthogonal(parts: Partition, perms) -> np.ndarray:
    """(m, k, k) stack of rho(p), one per permutation of ``perms``, for the
    irrep ``parts`` in Young's orthogonal form on :func:`standard_tableaux`.

    rho(s_i) maps tableau T to T / r + sqrt(1 - 1/r^2) s_i T, where r is the
    axial distance c(i+1) - c(i) of the contents c = column - row (s_i T
    is not standard when |r| = 1); rho(p) is the product along
    :func:`_bubble_word`, applied as row operations.
    """
    tabs = standard_tableaux(parts)
    index = {t: j for j, t in enumerate(tabs)}
    col = np.array([[t[:k].count(t[k]) for k in range(len(t))] for t in tabs])
    content = col - np.array(tabs)
    letters = {}
    for i in range(1, sum(parts)):
        r = content[:, i] - content[:, i - 1]
        swapped = [t[:i - 1] + (t[i], t[i - 1]) + t[i + 1:] for t in tabs]
        partner = np.array([index.get(u, j) for j, u in enumerate(swapped)])
        letters[i] = (1.0 / r[:, None], np.sqrt(1.0 - 1.0 / r**2)[:, None], partner)
    out = []
    for p in perms:
        rho = np.eye(len(tabs))
        for i in _bubble_word(p):
            diag, off, partner = letters[i]
            rho = diag * rho + off * rho[partner]
        out.append(rho)
    return np.array(out)


@dataclass(frozen=True)
class IrrepBlock:
    """One irrep's Laplacian ``sum_p w_p (I - rho(p))`` as a linear map of
    w, ``w @ coeffs`` over the (m, k, k) stack ``coeffs``, restricted to the
    orthocomplement of the vectors the generated group fixes; ``fixed``
    counts those, one per extra orbit they would have added as a zero."""

    partition: Partition
    coeffs: np.ndarray
    fixed: int


def irrep_block(parts: Partition, gens: GeneratorSet) -> IrrepBlock:
    """The :class:`IrrepBlock` of one shape's irrep under ``gens``.

    The group's fixed vectors are the null space of the stacked
    I - rho(p): singular values within ``ZERO_TOL`` of 0, as rho is
    orthogonal and each I - rho(p) has norm at most 2 (a block the group
    fixes whole has only rounding left, so a cut relative to its largest
    singular value would keep it).  rho keeps their orthocomplement
    invariant, so the block acts there in an orthonormal basis; without
    fixed vectors it keeps the tableau basis.
    """
    check_partition(parts, gens.n)
    rho = young_orthogonal(parts, gens.perms)
    eye = np.eye(rho.shape[1])
    coeffs = eye - rho
    _, sv, vt = np.linalg.svd(np.concatenate(coeffs), full_matrices=False)
    rank = int(np.sum(sv > ZERO_TOL))
    if rank < len(eye):
        basis = vt[:rank].T
        coeffs = basis.T @ coeffs @ basis
    return IrrepBlock(tuple(parts), coeffs, len(eye) - rank)
