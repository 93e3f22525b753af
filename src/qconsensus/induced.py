"""Integer partitions, row-labeled tabloids, and the graphs a generator
set induces on them.

A tabloid of shape ``parts`` is stored as a ``row_of`` tuple: position k
(1-based) sits in row ``row_of[k-1]``.  A permutation p acts by pulling
row labels along positions, ``(t . p)[k] = t[p(k)]``, which is
``permgroup.compose(t, p)``; the induced Laplacian is the rows of
``permgroup.laplacian_rows`` over an image table, and the shape
``(n-1, 1)`` graph is the site-label Laplacian sum_p w_p (I - P_p) up
to relabeling vertices by their singleton position.

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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .permgroup import (
    DEFAULT_GROUP_CAP,
    GeneratorSet,
    Permutation,
    check_d,
    check_weights,
    laplacian_matrix,
    orbit,
    proves_full_symmetric,
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
    return list(_partitions(n, max_parts))


def _partitions(n: int, max_parts: int) -> Iterator[Partition]:
    """The partitions of :func:`partitions_of`, one at a time in its order,
    so a caller can stop before listing them all."""
    if n < 1 or max_parts < 1:
        raise ValueError("n and max_parts must be positive")

    # parts tried largest first: descending lexicographic order
    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
        elif len(prefix) < max_parts:
            for part in range(min(largest, remaining), 0, -1):
                yield from rec(remaining - part, part, prefix + (part,))

    return (p for p in rec(n, n, ()) if p != (n,))


def rate_shapes(n: int, d: int) -> list[Partition]:
    """The shapes of every rate at site dimension d, listed
    (:func:`iter_rate_shapes`)."""
    return list(iter_rate_shapes(n, d))


def iter_rate_shapes(n: int, d: int) -> Iterator[Partition]:
    """The shapes of every rate at site dimension d, one at a time: at most
    d*d rows, most dominant first, so the (n-1, 1) site graph of
    lambda_synch leads.  The one shape rule."""
    check_d(d)
    return _partitions(n, d * d)


def dominance(shapes) -> np.ndarray:
    """(S, S) table of the dominance order on ``shapes``: entry (i, j) is
    True iff every prefix sum of shapes[i] is >= the matching one of
    shapes[j].  The one dominance rule; ValueError unless all the shapes
    partition the same integer."""
    shapes = list(shapes)
    if len({sum(p) for p in shapes}) > 1:
        raise ValueError("partitions must partition the same integer")
    sums = np.cumsum(_parts_table(shapes), axis=1)
    return np.all(sums[:, None] >= sums[None], axis=2)


def _parts_table(shapes) -> np.ndarray:
    """(S, rows) integer table of the shapes' parts, zero past each
    shape's last row."""
    table = np.zeros((len(shapes), max(map(len, shapes), default=0)), dtype=np.intp)
    for row, p in zip(table, shapes):
        row[:len(p)] = p
    return table


def dominates(a: Partition, b: Partition) -> bool:
    """True iff ``a`` dominates ``b`` (:func:`dominance`)."""
    return bool(dominance((a, b))[0, 1])


def enumerate_tabloids(parts: Partition) -> list[Tabloid]:
    """All row_of vectors of the given shape, ascending lexicographic
    (:func:`tabloid_sets` of the one shape, as tuples)."""
    return list(map(tuple, tabloid_sets([parts], ())[0][0].tolist()))


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
    tabloid with its (V, m) image table, raising :class:`CapExceededError`
    past ``DEFAULT_GROUP_CAP`` tabloids."""
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
    inner_verts, outer_verts, i: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 map Phi from the tabloids of a shape to those of the shape it
    covers by moving a box from row i to row j (0-based, as
    :func:`dominance_covers` gives them), as the (rows, cols) of its ones:
    Phi[s, t] = 1 iff s is t with one entry moved from row i to row j.

    Both vertex lists are whole sorted tabloid sets, so every s is found
    by one search on :func:`word_keys`.  Phi commutes with the action of
    S_N, and it is of full column rank (Gottlieb, Proc. AMS 17, 1966;
    Kantor, Math. Z. 124, 1972): with the other rows fixed it is the
    inclusion matrix of b-subsets in (b+1)-subsets of a+b points, b < a.
    """
    inner = np.asarray(inner_verts, dtype=np.uint8)
    cols, at = np.nonzero(inner == i + 1)
    moved = inner[cols]
    moved[np.arange(len(cols)), at] = j + 1
    return np.searchsorted(word_keys(outer_verts), word_keys(moved)), cols


def word_keys(words) -> np.ndarray:
    """Each row word of a (V, n) array as one n-byte string, which sorts as
    the words do: bytes compare unsigned and in order, and no entry is 0,
    so no key is cut short.  The one key of a row word; ValueError for a
    label outside 1..255, which a byte would wrap (a shape of 256 rows has
    256! tabloids, but one of 259 rows has 259 standard tableaux)."""
    words = np.asarray(words)
    if words.min(initial=1) < 1 or words.max(initial=1) > 255:
        raise ValueError("row labels must lie in 1..255")
    words = np.ascontiguousarray(words, dtype=np.uint8)
    return words.view(f"S{words.shape[1]}")[:, 0]


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
    # weights that overflow leave inf for the eigensolve to reject
    lap = laplacian_matrix(img, check_weights([weights], len(gens))[0])
    return InducedGraph(partition=tuple(parts), vertices=verts, laplacian=lap)


def standard_tableaux(shapes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard Young tableaux of every shape in ``shapes`` as one (K, n)
    array of row words (entry k sits in row ``word[k-1]``, like a
    tabloid's ``row_of``), shape by shape in the order given, each shape's
    ascending lexicographic, with the (K,) index of each word's shape and
    the (K, n) 0-based column of each entry.

    Words grow one entry at a time: each prefix is extended by every row
    that may take the next entry (shorter than its part and than the row
    above it), in ascending row order, so extending sorted prefixes keeps
    them sorted.  The entry's column is the count its row held before it.
    ValueError unless the shapes partition the same n.
    """
    shapes = [tuple(p) for p in shapes]
    n = sum(shapes[0]) if shapes else 0
    for p in shapes:
        check_partition(p, n)
    parts = _parts_table(shapes)
    shape_of = np.arange(len(shapes))
    words = cols = np.zeros((len(shapes), 0), dtype=np.intp)
    # entries placed per row, after a column for a full row above the first
    filled = np.zeros((len(shapes), parts.shape[1] + 1), dtype=np.intp)
    filled[:, 0] = n
    for _ in range(n):
        at, row = np.nonzero((filled[:, 1:] < parts[shape_of]) & (filled[:, 1:] < filled[:, :-1]))
        shape_of, filled = shape_of[at], filled[at]
        col = filled[np.arange(len(at)), row + 1]
        words, cols = np.column_stack([words[at], row + 1]), np.column_stack([cols[at], col])
        filled[np.arange(len(at)), row + 1] += 1
    return words, shape_of, cols


def tabloid_sets(shapes, perms) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (words, table) pair per shape of ``shapes``, in the order given:
    its tabloids as a (V, n) uint8 array of row words, ascending
    lexicographic, and their (V, m) image table under ``perms``.  For
    generators of S_N that is the sorted :func:`~qconsensus.permgroup.orbit`
    of the canonical tabloid, bit for bit.

    All shapes are built in one array pass.  Words grow one entry at a
    time, as in :func:`standard_tableaux`, each prefix extended by every
    row with room left in ascending order, so they stay sorted.  A
    generator's images are one column gather, found by one search on
    :func:`word_keys` per shape.  ValueError unless the shapes partition
    the same n.
    """
    shapes = [tuple(p) for p in shapes]
    if not shapes:
        return []
    n = sum(shapes[0])
    for p in shapes:
        check_partition(p, n)
    room = _parts_table(shapes).astype(np.min_scalar_type(n))
    shape_of = np.arange(len(shapes))
    words = np.zeros((len(shapes), 0), dtype=np.uint8)
    for _ in range(n):
        at, row = np.nonzero(room)
        words = np.column_stack([words[at], (row + 1).astype(np.uint8)])
        shape_of, room = shape_of[at], room[at]
        room[np.arange(len(at)), row] -= 1
    keys = word_keys(words)
    moved = [word_keys(words[:, np.subtract(p, 1)]) for p in perms]
    size = np.bincount(shape_of, minlength=len(shapes))
    out = []
    for lo, k in zip(np.cumsum(size) - size, size):
        img = np.empty((k, len(perms)), dtype=np.intp)
        for g, images in enumerate(moved):
            img[:, g] = np.searchsorted(keys[lo:lo + k], images[lo:lo + k])
        out.append((words[lo:lo + k], img))
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


def young_orthogonal(shapes, perms) -> list[np.ndarray]:
    """One (m, k, k) stack of rho(p), one per permutation of ``perms``, for
    each irrep of ``shapes``, in Young's orthogonal form on
    :func:`standard_tableaux`.

    rho(s_i) maps tableau T to T / r + sqrt(1 - 1/r^2) s_i T, where r is the
    axial distance c(i+1) - c(i) of the contents c = column - row; s_i T,
    T's row word with entries i and i + 1 swapped, is standard iff
    |r| > 1.  Contents, axial distances and the partner s_i T of every
    letter are computed for all the shapes at once: words of different
    shapes never coincide, so one search on the sorted :func:`word_keys`
    of every tableau finds them all.  rho(p) is the product along
    :func:`_bubble_word`, applied as row operations shape by shape in
    place, each in its row of one preallocated (m, k, k) stack.
    """
    words, shape_of, cols = standard_tableaux(shapes)
    total, n = words.shape
    keys = word_keys(words)
    size = np.bincount(shape_of, minlength=len(shapes))
    start = np.cumsum(size) - size
    # letter i reads column i - 1 of r, its axial distance
    content = cols + 1 - words
    r = (content[:, 1:] - content[:, :-1]).T
    # row i - 1 of swaps reads a word with entries i and i + 1 exchanged,
    # gathered straight into (letter, tableau, entry) order; a swap that
    # is not standard is in no shape and keeps its own row
    swaps = np.arange(n) + np.eye(n - 1, n, dtype=np.intp) - np.eye(n - 1, n, 1, dtype=np.intp)
    gathered = words.astype(np.uint8)[np.arange(total)[:, None], swaps[:, None]]
    swapped = word_keys(gathered.reshape(-1, n))
    order = np.argsort(keys)
    found = order.take(np.searchsorted(keys, swapped, sorter=order), mode="clip")
    partner = np.where(np.abs(r) > 1, found.reshape(n - 1, total), np.arange(total))
    diag, off = 1.0 / r[:, :, None], np.sqrt(1.0 - 1.0 / r**2)[:, :, None]
    bubbles = [_bubble_word(p) for p in perms]
    out = []
    for lo, k in zip(start, size):
        # letter i of this shape is row i - 1 of each, partners shape-local
        keep, mix, swap = diag[:, lo:lo + k], off[:, lo:lo + k], partner[:, lo:lo + k] - lo
        stack = np.zeros((len(bubbles), k, k))
        stack[:, np.arange(k), np.arange(k)] = 1.0
        for rho, word in zip(stack, bubbles):
            for i in word:
                np.add(keep[i - 1] * rho, mix[i - 1] * rho[swap[i - 1]], out=rho)
        out.append(stack)
    return out


@dataclass(frozen=True)
class IrrepBlock:
    """One irrep's Laplacian ``sum_p w_p (I - rho(p))`` as a linear map of
    w, ``w @ coeffs`` over the (m, k, k) stack ``coeffs``, restricted to the
    orthocomplement of the vectors the generated group fixes; ``fixed``
    counts those, one per extra orbit they would have added as a zero."""

    partition: Partition
    coeffs: np.ndarray
    fixed: int


def irrep_blocks(shapes, gens: GeneratorSet) -> tuple[IrrepBlock, ...]:
    """The :class:`IrrepBlock` of each shape's irrep under ``gens``, all
    built by one :func:`young_orthogonal` call.

    When :func:`~qconsensus.permgroup.proves_full_symmetric` holds (asked
    once) and an irrep is not the trivial one (n), the group is S_N, which
    fixes no vector of it: the block is I - rho(p) in the tableau basis,
    with no decomposition.  Otherwise the group's fixed vectors are the
    null space of the stacked I - rho(p): singular values within
    ``ZERO_TOL`` of 0, as rho is orthogonal and each I - rho(p) has norm at
    most 2 (a block the group fixes whole has only rounding left, so a cut
    relative to its largest singular value would keep it).  rho keeps
    their orthocomplement invariant, so the block acts there in an
    orthonormal basis; without fixed vectors it keeps the tableau basis.
    """
    shapes = [tuple(p) for p in shapes]
    for p in shapes:
        check_partition(p, gens.n)
    full = proves_full_symmetric(gens)
    blocks = []
    for parts, rho in zip(shapes, young_orthogonal(shapes, gens.perms)):
        eye = np.eye(rho.shape[1])
        coeffs = np.subtract(eye, rho, out=rho)
        if len(parts) > 1 and full:
            blocks.append(IrrepBlock(parts, coeffs, 0))
            continue
        _, sv, vt = np.linalg.svd(np.concatenate(coeffs), full_matrices=False)
        rank = int(np.sum(sv > ZERO_TOL))
        if rank < len(eye):
            basis = vt[:rank].T
            coeffs = basis.T @ coeffs @ basis
        blocks.append(IrrepBlock(parts, coeffs, len(eye) - rank))
    return tuple(blocks)
