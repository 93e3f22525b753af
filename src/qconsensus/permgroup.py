"""Permutations of {1..N} and the groups they generate.

Permutations are plain tuples of 1-based images: ``p[i-1]`` is the image
of ``i``.  Composition follows the usual function convention,
``compose(p, q)`` applies ``q`` first.  Cycle notation reads left to
right, so ``(1 2 3)`` sends 1 to 2, 2 to 3 and 3 back to 1.

The effective cycle length of a permutation (the summed lengths of its
nontrivial cycles) is the per-generator cost coefficient in the weight
budget used elsewhere in this package.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

Permutation = tuple[int, ...]

DEFAULT_GROUP_CAP = 10080


class CapExceededError(RuntimeError):
    """Raised by :func:`check_cap` when a predicted size is past its cap."""


def check_cap(what: str, size, cap: int) -> None:
    """Raise :class:`CapExceededError` "<what> <size> exceeds cap <cap>" past
    ``cap``: the one size rule, given a size predicted before allocating.
    An int size prints exactly, a float ratio to 15 significant digits."""
    if size > cap:
        shown = f"{size:.15g}" if isinstance(size, float) else size
        raise CapExceededError(f"{what} {shown} exceeds cap {cap}")


def capped(items, what: str, cap: int, size):
    """Each item of ``items`` in turn, handed on only once the running
    total of ``size(item)`` passes :func:`check_cap`: a stream past its
    cap stops before that item is handed on or a later one is read."""
    total = 0
    for item in items:
        total += size(item)
        check_cap(what, total, cap)
        yield item


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def is_valid(p: Permutation) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def from_cycles(n: int, cycles: list[list[int]]) -> Permutation:
    """Build a permutation of {1..n} from disjoint cycles.

    Entries not mentioned in any cycle are fixed points.  Raises
    ``ValueError`` for out-of-range or repeated entries.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    img = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for a in cyc:
            if not 1 <= a <= n:
                raise ValueError(f"cycle entry {a} out of range 1..{n}")
            if a in seen:
                raise ValueError(f"cycle entry {a} appears twice")
            seen.add(a)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b
    return tuple(img)


def to_cycles(p: Permutation) -> list[list[int]]:
    """Nontrivial cycles of ``p``, each starting at its smallest entry."""
    out: list[list[int]] = []
    done: set[int] = set()
    for start in range(1, len(p) + 1):
        if start in done:
            continue
        cyc = [start]
        done.add(start)
        a = p[start - 1]
        while a != start:
            cyc.append(a)
            done.add(a)
            a = p[a - 1]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(x) = p(q(x)): apply ``q`` first."""
    if len(p) != len(q):
        raise ValueError("degree mismatch")
    return tuple(p[q[i] - 1] for i in range(len(p)))


def effective_cycle_length(p: Permutation) -> int:
    """Summed length of all cycles of length >= 2 (fixed points cost nothing)."""
    return sum(len(c) for c in to_cycles(p))


def parity(p: Permutation) -> int:
    """+1 for even permutations, -1 for odd."""
    sign = 1
    for c in to_cycles(p):
        if len(c) % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered generators with stable weight-label coordinates.

    The order fixes the coordinate order of every weight vector handed
    to the graph, spectra and optimizer layers.
    """

    n: int
    perms: tuple[Permutation, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"w{i+1}" for i in range(len(self.perms)))
            )
        if len(self.labels) != len(self.perms):
            raise ValueError("one label per generator required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("weight labels must be unique")
        ident = identity(self.n)
        for p in self.perms:
            if len(p) != self.n or not is_valid(p):
                raise ValueError(f"not a permutation of 1..{self.n}: {p}")
            if p == ident:
                raise ValueError("identity is not allowed as a generator")

    def __len__(self) -> int:
        return len(self.perms)

    def cycle_costs(self) -> tuple[int, ...]:
        return tuple(effective_cycle_length(p) for p in self.perms)


def check_weights(w_batch, m: int) -> np.ndarray:
    """A (b, m) batch of weight rows for m generators as a float array, or
    ValueError unless finite, then nonnegative, then m to a row.

    The one weight rule: every layer that reads weights checks them here.
    A reader of one vector checks ``[weights]`` and takes row 0, so that
    it refuses a batch.
    """
    w = np.asarray(w_batch, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if w.ndim != 2 or w.shape[1] != m:
        raise ValueError("one weight per generator required")
    return w


def check_d(d) -> None:
    """ValueError unless the site dimension d is an integer >= 2 (the one d rule)."""
    if not isinstance(d, (int, np.integer)):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 2:
        raise ValueError("d must be >= 2")


def generator_set(
    n: int,
    cycles: list[list[list[int]]],
    labels: list[str] | None = None,
) -> GeneratorSet:
    """Convenience constructor from cycle notation, one cycle list per generator."""
    perms = tuple(from_cycles(n, c) for c in cycles)
    return GeneratorSet(n=n, perms=perms, labels=tuple(labels) if labels else ())


def orbit(
    x: tuple[int, ...], gens: GeneratorSet, cap: int = DEFAULT_GROUP_CAP
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Sorted orbit of the word ``x`` under y -> compose(y, p), p in the
    generators, and its (V, m) image table: generator g moves point i to
    ``img[i, g]``.  The one closure: a group is the orbit of the identity,
    a shape's graph that of its canonical tabloid.  Past ``cap`` points
    raises :class:`CapExceededError`."""
    if len(x) != gens.n:
        raise ValueError("degree mismatch")
    # compose(y, p) is y read at p's images: one itemgetter per generator
    movers = [itemgetter(*(i - 1 for i in p)) for p in gens.perms]
    images: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    queue: deque[tuple[int, ...]] = deque([tuple(x)])
    while queue:
        y = queue.popleft()
        if y in images:
            continue
        if len(images) == cap:
            check_cap(f"orbit of {tuple(x)} size at least", cap + 1, cap)
        images[y] = [move(y) for move in movers]
        queue.extend(images[y])
    points = sorted(images)
    index = {y: i for i, y in enumerate(points)}
    img = np.array([[index[u] for u in images[y]] for y in points], dtype=np.intp)
    return tuple(points), img


def laplacian_rows(img: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """The (V, m + 1) columns and values of every row of sum_g w_g (I - P_g)
    over a (V, m) image table (as :func:`orbit` returns it): column g < m
    is ``img[i, g]`` with -w_g (0 where g fixes i), column m is i with the
    diagonal, the moved weights summed in generator order.  The one
    Laplacian rule; a sum that overflows is left inf for the caller."""
    idx = np.arange(len(img))
    vals = np.where(img != idx[:, None], -np.asarray(w, dtype=float), 0.0)
    diag = np.zeros(len(img))
    with np.errstate(over="ignore"):
        for col in vals.T:
            diag -= col
    return np.column_stack([img, idx]), np.column_stack([vals, diag])


def laplacian_matrix(img: np.ndarray, w) -> np.ndarray:
    """The dense (V, V) sum_g w_g (I - P_g): the :func:`laplacian_rows` of
    ``img`` scattered in row order, so repeated columns add in generator
    order; an entry that overflows is left inf for the caller."""
    cols, vals = laplacian_rows(img, w)
    lap = np.zeros((len(img), len(img)))
    with np.errstate(over="ignore"):
        np.add.at(lap, (np.arange(len(img))[:, None], cols), vals)
    return lap


def generate_group(
    gens: GeneratorSet, cap: int = DEFAULT_GROUP_CAP
) -> set[Permutation]:
    """The group the generators generate, as the :func:`orbit` of the
    identity; past ``cap`` elements raises :class:`CapExceededError`."""
    return set(orbit(identity(gens.n), gens, cap)[0])


def proves_full_symmetric(gens: GeneratorSet) -> bool:
    """True if the transpositions among the generators prove that they
    generate all n! permutations; False proves nothing.

    With (a b) in the group G, so is g (a b) g^-1 = (g(a) g(b)) for every
    g in G: the orbit of the pair {a, b} under the generators lists
    transpositions of G.  When those of every transposition generator
    connect all n sites (union-find), they generate S_n (Wielandt, Finite
    Permutation Groups, 1964, section 13).  At most n(n-1)/2 pairs are
    visited; no group element is built.
    """
    moved = (tuple(i for i, image in enumerate(p, 1) if image != i) for p in gens.perms)
    todo = [pair for pair in moved if len(pair) == 2]
    seen = set(todo)
    root = list(range(gens.n + 1))
    parts = gens.n
    while todo:
        a, b = todo.pop()
        for p in gens.perms:
            ab = (p[a - 1], p[b - 1]) if p[a - 1] < p[b - 1] else (p[b - 1], p[a - 1])
            if ab not in seen:
                seen.add(ab)
                todo.append(ab)
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a != b:
            root[a] = b
            parts -= 1
    return parts == 1


def is_full_symmetric(gens: GeneratorSet) -> bool:
    """True iff the generators generate all n! permutations: at once when
    :func:`proves_full_symmetric` holds, else by the closure, whose n! is
    capped at ``DEFAULT_GROUP_CAP``."""
    if proves_full_symmetric(gens):
        return True
    full = math.factorial(gens.n)
    check_cap(f"{gens.n}! =", full, DEFAULT_GROUP_CAP)
    return len(generate_group(gens)) == full
