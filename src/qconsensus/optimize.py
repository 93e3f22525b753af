"""Weight optimization on the budget face and Pareto sweeps.

The budget charges each generator its effective cycle length, so the
feasible set is a scaled simplex.  Rates scale linearly with weights,
which pins every optimum to the face sum(l_i w_i) = D; both the grid
scan and the pattern search therefore work in simplex coordinates
u_i = l_i w_i / D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .induced import irrep_dim, iter_rate_shapes
from .permgroup import GeneratorSet, check_cap
from .spectra import RATE_BLOCK_CAP, batch_rates, rate_structure

CHUNK = 256
GRID_CAP = 2**20
N_STARTS = 20
STEP_FLOOR = 1e-8
# rates within TIE_TOL times the budget count as equal, so ties among
# optima and on the Pareto front do not hinge on last-bit noise
TIE_TOL = 1e-11


@dataclass(frozen=True)
class BudgetConstraint:
    lengths: tuple[int, ...]
    budget: float

    @classmethod
    def for_generators(cls, gens: GeneratorSet, budget: float = 1.0) -> "BudgetConstraint":
        return cls(lengths=gens.cycle_costs(), budget=float(budget))

    def cost(self, weights) -> float:
        return float(np.dot(self.lengths, weights))

    def is_feasible(self, weights) -> bool:
        w = np.asarray(weights, dtype=float)
        return bool(np.all(w >= -1e-12) and self.cost(w) <= self.budget + 1e-12)


class _RateEvaluator:
    """Batched (lambda_cons, lambda_synch) over the irrep blocks of one
    topology, in batches of at most ``rows`` weight rows.  A batch's
    Laplacian entries, ``rows`` times the blocks' summed ``irrep_dim``
    squared, are capped at ``RATE_BLOCK_CAP`` as the shapes are listed,
    so an oversized batch is refused before any block is built."""

    def __init__(self, gens: GeneratorSet, d: int = 2, synch_only: bool = False,
                 rows: int = 1, what: str = "rate batch entries"):
        shapes = itertools.islice(iter_rate_shapes(gens.n, d), 1 if synch_only else None)

        def capped():
            size = 0
            for p in shapes:
                size += rows * irrep_dim(p) ** 2
                check_cap(what, size, RATE_BLOCK_CAP)
                yield p

        self.structure = rate_structure(gens, capped())

    def rates(self, w_batch: np.ndarray, floor=-np.inf):
        return batch_rates(self.structure, w_batch, floor)[1:]


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer compositions as a (count, parts) array,
    ascending lexicographic: the gaps around parts - 1 bars set among
    total + parts - 1 slots, bar positions in lexicographic order."""
    from itertools import combinations

    bars = np.array(list(combinations(range(total + parts - 1), parts - 1)), dtype=np.intp)
    return np.diff(bars, axis=1, prepend=-1, append=total + parts - 1) - 1


def front_mask(cons: np.ndarray, synch: np.ndarray, tol: float) -> np.ndarray:
    """Non-dominated mask, maximizing both coordinates, ties kept.

    Sweeping synch downward, the points within ``tol`` of the largest
    synch left form one tie group; a member stays if its cons is within
    ``tol`` of the group's best and more than ``tol`` above every cons of
    the groups before.  With ``tol`` 0 this is exact Pareto dominance.
    """
    order = np.lexsort((-cons, -synch))
    c, s = cons[order], synch[order]
    # the group a point heads would end at the first synch more than tol
    # below its own; following the ends from 0 lists the group heads
    end = np.searchsorted(-s, tol - s, side="right")
    heads = [0]
    while heads[-1] < len(s):
        heads.append(int(end[heads[-1]]))
    heads = np.array(heads)
    group = np.repeat(np.arange(len(heads) - 1), np.diff(heads))
    group_best = np.maximum.reduceat(c, heads[:-1])
    best_above = np.concatenate([[-np.inf], np.maximum.accumulate(group_best)[:-1]])
    mask = np.zeros(len(c), dtype=bool)
    mask[order] = (c >= group_best[group] - tol) & (c > best_above[group] + tol)
    return mask


def pareto_scan(
    gens: GeneratorSet,
    constraint: BudgetConstraint,
    resolution: int | None = None,
    d: int = 2,
) -> tuple[np.ndarray, ...]:
    """Rates over a uniform simplex grid on the budget face: the (P, m)
    weights, lambda_cons, lambda_synch and the :func:`front_mask` of the
    P grid points, in lexicographic order of the grid compositions.

    Rates are evaluated ``CHUNK`` points at a time; P = C(resolution +
    m - 1, m - 1) is checked against ``GRID_CAP``, then a chunk's
    Laplacian entries, min(CHUNK, P) times the blocks' summed
    ``irrep_dim`` squared, against ``RATE_BLOCK_CAP``, before the grid or
    any block is built.
    """
    m = len(gens)
    if resolution is None:
        resolution = 200 if m <= 3 else 60
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    points = math.comb(resolution + m - 1, m - 1)
    check_cap("grid points", points, GRID_CAP)
    ev = _RateEvaluator(gens, d, rows=min(CHUNK, points), what="pareto chunk entries")
    lengths = np.asarray(constraint.lengths, dtype=float)
    grid = _compositions(resolution, m)
    # every grid weight is at most D / length, so dividing first cannot overflow
    w_all = constraint.budget * (grid / (resolution * lengths[None, :]))
    pieces = [ev.rates(w_all[i:i + CHUNK]) for i in range(0, len(w_all), CHUNK)]
    cons, synch = (np.concatenate(x) for x in zip(*pieces))
    return w_all, cons, synch, front_mask(cons, synch, TIE_TOL * constraint.budget)


def maximize_rate(
    gens: GeneratorSet,
    constraint: BudgetConstraint,
    objective: str = "consensus",
    d: int = 2,
    seed: int = 0,
) -> tuple[tuple[float, ...], float]:
    """Best-found weights for one rate objective on the budget face.

    Multi-start pattern search over simplex coordinates from ``N_STARTS``
    starts: all pairwise mass transfers at the current step size,
    doubling on success and halving on failure down to ``STEP_FLOOR``.
    The starts advance in whole-array rounds: the state is one (starts,
    m) array of points with their values and own step sizes, and each
    round stacks every live start's moves, masks the infeasible ones and
    evaluates the rest in one batched rate call.  Deterministic for a
    fixed seed.

    Rate landscapes here routinely have flat ridges (an inactive
    spectral branch can absorb weight changes without moving the
    minimum), so a polish phase walks along value-preserving directions
    to the balanced representative: every start within ``TIE_TOL`` times
    the budget of the best value (so the optimum scales with it as the
    rates do) is polished, in whole-array rounds as well, and among the
    equally fast results the one of least Euclidean norm is returned, the
    first start winning an exact tie.  A polish round accepts a move that
    shortens the norm by more than 1e-15 and whose value is tied with the
    best as it stood when the round began.  Only the moves that shorten
    the norm are evaluated, as no other can be accepted, so a round
    without one makes no rate call.  Besides the transfers, the polish
    tries the pattern moves ``2u - h`` (Hooke & Jeeves) from the points
    one and two acceptances back, so a walk that zigzags along a ridge
    speeds up instead of crawling at a small step; an accepted pattern
    move keeps the step.  The Laplacian entries of the largest round,
    its rows times the blocks' summed ``irrep_dim`` squared, are capped at
    ``RATE_BLOCK_CAP`` before any block is built.

    The consensus objective passes :func:`~qconsensus.spectra.batch_rates`
    a floor per row: in a search round the start's value, as a move is
    accepted only above it, and in a polish round the best value less
    the tie tolerance, as a move is kept only at or above it.  A row
    whose rate is proved strictly below its floor is solved no further
    and reads -inf; it could be neither accepted nor kept, so the result
    is bit for bit that of solving every row.
    """
    if objective not in ("consensus", "synchronization"):
        raise ValueError(f"unknown objective {objective!r}")
    if constraint.budget <= 0:
        raise ValueError("budget must be positive")
    m = len(gens)
    lengths = np.asarray(constraint.lengths, dtype=float)
    # a round's rows: every start's transfers and two pattern moves
    ev = _RateEvaluator(gens, d, synch_only=(objective == "synchronization"),
                        rows=N_STARTS * (m * (m - 1) + 2), what="optimizer round entries")
    pick = 0 if objective == "consensus" else 1

    def f_batch(u_batch: np.ndarray, floor=-np.inf) -> np.ndarray:
        w = constraint.budget * u_batch / lengths[None, :]
        # the floor bounds lambda_cons, so only that objective passes it
        return ev.rates(w, floor if pick == 0 else -np.inf)[pick]

    rng = np.random.default_rng(seed)
    u = np.array([np.full(m, 1.0 / m)] + [rng.dirichlet(np.ones(m)) for _ in range(N_STARTS - 1)])
    v = f_batch(u)
    step = np.full(N_STARTS, 0.25)
    backs = np.full((N_STARTS, 2, m), np.nan)  # the points one and two acceptances back
    # transfer t moves mass from coordinate give[t] to take[t], in (i, j) order
    take, give = np.nonzero(~np.eye(m, dtype=bool))
    shift = np.eye(m)[take] - np.eye(m)[give]

    def candidates(live: np.ndarray):
        """Every live start's (m(m-1)+2, m) rows, the transfers then the
        pattern moves, and the mask of the feasible ones."""
        pattern = 2.0 * u[live, None] - backs[live]
        cands = np.concatenate([u[live, None] + step[live, None, None] * shift, pattern], axis=1)
        cands /= cands.sum(axis=2, keepdims=True)
        feasible = np.concatenate(
            [u[live][:, give] >= step[live, None], np.all(pattern >= 0, axis=2)], axis=1)
        return cands, feasible

    def values(cands: np.ndarray, feasible: np.ndarray, floor) -> np.ndarray:
        """The feasible rows' values in one batched rate call, none if no
        row is feasible; an infeasible row reads -inf, and so may a row
        whose value is proved to lie below its ``floor`` (a scalar, or one
        per feasible row)."""
        vals = np.full(feasible.shape, -np.inf)
        if feasible.any():
            vals[feasible] = f_batch(cands[feasible], floor)
        return vals

    def advance(live, up, k, cands, vals) -> np.ndarray:
        """Move the starts ``live[up]`` to their row ``k``, doubling the step
        after a transfer and halving it for the starts that stay; returns
        the starts still at or above ``STEP_FLOOR``."""
        s, k = live[up], k[up]
        u[s], v[s] = cands[up, k], vals[up, k]
        step[s] = np.where(k < len(shift), np.minimum(step[s] * 2.0, 0.5), step[s])
        step[live[~up]] *= 0.5
        return live[step[live] >= STEP_FLOOR]

    live = np.arange(N_STARTS)
    while len(live):
        cands, feasible = candidates(live)
        # a move is accepted only above its start's value
        vals = values(cands, feasible, v[live][np.nonzero(feasible)[0]])
        k = vals.argmax(axis=1)
        live = advance(live, vals.max(axis=1) > v[live], k, cands, vals)

    # polish every start tied with the best: each drifts along flat
    # directions toward its least-norm optimum
    tol = TIE_TOL * constraint.budget
    best_v = v.max()
    tied = v >= best_v - tol
    norm = np.sum((u / lengths) ** 2, axis=1)
    step[:] = 0.25
    live = np.flatnonzero(tied)
    while len(live):
        cands, feasible = candidates(live)
        cand = np.sum((cands / lengths) ** 2, axis=2)
        # a move that does not shorten the norm is never kept, so it is
        # not evaluated and reads -inf
        vals = values(cands, feasible & (cand < norm[live, None] - 1e-15), best_v - tol)
        keep = vals >= best_v - tol
        k = np.where(keep, cand, np.inf).argmin(axis=1)
        up = keep.any(axis=1)
        s = live[up]
        backs[s] = np.stack([u[s], backs[s, 0]], axis=1)
        norm[s] = cand[up, k[up]]
        live = advance(live, up, k, cands, vals)
        best_v = np.max(v[s], initial=best_v)
    best_u = u[np.where(tied & (v >= best_v - tol), norm, np.inf).argmin()]
    final_v = float(f_batch(best_u[None, :])[0])

    w = constraint.budget * best_u / lengths
    over = constraint.cost(w) / constraint.budget
    if over > 1.0:
        w = w / over
    return tuple(float(x) for x in w), final_v
