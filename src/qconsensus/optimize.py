"""Weight optimization on the budget face and Pareto sweeps.

The budget charges each generator its effective cycle length, so the
feasible set is a scaled simplex.  Rates scale linearly with weights,
which pins every optimum to the face sum(l_i w_i) = D; both the grid
scan and the pattern search therefore work in simplex coordinates
u_i = l_i w_i / D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .induced import irrep_block, rate_shapes
from .permgroup import GeneratorSet
from .spectra import batch_rates

CHUNK = 256
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


@dataclass(frozen=True)
class ParetoPoint:
    weights: tuple[float, ...]
    lambda_cons: float
    lambda_synch: float
    on_front: bool = False


class _RateEvaluator:
    """Batched (lambda_cons, lambda_synch) over the irrep blocks of one topology."""

    def __init__(self, gens: GeneratorSet, d: int = 2, synch_only: bool = False):
        shapes = rate_shapes(gens.n, d)[:1] if synch_only else rate_shapes(gens.n, d)
        self.blocks = [irrep_block(p, gens) for p in shapes]

    def rates(self, w_batch: np.ndarray):
        return batch_rates(self.blocks, w_batch)[1:]


def _compositions(total: int, parts: int):
    """All nonnegative integer compositions, ascending lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def front_mask(cons: np.ndarray, synch: np.ndarray, tol: float) -> np.ndarray:
    """Non-dominated mask, maximizing both coordinates, ties kept.

    Sweeping synch downward, the points within ``tol`` of the largest
    synch left form one tie group; a member stays if its cons is within
    ``tol`` of the group's best and more than ``tol`` above every cons of
    the groups before.  With ``tol`` 0 this is exact Pareto dominance.
    """
    k = len(cons)
    mask = np.zeros(k, dtype=bool)
    order = np.lexsort((-cons, -synch))
    best_above = -np.inf
    i = 0
    while i < k:
        j = i
        while j < k and synch[order[j]] >= synch[order[i]] - tol:
            j += 1
        group = order[i:j]
        group_best = cons[group].max()
        mask[group[(cons[group] >= group_best - tol) & (cons[group] > best_above + tol)]] = True
        best_above = max(best_above, group_best)
        i = j
    return mask


def pareto_scan(
    gens: GeneratorSet,
    constraint: BudgetConstraint,
    resolution: int | None = None,
    d: int = 2,
) -> list[ParetoPoint]:
    """Rates over a uniform simplex grid on the budget face.

    Rates are evaluated ``CHUNK`` points at a time, which bounds the
    memory of one batch; output order is lexicographic in the grid
    composition index.
    """
    m = len(gens)
    if resolution is None:
        resolution = 200 if m <= 3 else 60
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    lengths = np.asarray(constraint.lengths, dtype=float)
    grid = np.array(list(_compositions(resolution, m)), dtype=float)
    w_all = constraint.budget * grid / (resolution * lengths[None, :])
    ev = _RateEvaluator(gens, d=d)
    pieces = [ev.rates(w_all[i:i + CHUNK]) for i in range(0, len(w_all), CHUNK)]
    cons, synch = (np.concatenate(x) for x in zip(*pieces))
    mask = front_mask(cons, synch, TIE_TOL * constraint.budget)
    return [
        ParetoPoint(
            weights=tuple(float(x) for x in w_all[i]),
            lambda_cons=float(cons[i]),
            lambda_synch=float(synch[i]),
            on_front=bool(mask[i]),
        )
        for i in range(len(grid))
    ]


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
    The starts advance in lockstep, one batched rate evaluation per
    round over every live start's transfers, each start keeping its own
    step.  Deterministic for a fixed seed.

    Rate landscapes here routinely have flat ridges (an inactive
    spectral branch can absorb weight changes without moving the
    minimum), so a polish phase walks along value-preserving directions
    to the balanced representative: every start within ``TIE_TOL`` times
    the budget of the best value (so the optimum scales with it as the
    rates do) is polished, again in lockstep, and among the equally fast
    results the one of least Euclidean norm is returned, the first start
    winning an exact tie.  Besides the transfers, each polish round
    tries the pattern moves ``2u - h`` (Hooke & Jeeves) from the points
    one and two acceptances back, so a walk that zigzags along a ridge
    speeds up instead of crawling at a small step; an accepted pattern
    move keeps the step.
    """
    if objective not in ("consensus", "synchronization"):
        raise ValueError(f"unknown objective {objective!r}")
    if constraint.budget <= 0:
        raise ValueError("budget must be positive")
    m = len(gens)
    lengths = np.asarray(constraint.lengths, dtype=float)
    ev = _RateEvaluator(gens, d=d, synch_only=(objective == "synchronization"))
    pick = 0 if objective == "consensus" else 1

    def f_batch(u_batch: np.ndarray) -> np.ndarray:
        w = constraint.budget * u_batch / lengths[None, :]
        return ev.rates(w)[pick]

    def f_each(batches: list[np.ndarray]) -> list[np.ndarray]:
        """One batched evaluation of every live start's candidates."""
        ends = np.cumsum([len(b) for b in batches])
        vals = f_batch(np.concatenate(batches)) if ends[-1] else np.empty(0)
        return np.split(vals, ends[:-1])

    rng = np.random.default_rng(seed)
    starts = [np.full(m, 1.0 / m)]
    starts += [rng.dirichlet(np.ones(m)) for _ in range(N_STARTS - 1)]

    moves = [(i, j) for i in range(m) for j in range(m) if i != j]

    def transfers(u: np.ndarray, step: float) -> np.ndarray:
        cands = []
        for i, j in moves:
            if u[j] >= step:
                c = u.copy()
                c[i] += step
                c[j] -= step
                cands.append(c / c.sum())
        return np.array(cands) if cands else np.empty((0, m))

    us = list(starts)
    vs = [float(x) for x in f_batch(np.array(starts))]
    steps = [0.25] * len(starts)
    live = list(range(len(starts)))
    while live:
        batches = [transfers(us[s], steps[s]) for s in live]
        for s, batch, vals in zip(live, batches, f_each(batches)):
            if len(batch):
                k = int(np.argmax(vals))
                if vals[k] > vs[s]:
                    us[s] = batch[k]
                    vs[s] = float(vals[k])
                    steps[s] = min(steps[s] * 2.0, 0.5)
                    continue
            steps[s] *= 0.5
        live = [s for s in live if steps[s] >= STEP_FLOOR]

    # polish, in lockstep, every start tied with the best: each drifts
    # along flat directions toward its least-norm optimum
    tol = TIE_TOL * constraint.budget
    best_v = max(vs)
    tied = [s for s in range(len(us)) if vs[s] >= best_v - tol]
    norms = [float(np.sum((u / lengths) ** 2)) for u in us]
    backs = {s: [] for s in tied}  # the points one and two acceptances back
    steps = [0.25] * len(us)
    live = list(tied)
    while live:
        batches, n_transfers = [], []
        for s in live:
            batch = transfers(us[s], steps[s])
            n_transfers.append(len(batch))
            patterns = [c / c.sum() for c in (2.0 * us[s] - h for h in backs[s])
                        if np.all(c >= 0)]
            batches.append(np.concatenate([batch, patterns]) if patterns else batch)
        for s, batch, n_t, vals in zip(live, batches, n_transfers, f_each(batches)):
            if len(batch):
                cand = np.sum((batch / lengths[None, :]) ** 2, axis=1)
                keep = (vals >= best_v - tol) & (cand < norms[s] - 1e-15)
                if np.any(keep):
                    idx = np.where(keep)[0]
                    k = idx[int(np.argmin(cand[idx]))]
                    backs[s] = [us[s]] + backs[s][:1]
                    us[s], vs[s], norms[s] = batch[k], float(vals[k]), float(cand[k])
                    best_v = max(best_v, vs[s])
                    if k < n_t:
                        steps[s] = min(steps[s] * 2.0, 0.5)
                    continue
            steps[s] *= 0.5
        live = [s for s in live if steps[s] >= STEP_FLOOR]
    best = min((s for s in tied if vs[s] >= best_v - tol), key=lambda s: norms[s])
    best_u = us[best]
    final_v = float(f_batch(best_u[None, :])[0])

    w = constraint.budget * best_u / lengths
    over = constraint.cost(w) / constraint.budget
    if over > 1.0:
        w = w / over
    return tuple(float(x) for x in w), final_v
