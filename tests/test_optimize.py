"""Budget-face scanning and rate maximization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qconsensus.induced import induced_laplacian, rate_shapes, tabloid_orbit
from qconsensus.optimize import (
    CHUNK,
    TIE_TOL,
    BudgetConstraint,
    front_mask,
    maximize_rate,
    pareto_scan,
    _RateEvaluator,
    _compositions,
)
from qconsensus.permgroup import generator_set
from qconsensus.spectra import convergence_rates, eigenvalues, lambda2_re_batch


def g13():
    return generator_set(3, [[[1, 2, 3]], [[1, 2]]], ["w123", "w12"])


def g23():
    return generator_set(
        3, [[[1, 2, 3]], [[3, 2, 1]], [[1, 2]]], ["w123", "w321", "w12"]
    )


def g33():
    return generator_set(3, [[[1, 2]], [[2, 3]]], ["w12", "w23"])


def g14():
    return generator_set(
        4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]], ["w1234", "w12", "w34"]
    )


def g5_4():
    return generator_set(
        4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]], [[1, 3, 2]], [[2, 4]]],
        ["w1234", "w12", "w34", "w132", "w24"],
    )


# --- budget bookkeeping ---


def test_costs_from_generators():
    assert BudgetConstraint.for_generators(g13()).lengths == (3, 2)
    assert BudgetConstraint.for_generators(g14()).lengths == (4, 2, 2)


def test_cost_and_feasibility():
    c = BudgetConstraint((3, 2), 1.0)
    assert_allclose(c.cost([0.2, 0.2]), 1.0)
    assert c.is_feasible([0.2, 0.2])
    assert c.is_feasible([0.1, 0.1])
    assert not c.is_feasible([0.2, 0.21])
    assert not c.is_feasible([-0.01, 0.3])


def test_feasibility_boundary_tolerance():
    c = BudgetConstraint((3, 2), 1.0)
    assert c.is_feasible([0.2, 0.2 + 1e-14])


# --- non-dominated filtering ---


def test_front_mask_toy_cloud():
    cons = np.array([1.0, 2.0, 0.0, 1.0, 0.5])
    synch = np.array([1.0, 0.0, 2.0, 0.0, 0.5])
    mask = front_mask(cons, synch, 0.0)
    assert list(mask) == [True, True, True, False, False]


def test_front_mask_keeps_ties():
    cons = np.array([1.0, 1.0, 0.5])
    synch = np.array([2.0, 2.0, 1.0])
    assert list(front_mask(cons, synch, 0.0)) == [True, True, False]


def test_front_mask_ties_within_tolerance():
    # last-bit differences tie: neither point dominates the other
    cons = np.array([1.0, 1.0 + 1e-14, 0.5])
    synch = np.array([2.0 - 1e-14, 2.0, 1.0])
    assert list(front_mask(cons, synch, 0.0)) == [False, True, False]
    assert list(front_mask(cons, synch, 1e-11)) == [True, True, False]
    # a lead larger than the tolerance still dominates
    assert list(front_mask(cons, synch, 1e-15)) == [False, True, False]


def brute_force_front(cons, synch):
    n = len(cons)
    out = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if (cons[j] >= cons[i] and synch[j] >= synch[i]
                    and (cons[j] > cons[i] or synch[j] > synch[i])):
                out[i] = False
                break
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12345))
def test_front_mask_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 60)
    # quantized coordinates force plenty of exact ties
    cons = rng.integers(0, 6, n) / 4.0
    synch = rng.integers(0, 6, n) / 4.0
    assert np.array_equal(front_mask(cons, synch, 0.0), brute_force_front(cons, synch))


def group_sweep_front(cons, synch, tol):
    # the tie-group sweep front_mask vectorizes, one group at a time
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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12345))
def test_front_mask_matches_group_sweep_within_tolerance(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(0, 80)
    # ties, and near-ties offset by less and more than the tolerances
    cons = rng.integers(0, 6, n) / 4.0 + rng.choice([0.0, 1e-15, 1e-12], n)
    synch = rng.integers(0, 6, n) / 4.0 + rng.choice([0.0, 1e-15, 1e-12], n)
    for tol in (0.0, 1e-15, 1e-11, 0.3):
        assert np.array_equal(front_mask(cons, synch, tol), group_sweep_front(cons, synch, tol))


# --- grid scan ---


def test_scan_points_sit_on_budget_face():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w = pareto_scan(gens, c, resolution=24)[0]
    assert w.shape == (25, 2)
    for row in w:
        assert_allclose(c.cost(row), 1.0, atol=1e-12)
    assert np.all(w >= 0)


def test_scan_grid_size_three_weights():
    gens = g14()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, cons, synch, on_front = pareto_scan(gens, c, resolution=20)
    # compositions of 20 into 3 slots
    assert w.shape == (231, 3)
    assert cons.shape == synch.shape == on_front.shape == (231,)


def recursive_compositions(total, parts):
    """The grid's reference: every composition, ascending lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


@pytest.mark.parametrize("total, parts", [(60, 3), (200, 3), (30, 5), (5, 2), (4, 1),
                                          (2, 4), (0, 3)])
def test_compositions_equal_the_recursive_enumeration(total, parts):
    expected = np.array(list(recursive_compositions(total, parts)))
    assert np.array_equal(_compositions(total, parts), expected)


def test_scan_rates_match_direct_evaluation():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, cons, synch, _ = pareto_scan(gens, c, resolution=12)
    for i in range(0, len(w), 3):
        rates = convergence_rates(gens, w[i])
        assert_allclose(cons[i], rates.lambda_cons, atol=1e-10)
        assert_allclose(synch[i], rates.lambda_synch, atol=1e-10)


@pytest.mark.parametrize("make, d, resolution", [
    (g13, 2, None), (g23, 2, None), (g33, 2, None), (g14, 2, 60),
    (g13, 3, 12), (g23, 3, 12), (g14, 3, 12),
], ids=["g1-3", "g2-3", "g3-3", "g1-4", "g1-3-d3", "g2-3-d3", "g1-4-d3"])
def test_front_from_tabloid_rates_is_the_scanned_front(make, d, resolution):
    # rates from the orbit graphs and from the irrep blocks differ in the
    # last bits; within the tie tolerance their fronts are the same
    gens = make()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, _, _, on_front = pareto_scan(gens, c, resolution=resolution, d=d)
    table = []
    for p in rate_shapes(gens.n, d):
        orbit = tabloid_orbit(p, gens)
        laps = np.array([induced_laplacian(p, gens, row, orbit).laplacian for row in w])
        table.append(lambda2_re_batch(eigenvalues(laps)))
    table = np.array(table)
    mask = front_mask(table.min(axis=0), table[0], TIE_TOL * c.budget)
    assert np.array_equal(mask, on_front)


def test_scan_is_deterministic():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    a = pareto_scan(gens, c, resolution=30)
    b = pareto_scan(gens, c, resolution=30)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_multi_chunk_scan_matches_one_batch():
    # 4501 grid points span many chunks, evaluated one after another
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w_all, cons, synch, _ = pareto_scan(gens, c, resolution=4500)
    assert len(w_all) > 2 * CHUNK
    one_batch = _RateEvaluator(gens).rates(w_all)
    assert np.array_equal(cons, one_batch[0])
    assert np.array_equal(synch, one_batch[1])


def test_scan_extremes_single_cycle():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, cons, synch, on_front = pareto_scan(gens, c, resolution=60)
    assert_allclose(cons.max(), 0.4, atol=1e-12)
    assert_allclose(synch.max(), 0.5, atol=1e-12)
    # the balanced point sits on the grid and on the front
    exact = np.flatnonzero(np.abs(w[:, 0] - 0.2) < 1e-12)
    assert len(exact) == 1 and on_front[exact[0]]
    assert_allclose(cons[exact[0]], 0.4, atol=1e-12)


def test_scan_budget_scales_rates():
    gens = g33()
    _, cons1, synch1, _ = pareto_scan(gens, BudgetConstraint.for_generators(gens, 1.0),
                                      resolution=16)
    _, cons2, synch2, _ = pareto_scan(gens, BudgetConstraint.for_generators(gens, 2.0),
                                      resolution=16)
    assert_allclose(cons2, 2.0 * cons1, atol=1e-12)
    assert_allclose(synch2, 2.0 * synch1, atol=1e-12)


# --- maximization ---


def test_maximize_consensus_single_cycle():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, value = maximize_rate(gens, c, objective="consensus")
    assert_allclose(value, 0.4, atol=1e-6)
    assert_allclose(w, (0.2, 0.2), atol=1e-5)
    assert c.is_feasible(w)


def test_maximize_consensus_undirected_path():
    gens = g33()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, value = maximize_rate(gens, c, objective="consensus")
    assert_allclose(value, 0.25, atol=1e-6)
    assert_allclose(w, (0.25, 0.25), atol=1e-5)


def test_maximize_synch_picks_least_norm_on_plateau():
    # the synchronization objective is flat on a whole segment; the
    # polish step must settle on the smallest-norm representative
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, value = maximize_rate(gens, c, objective="synchronization")
    assert_allclose(value, 0.5, atol=1e-6)
    assert_allclose(w, (3.0 / 13.0, 2.0 / 13.0), atol=1e-4)


def test_maximize_synch_four_sites():
    gens = g14()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, value = maximize_rate(gens, c, objective="synchronization")
    assert_allclose(value, 0.25, atol=1e-6)
    assert_allclose(w, (1 / 6, 1 / 12, 1 / 12), atol=1e-4)


def test_maximize_synch_is_zero_for_intransitive_group():
    gens = generator_set(4, [[[1, 2]], [[3, 4]]])
    c = BudgetConstraint.for_generators(gens, 1.0)
    _, value = maximize_rate(gens, c, objective="synchronization")
    assert value == 0.0


def test_maximize_never_loses_to_its_own_grid():
    gens = g14()
    c = BudgetConstraint.for_generators(gens, 1.0)
    grid_best = pareto_scan(gens, c, resolution=30)[1].max()
    _, value = maximize_rate(gens, c, objective="consensus")
    assert value >= grid_best - 1e-9


@pytest.mark.parametrize("objective", ["consensus", "synchronization"])
def test_maximize_five_generators_beats_its_grid(objective):
    # the uniform start holds 1/5 < 0.25 of each coordinate, so its first
    # rounds have no feasible transfer and every row of it is masked
    gens = g5_4()
    c = BudgetConstraint.for_generators(gens, 1.0)
    _, cons, synch, _ = pareto_scan(gens, c, resolution=6)
    grid_best = (cons if objective == "consensus" else synch).max()
    result = maximize_rate(gens, c, objective=objective)
    assert result[1] >= grid_best - 1e-9
    assert c.is_feasible(result[0])
    assert maximize_rate(gens, c, objective=objective) == result


def test_maximize_is_deterministic():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    assert maximize_rate(gens, c) == maximize_rate(gens, c)


def test_maximize_seed_changes_paths_not_optimum():
    gens = g33()
    c = BudgetConstraint.for_generators(gens, 1.0)
    _, v0 = maximize_rate(gens, c, seed=0)
    _, v9 = maximize_rate(gens, c, seed=9)
    assert_allclose(v0, v9, atol=1e-6)


def test_maximize_consensus_at_tiny_budget():
    # the search stops 1.4e-9 (relative) below 0.4 at D = 1 already; at
    # D = 1e-9 it must stop at the same point, scaled
    gens = g13()
    _, unit = maximize_rate(gens, BudgetConstraint.for_generators(gens, 1.0))
    _, value = maximize_rate(gens, BudgetConstraint.for_generators(gens, 1e-9))
    assert_allclose(value, 0.4e-9, rtol=1e-8, atol=0)
    assert_allclose(value, 1e-9 * unit, rtol=1e-12, atol=0)


def test_maximize_synch_plateau_at_huge_budget():
    # the least-norm tie-break must see ties relative to the budget
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1e9)
    w, _ = maximize_rate(gens, c, objective="synchronization")
    assert_allclose(w, (3e9 / 13.0, 2e9 / 13.0), rtol=1e-6, atol=0)


@pytest.mark.parametrize("budget", [0.5, 1.0, 2.0])
def test_maximize_synch_three_generators_settles_the_tie(budget):
    # the whole synchronization optimum is a plateau here; the polish must
    # walk it to a smaller norm than the 0.0492204 * D**2 it once stopped at
    gens = g23()
    c = BudgetConstraint.for_generators(gens, budget)
    w, value = maximize_rate(gens, c, objective="synchronization", seed=0)
    assert value >= 0.5 * budget - 1e-11 * budget
    assert np.sum(np.square(w)) < 0.049220 * budget**2


@pytest.mark.parametrize("seed", range(1, 8))
def test_maximize_synch_tie_settles_at_every_seed(seed):
    # every start tied with the best is polished, so which start reaches
    # the plateau first no longer decides the norm
    gens = g23()
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, value = maximize_rate(gens, c, objective="synchronization", seed=seed)
    assert value >= 0.5 - 1e-11
    assert np.sum(np.square(w)) < 0.049220


def test_maximize_takes_few_batched_solves(monkeypatch):
    # a polish that zigzags along the w12 = w34 ridge at a tiny step once
    # took 75,799 rate calls here; pattern moves and lockstep starts batch it
    calls = []
    rates = _RateEvaluator.rates

    def counted(self, w_batch, floor):
        calls.append(len(w_batch))
        return rates(self, w_batch, floor)

    monkeypatch.setattr(_RateEvaluator, "rates", counted)
    gens = g14()
    c = BudgetConstraint.for_generators(gens, 1.0)
    _, value = maximize_rate(gens, c, objective="synchronization", seed=0)
    assert_allclose(value, 0.25, atol=1e-6)
    assert len(calls) < 500


def test_polish_evaluates_only_moves_that_shorten_the_norm(monkeypatch, capsys):
    # all 20 starts tie and are polished; evaluating every feasible move
    # took 19,721 rows for the same printed optimum
    from qconsensus.cli import main

    rows = []
    rates = _RateEvaluator.rates

    def counted(self, w_batch, floor):
        rows.append(len(w_batch))
        return rates(self, w_batch, floor)

    monkeypatch.setattr(_RateEvaluator, "rates", counted)
    assert main(["optimize", "g1-4", "--objective", "synchronization", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(rows) == 10554 and min(rows) > 0
    assert out[1:3] == [
        "best value: 0.25",
        "weights: w1234=0.166666667103 w12=0.0833333334009 w34=0.0833333323937",
    ]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("objective", ["consensus", "synchronization"])
@pytest.mark.parametrize("gens", [g13, g33, g14], ids=["g1-3", "g3-3", "g1-4"])
def test_the_floor_moves_no_optimum(monkeypatch, gens, objective, seed):
    # a pruned row could never be accepted or kept, so solving every row
    # gives the same weights and value bit for bit
    _same_optimum_without_floor(monkeypatch, gens(), objective, seed)


@pytest.mark.parametrize("objective", ["consensus", "synchronization"])
def test_the_floor_moves_no_optimum_on_five_generators(monkeypatch, objective):
    _same_optimum_without_floor(monkeypatch, g5_4(), objective, 0)


def _same_optimum_without_floor(monkeypatch, gens, objective, seed):
    c = BudgetConstraint.for_generators(gens, 1.0)
    floored = maximize_rate(gens, c, objective=objective, seed=seed)
    rates = _RateEvaluator.rates
    monkeypatch.setattr(_RateEvaluator, "rates", lambda self, w_batch, floor: rates(self, w_batch))
    assert maximize_rate(gens, c, objective=objective, seed=seed) == floored


def test_the_consensus_floor_skips_blocks(monkeypatch):
    # solving every block of every row took 36,332 matrices here (blocks
    # of 3, 2, 3 and 1 rows); smallest first with the floor, 24,216
    solved = []
    eigvals = np.linalg.eigvals

    def counted(a):
        solved.append(int(np.prod(a.shape[:-2])))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    gens = g14()
    maximize_rate(gens, BudgetConstraint.for_generators(gens, 1.0), seed=0)
    assert sum(solved) < 25000


def test_each_objective_builds_each_shape_once(monkeypatch):
    import qconsensus.spectra as spectra

    built = []
    real = spectra.irrep_blocks

    def counted(shapes, gens):
        built.append(list(shapes))
        return real(shapes, gens)

    monkeypatch.setattr(spectra, "irrep_blocks", counted)
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    maximize_rate(gens, c, objective="synchronization")
    assert built == [[(2, 1)]]
    built.clear()
    maximize_rate(gens, c, objective="consensus")
    # one builder call, shapes in order, (n-1, 1) first
    assert built == [[(2, 1), (1, 1, 1)]]


def test_maximize_rejects_unknown_objective():
    gens = g13()
    c = BudgetConstraint.for_generators(gens, 1.0)
    with pytest.raises(ValueError):
        maximize_rate(gens, c, objective="fastest")


def test_maximize_single_generator_uses_full_budget():
    gens = generator_set(3, [[[1, 2, 3]]])
    c = BudgetConstraint.for_generators(gens, 1.0)
    w, value = maximize_rate(gens, c, objective="synchronization")
    assert_allclose(w, (1.0 / 3.0,), atol=1e-6)
    assert_allclose(value, 0.5, atol=1e-6)
