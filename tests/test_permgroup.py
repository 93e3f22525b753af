"""Permutation primitives: cycles, composition, parity, group closure."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qconsensus.permgroup import (
    CapExceededError,
    GeneratorSet,
    capped,
    compose,
    effective_cycle_length,
    from_cycles,
    generate_group,
    generator_set,
    identity,
    is_full_symmetric,
    is_valid,
    laplacian_rows,
    orbit,
    parity,
    proves_full_symmetric,
    to_cycles,
)
from qconsensus.induced import rate_shapes
from qconsensus.optimize import BudgetConstraint, maximize_rate, pareto_scan
from qconsensus.quantum import _pull_map, build_lq, check_steps, evolve_chunks
from qconsensus.spectra import rate_structure
from reference import inverse, random_generator_sets


@st.composite
def perms(draw, n=None, max_n=7):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(list(range(1, n + 1)))))


@st.composite
def perm_pairs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = tuple(draw(st.permutations(list(range(1, n + 1)))))
    q = tuple(draw(st.permutations(list(range(1, n + 1)))))
    return p, q


# --- cycle notation ---


def test_from_cycles_three_cycle():
    # (1 2 3) sends 1 to 2, 2 to 3, 3 back to 1
    assert from_cycles(3, [[1, 2, 3]]) == (2, 3, 1)


def test_from_cycles_transposition_padded():
    assert from_cycles(4, [[1, 2]]) == (2, 1, 3, 4)


def test_from_cycles_disjoint_product():
    assert from_cycles(4, [[1, 2], [3, 4]]) == (2, 1, 4, 3)


def test_from_cycles_reversed_three_cycle():
    # (3 2 1) is the inverse of (1 2 3)
    p = from_cycles(3, [[3, 2, 1]])
    assert p == (3, 1, 2)
    assert compose(p, from_cycles(3, [[1, 2, 3]])) == identity(3)


def test_from_cycles_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_cycles(3, [[1, 4]])
    with pytest.raises(ValueError):
        from_cycles(3, [[0, 1]])


def test_from_cycles_rejects_repeats():
    with pytest.raises(ValueError):
        from_cycles(4, [[1, 2, 1]])
    with pytest.raises(ValueError):
        from_cycles(4, [[1, 2], [2, 3]])


def test_to_cycles_round_trip():
    p = from_cycles(6, [[1, 4, 2], [5, 6]])
    cycles = to_cycles(p)
    assert cycles == [[1, 4, 2], [5, 6]]
    assert from_cycles(6, cycles) == p


def test_to_cycles_identity_empty():
    assert to_cycles(identity(5)) == []


@given(perms())
def test_to_cycles_smallest_first(p):
    for cyc in to_cycles(p):
        assert cyc[0] == min(cyc)
        assert len(cyc) >= 2


# --- composition and inverse ---


def test_compose_applies_right_factor_first():
    p = from_cycles(3, [[1, 2]])
    q = from_cycles(3, [[2, 3]])
    # (p o q)(x) = p(q(x)):  1 -> 1 -> 2,  2 -> 3 -> 3,  3 -> 2 -> 1
    assert compose(p, q) == (2, 3, 1)
    assert compose(q, p) == (3, 1, 2)


@given(perm_pairs())
def test_compose_inverse_identity(pq):
    p, q = pq
    n = len(p)
    assert compose(p, inverse(p)) == identity(n)
    assert compose(inverse(p), p) == identity(n)
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(perms(n=n), perms(n=n), perms(n=n))))
def test_compose_associative(triple):
    p, q, r = triple
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_is_valid():
    assert is_valid((2, 3, 1))
    assert not is_valid((1, 1, 3))
    assert not is_valid((0, 1, 2))


# --- parity and effective length ---


def test_parity_examples():
    assert parity(identity(4)) == 1
    assert parity(from_cycles(4, [[1, 2]])) == -1
    assert parity(from_cycles(4, [[1, 2, 3]])) == 1
    assert parity(from_cycles(4, [[1, 2, 3, 4]])) == -1
    assert parity(from_cycles(4, [[1, 2], [3, 4]])) == 1


@given(perm_pairs())
def test_parity_is_multiplicative(pq):
    p, q = pq
    assert parity(compose(p, q)) == parity(p) * parity(q)


def test_effective_cycle_length():
    assert effective_cycle_length(identity(5)) == 0
    assert effective_cycle_length(from_cycles(5, [[1, 2]])) == 2
    assert effective_cycle_length(from_cycles(5, [[1, 2, 3, 4]])) == 4
    assert effective_cycle_length(from_cycles(5, [[1, 2], [3, 4]])) == 4


@given(perms())
def test_effective_length_counts_moved_points(p):
    moved = sum(1 for x in range(1, len(p) + 1) if p[x - 1] != x)
    assert effective_cycle_length(p) == moved


# --- generator sets ---


def test_generator_set_auto_labels():
    gens = generator_set(3, [[[1, 2, 3]], [[1, 2]]])
    assert gens.labels == ("w1", "w2")
    assert gens.perms == ((2, 3, 1), (2, 1, 3))
    assert len(gens) == 2


def test_generator_set_explicit_labels_and_costs():
    gens = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]],
                         ["w1234", "w12", "w34"])
    assert gens.cycle_costs() == (4, 2, 2)


def test_generator_set_rejects_identity():
    with pytest.raises(ValueError):
        GeneratorSet(3, (identity(3),))


def test_generator_set_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        generator_set(3, [[[1, 2]], [[2, 3]]], ["w", "w"])


def test_generator_set_rejects_wrong_size_perm():
    with pytest.raises(ValueError):
        GeneratorSet(3, ((2, 1),))


# --- group generation ---


def test_generate_group_s3():
    gens = generator_set(3, [[[1, 2, 3]], [[1, 2]]])
    group = generate_group(gens)
    assert len(group) == 6
    assert identity(3) in group
    for a in group:
        for b in group:
            assert compose(a, b) in group


def test_generate_group_cyclic_subgroup():
    gens = generator_set(4, [[[1, 2, 3, 4]]])
    group = generate_group(gens)
    assert len(group) == 4


def test_generate_group_respects_cap():
    gens = generator_set(5, [[[1, 2, 3, 4, 5]], [[1, 2]]])
    with pytest.raises(CapExceededError):
        generate_group(gens, cap=119)
    assert len(generate_group(gens, cap=120)) == math.factorial(5)


def _ring_swap(n):
    return generator_set(n, [[list(range(1, n + 1))], [[1, 2]]])


def _three_cycles(n, count):
    return itertools.islice(itertools.combinations(range(1, n + 1), 3), count)


def _first_chunk(n):
    return next(evolve_chunks(np.eye(2**n) / 2**n, None, _ring_swap(n), [0.1, 0.1], 1.0))


CAP_SITES = {
    "orbit": lambda: orbit(identity(5), _ring_swap(5), cap=119),
    # without a transposition S_N is proved by the capped closure alone
    "n-factorial": lambda: is_full_symmetric(generator_set(8, [[list(range(1, 9))], [[1, 2, 3]]])),
    "rate-blocks": lambda: rate_structure(_ring_swap(12), rate_shapes(12, 2)),
    "state": lambda: _first_chunk(9),
    "build-lq": lambda: build_lq(_ring_swap(7), [0.1, 0.1]),
    "steps": lambda: check_steps(10000.002, 1e-3, 1000000),
    "grid": lambda: pareto_scan(_ring_swap(3), BudgetConstraint((3, 2), 1.0), resolution=10**7),
    # twenty 3-cycles on 8 sites: 7,640 rows a round over blocks of 33,323
    "optimizer-round": lambda: maximize_rate(
        GeneratorSet(8, tuple(from_cycles(8, [list(c)]) for c in _three_cycles(8, 20))),
        BudgetConstraint((3,) * 20, 1.0)),
}


@pytest.mark.parametrize("site", CAP_SITES)
def test_every_cap_site_raises_the_one_message_form(site):
    # each cap goes through permgroup.check_cap: "<what> <size> exceeds cap <cap>"
    with pytest.raises(CapExceededError, match=r"^\S.* \d+ exceeds cap \d+$"):
        CAP_SITES[site]()


def test_capped_hands_on_a_stream_whose_total_meets_the_cap():
    assert list(capped(iter([3, 4, 5]), "points", 24, lambda x: 2 * x)) == [3, 4, 5]
    assert list(capped(iter([]), "points", 0, lambda x: x)) == []


def test_capped_stops_before_the_item_past_the_cap():
    pulled = []

    def source():
        for x in (3, 4, 5, 6):
            pulled.append(x)
            yield x

    handed = []
    with pytest.raises(CapExceededError, match=r"^points 24 exceeds cap 23$"):
        for x in capped(source(), "points", 23, lambda x: 2 * x):
            handed.append(x)
    # 5 brings the total past the cap: it is not handed on, and 6 not read
    assert handed == [3, 4] and pulled == [3, 4, 5]


def test_laplacian_rows_of_an_image_table():
    # g0 swaps points 0 and 1, g1 is the 3-cycle 0 -> 1 -> 2 -> 0
    img = np.array([[1, 1], [0, 2], [2, 0]])
    cols, vals = laplacian_rows(img, [0.5, 0.25])
    assert np.array_equal(cols, [[1, 1, 0], [0, 2, 1], [2, 0, 2]])
    assert np.array_equal(vals, [[-0.5, -0.25, 0.75], [-0.5, -0.25, 0.75], [0.0, -0.25, 0.25]])
    assert not np.any(np.signbit(vals) & (vals == 0.0))
    # no generators: each row is its zero diagonal
    cols, vals = laplacian_rows(np.empty((3, 0), dtype=np.intp), [])
    assert np.array_equal(cols, [[0], [1], [2]]) and np.array_equal(vals, np.zeros((3, 1)))
    # a diagonal that overflows is left inf, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, vals = laplacian_rows(img, [1e308, 1e308])
    assert np.array_equal(vals[:, -1], [np.inf, np.inf, 1e308])


def test_is_full_symmetric():
    assert is_full_symmetric(generator_set(3, [[[1, 2, 3]], [[1, 2]]]))
    assert is_full_symmetric(generator_set(3, [[[1, 2]], [[2, 3]]]))
    assert not is_full_symmetric(generator_set(3, [[[1, 2, 3]]]))
    assert not is_full_symmetric(generator_set(4, [[[1, 2]], [[3, 4]]]))
    # no transposition: the closure decides
    assert is_full_symmetric(generator_set(4, [[[1, 2, 3]], [[1, 2, 3, 4]]]))
    assert not is_full_symmetric(generator_set(4, [[[1, 2, 3, 4]], [[1, 3]]]))
    # the transposition proves S_N past the closure's 10080 cap
    assert is_full_symmetric(_ring_swap(12))


@pytest.mark.parametrize("n", range(3, 12))
def test_ring_swap_proves_full_symmetric(n):
    assert proves_full_symmetric(_ring_swap(n))


def test_the_proof_never_holds_short_of_the_full_group():
    fulls = held = 0
    for gens in random_generator_sets(20261019, 800, 6):
        full = len(generate_group(gens)) == math.factorial(gens.n)
        proved = proves_full_symmetric(gens)
        assert full or not proved, gens.perms
        assert is_full_symmetric(gens) == full
        fulls += full
        held += proved
    # the proof decides most of the full groups drawn, not all
    assert fulls / 2 < held < fulls


def test_the_proof_needs_every_generator():
    # (1 2) alone connects two sites; only the 4-cycle carries it further
    assert not proves_full_symmetric(generator_set(4, [[[1, 2]], [[3, 4]]]))
    assert proves_full_symmetric(generator_set(4, [[[1, 2]], [[1, 2, 3, 4]]]))
    assert proves_full_symmetric(generator_set(4, [[[1, 2, 3, 4]], [[1, 2]]]))
    # a product of two transpositions is no transposition
    assert not proves_full_symmetric(generator_set(4, [[[1, 2], [3, 4]], [[1, 2, 3]]]))


@given(perms(max_n=6))
def test_single_generator_group_is_cyclic(p):
    if p == identity(len(p)):
        return
    gens = GeneratorSet(len(p), (p,))
    group = generate_group(gens)
    # order of the cyclic group equals the lcm of the cycle lengths
    order = 1
    for cyc in to_cycles(p):
        order = math.lcm(order, len(cyc))
    assert len(group) == order


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_right_action_across_layers(data):
    # the quantum layer's pull map on base-ary site digits and the orbit
    # tables of the induced graphs both act as y -> compose(y, p)
    n = data.draw(st.integers(min_value=2, max_value=5))
    base = data.draw(st.integers(min_value=2, max_value=4))
    moved = perms(n=n).filter(lambda p: p != identity(n))
    gens = GeneratorSet(n, tuple(data.draw(st.lists(moved, min_size=1, max_size=3))))
    place = base ** np.arange(n - 1, -1, -1)
    words = [tuple(int(a) for a in (x // place) % base) for x in range(base**n)]
    for p in gens.perms:
        pulled = _pull_map(p, base)
        for x, word in enumerate(words):
            assert pulled[x] == int(np.dot(compose(word, p), place))
    start = words[data.draw(st.integers(min_value=0, max_value=base**n - 1))]
    points, img = orbit(start, gens)
    assert start in points and list(points) == sorted(set(points))
    assert img.dtype == np.intp and img.shape == (len(points), len(gens))
    for i, y in enumerate(points):
        for g, p in enumerate(gens.perms):
            assert points[img[i, g]] == compose(y, p)
