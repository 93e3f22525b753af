"""Partitions, tabloids and the induced (orbit) Laplacians.

The tabloid action is the combinatorial core: induced Laplacians for the
two-row shape reproduce the vertex graph, the all-singleton shape
reproduces the Cayley graph, and orbit restriction kicks in when the
generators do not produce the whole symmetric group.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from qconsensus.induced import (
    canonical_tabloid,
    check_partition,
    cover_map,
    dominance_covers,
    dominates,
    enumerate_tabloids,
    induced_laplacian,
    irrep_blocks,
    irrep_dim,
    partitions_of,
    rate_shapes,
    standard_tableaux,
    tabloid_count,
    tabloid_orbit,
    tabloid_sets,
    word_keys,
    young_orthogonal,
)
from qconsensus.netgraph import generator_laplacian
from qconsensus.permgroup import (
    CapExceededError,
    GeneratorSet,
    compose,
    from_cycles,
    generator_set,
    identity,
    orbit,
    parity,
    proves_full_symmetric,
)
from qconsensus import induced, spectra
from qconsensus.cli import load_topology
from qconsensus.quantum import build_lq
from qconsensus.spectra import eigenvalues, multiset_contained, rate_structure
from reference import (
    cayley_laplacian,
    scatter_laplacian,
    standard_tableaux_loops,
    young_orthogonal_loops,
)


def multinomial(parts):
    n = sum(parts)
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


# --- partition enumeration ---


def test_partitions_exclude_single_row():
    assert partitions_of(3, 4) == [(2, 1), (1, 1, 1)]


def test_partitions_of_four():
    assert partitions_of(4, 4) == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_respect_max_parts():
    assert partitions_of(4, 2) == [(3, 1), (2, 2)]
    assert partitions_of(5, 3) == [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]


def test_partitions_sorted_most_dominant_first():
    parts = partitions_of(6, 9)
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            # later entries never dominate earlier ones
            assert not (dominates(q, p) and q != p)


def test_rate_shapes_start_at_the_site_graph():
    for n in range(2, 8):
        for d in (2, 3):
            shapes = rate_shapes(n, d)
            assert shapes == partitions_of(n, d * d)
            assert shapes[0] == (n - 1, 1)
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match=r"^d must be >= 2$"):
            rate_shapes(4, d)
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2.0$"):
        rate_shapes(4, 2.0)


@given(st.integers(min_value=2, max_value=8))
def test_partition_entries_are_valid(n):
    for p in partitions_of(n, n):
        assert sum(p) == n
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert p != (n,)


# --- dominance order ---


def test_dominates_standard_chain():
    assert dominates((3, 1), (2, 2))
    assert dominates((2, 2), (2, 1, 1))
    assert dominates((2, 1, 1), (1, 1, 1, 1))
    assert dominates((3, 1), (1, 1, 1, 1))
    assert dominates((2, 2), (2, 2))


def test_dominates_incomparable_pair():
    assert not dominates((3, 3), (4, 1, 1))
    assert not dominates((4, 1, 1), (3, 3))


def test_dominates_rejects_different_totals():
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


# --- tabloids ---


def test_enumerate_tabloids_two_one():
    tabs = enumerate_tabloids((2, 1))
    assert tabs == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_tabloid_counts_match_multinomials():
    for parts in [(2, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (3, 2), (3, 1, 1)]:
        assert len(enumerate_tabloids(parts)) == multinomial(parts)


@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1), (3, 2)]))
def test_tabloids_are_sorted_and_distinct(parts):
    tabs = enumerate_tabloids(parts)
    assert tabs == sorted(set(tabs))
    n = sum(parts)
    for t in tabs:
        for row, size in enumerate(parts, start=1):
            assert t.count(row) == size
        assert len(t) == n


def test_canonical_tabloid_fills_rows_in_order():
    assert canonical_tabloid((2, 1)) == (1, 1, 2)
    assert canonical_tabloid((2, 2)) == (1, 1, 2, 2)
    assert canonical_tabloid((3, 1, 1)) == (1, 1, 1, 2, 3)


def test_compose_pulls_tabloid_rows_along_images():
    t = (1, 1, 2)
    p = from_cycles(3, [[1, 2, 3]])
    # entry k of the moved tabloid is read from position p(k)
    assert compose(t, p) == (1, 2, 1)
    assert compose(t, identity(3)) == t


def test_compose_is_a_right_action_on_tabloids():
    t = (1, 2, 1, 3)
    p = from_cycles(4, [[1, 2, 3, 4]])
    q = from_cycles(4, [[2, 4]])
    assert compose(compose(t, p), q) == compose(t, compose(p, q))


def test_one_partition_rule():
    # positive integers, non-increasing, summing to n; every reader of a
    # shape refuses the same bad shapes before it builds anything
    check_partition((2, 1), 3)
    check_partition((1, 1, 1), 3)
    for bad, n, match in (((1, 2), 3, "increase"), ((2, 0, 1), 3, "positive"),
                          ((2, -1, 2), 3, "positive"), ((2.0, 1), 3, "integers"),
                          ((2, 1), 4, "does not partition")):
        with pytest.raises(ValueError, match=match):
            check_partition(bad, n)
    gens = g13()
    for bad in ((1, 2), (2, 0, 1), (1, 1, 0, 1)):
        with pytest.raises(ValueError):
            tabloid_orbit(bad, gens)
        with pytest.raises(ValueError):
            irrep_blocks([bad], gens)
        with pytest.raises(ValueError):
            irrep_dim(bad)
        with pytest.raises(ValueError):
            canonical_tabloid(bad)


# --- induced Laplacians ---


def g13():
    return generator_set(3, [[[1, 2, 3]], [[1, 2]]], ["w123", "w12"])


def test_two_row_shape_reproduces_vertex_graph():
    """The (n-1, 1) tabloids are vertices in disguise.

    A tabloid with exactly one site in the second row is identified by
    that site, so the induced Laplacian must be the vertex Laplacian up
    to the lex-order relabeling of tabloids.
    """
    gens = g13()
    w = [0.37, 0.21]
    ind = induced_laplacian((2, 1), gens, w)
    vertex_lap = generator_laplacian(gens, w)
    # tabloid (1,1,2) has site 3 in row 2, (1,2,1) site 2, (2,1,1) site 1
    order = [2, 1, 0]
    assert_allclose(ind.laplacian, vertex_lap[np.ix_(order, order)], atol=1e-15)


def test_singleton_shape_reproduces_cayley_graph():
    # tabloids of shape (1,...,1) are permutations written as image
    # tuples, listed in the same lex order the Cayley graph uses
    gens = g13()
    w = [0.3, 0.2]
    ind = induced_laplacian((1, 1, 1), gens, w)
    cay = cayley_laplacian(gens, w)
    assert_allclose(ind.laplacian, cay, atol=1e-15)
    assert ind.vertices == tuple(enumerate_tabloids((1, 1, 1)))


def test_induced_row_sums_vanish():
    gens = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]])
    w = [0.25, 0.125, 0.0625]
    for parts in partitions_of(4, 4):
        ind = induced_laplacian(parts, gens, w)
        assert np.all(ind.laplacian.sum(axis=1) == 0.0)


def test_induced_sizes_match_tabloid_counts():
    gens = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]])
    w = [0.1, 0.2, 0.3]
    for parts in partitions_of(4, 4):
        ind = induced_laplacian(parts, gens, w)
        assert ind.laplacian.shape == (multinomial(parts),) * 2
        assert len(ind.vertices) == multinomial(parts)


def test_orbit_restriction_for_cyclic_generators():
    # a lone 3-cycle acts transitively on the (2,1) tabloids
    gens = generator_set(3, [[[1, 2, 3]]])
    ind = induced_laplacian((2, 1), gens, [0.5])
    assert len(ind.vertices) == 3
    eigs = np.sort_complex(np.linalg.eigvals(ind.laplacian))
    expected = 0.5 * np.array([0.0, 1.5 - 0.8660254037844386j, 1.5 + 0.8660254037844386j])
    assert_allclose(np.sort_complex(expected), eigs, atol=1e-12)


def test_orbit_restriction_fixed_tabloid():
    # (1 2) fixes the canonical (2,1) tabloid, so its orbit is a point
    gens = generator_set(3, [[[1, 2]]])
    ind = induced_laplacian((2, 1), gens, [0.9])
    assert len(ind.vertices) == 1
    assert_allclose(ind.laplacian, np.zeros((1, 1)))


def test_induced_partition_recorded():
    gens = g13()
    ind = induced_laplacian((2, 1), gens, [0.1, 0.1])
    assert ind.partition == (2, 1)


def ring_swap(n):
    return generator_set(n, [[list(range(1, n + 1))], [[1, 2]]], ["wring", "wswap"])


def test_eight_site_vertex_shape_is_the_site_graph():
    # the (7,1) graph has 8 vertices even though S_8 has 40320 elements
    gens = ring_swap(8)
    w = [0.3, 0.7]
    ind = induced_laplacian((7, 1), gens, w)
    assert len(ind.vertices) == 8
    # tabloid k in lex order has its singleton at site 8 - k
    order = list(range(7, -1, -1))
    assert np.array_equal(ind.laplacian, generator_laplacian(gens, w)[np.ix_(order, order)])


def test_laplacians_are_the_reference_scatter_bit_for_bit():
    """The shared rule against per-generator code that does not share it:
    every shape of d = 3 (those of d = 2 among them) up to 2,000 tabloids
    and the site graph, on the presets and ring+swap N = 3..6, at two
    seeded positive draws, at the first draw with its first weight 0, and
    at 1, 1e-16, .., whose sum rounds differently out of generator order."""
    rng = np.random.default_rng(20261019)
    sets = [load_topology(name).gens for name in ("g1-3", "g2-3", "g3-3", "g1-4")]
    for gens in sets + [ring_swap(n) for n in range(3, 7)]:
        draws = 1.0 - rng.random((2, len(gens)))
        ordered = np.r_[1.0, np.full(len(gens) - 1, 1e-16)]
        for w in (*draws, np.r_[0.0, draws[0][1:]], ordered):
            for parts in rate_shapes(gens.n, 3):
                if tabloid_count(parts) <= 2000:
                    _, img = tabloid_orbit(parts, gens)
                    lap = induced_laplacian(parts, gens, w).laplacian
                    assert np.array_equal(lap, scatter_laplacian(img, w)), (parts, w)
            # p^-1(v) is where p takes the value v
            sites = np.argsort(np.array(gens.perms), axis=1).T
            assert np.array_equal(generator_laplacian(gens, w), scatter_laplacian(sites, w))


def test_induced_laplacian_rejects_negative_and_nonfinite_weights():
    gens = generator_set(3, [[[1, 2, 3]], [[1, 2]]])
    with pytest.raises(ValueError, match="nonnegative"):
        induced_laplacian((2, 1), gens, [-0.5, 0.2])
    with pytest.raises(ValueError, match="finite"):
        induced_laplacian((2, 1), gens, [0.3, np.inf])
    # a zero weight of either sign is allowed and leaves no -0.0 behind
    neg = induced_laplacian((2, 1), gens, [-0.0, 0.2]).laplacian
    pos = induced_laplacian((2, 1), gens, [0.0, 0.2]).laplacian
    assert np.array_equal(neg, pos)
    assert not np.any(np.signbit(neg) & (neg == 0.0))


def test_orbit_past_cap_raises():
    with pytest.raises(CapExceededError, match="cap"):
        tabloid_orbit((1,) * 8, ring_swap(8))
    with pytest.raises(CapExceededError, match="cap"):
        induced_laplacian((1,) * 8, ring_swap(8), [0.1, 0.1])
    # ring+swap generates S_8: (2,2,1,1,1,1) has exactly the cap of 10080
    # tabloids, (2,1,1,1,1,1,1) twice as many
    verts, img = tabloid_orbit((2, 2, 1, 1, 1, 1), ring_swap(8))
    assert len(verts) == 10080 and img.shape == (10080, 2)
    with pytest.raises(CapExceededError, match="cap"):
        tabloid_orbit((2, 1, 1, 1, 1, 1, 1), ring_swap(8))


# --- whole tabloid sets ---


def assert_whole_sets_are_the_searched_orbits(shapes, gens):
    # the search, uncapped, is the reference of each whole set: points and
    # image tables bit for bit
    for parts, (words, img) in zip(shapes, tabloid_sets(shapes, gens.perms), strict=True):
        points, searched = orbit(canonical_tabloid(parts), gens, cap=tabloid_count(parts))
        assert words.dtype == np.uint8 and img.dtype == searched.dtype
        assert np.array_equal(words, points), parts
        assert np.array_equal(img, searched), parts


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(3, 9))
def test_whole_sets_are_the_searched_orbits_on_ring_swap(n, d):
    assert_whole_sets_are_the_searched_orbits(rate_shapes(n, d), ring_swap(n))


@st.composite
def s_n_proving_sets(draw):
    # one to three permutations with a transposition among them, kept
    # when the transpositions they conjugate to connect every site
    n = draw(st.integers(min_value=2, max_value=5))
    ident = tuple(range(1, n + 1))
    perm = st.permutations(ident).map(tuple).filter(lambda p: p != ident)
    perms = draw(st.lists(perm, max_size=2))
    a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    perms.insert(draw(st.integers(0, len(perms))), from_cycles(n, [[a, b]]))
    gens = GeneratorSet(n=n, perms=tuple(perms))
    assume(proves_full_symmetric(gens))
    return gens


@settings(max_examples=60, deadline=None)
@given(s_n_proving_sets())
def test_whole_sets_are_the_searched_orbits_on_drawn_generators(gens):
    assert_whole_sets_are_the_searched_orbits(partitions_of(gens.n, gens.n), gens)


def test_whole_sets_list_shapes_in_the_order_given():
    shapes = [(2, 2, 1), (4, 1), (2, 2, 1), (1, 1, 1, 1, 1)]
    listed = tabloid_sets(shapes, ())
    for parts, (words, img) in zip(shapes, listed, strict=True):
        assert words.tolist() == [list(t) for t in enumerate_tabloids(parts)]
        assert img.shape == (tabloid_count(parts), 0)
    with pytest.raises(ValueError, match="does not partition"):
        tabloid_sets([(2, 1), (2, 2)], ())


def test_word_keys_sort_as_the_words_at_a_hundred_sites():
    # one byte a site: no integer key of a 100-site word fits int64
    gens = ring_swap(100)
    words, img = tabloid_sets([(98, 2)], gens.perms)[0]
    keys = word_keys(words)
    assert len(keys) == 4950 and keys.dtype == np.dtype("S100")
    assert np.all(keys[:-1] < keys[1:])
    index = {t: i for i, t in enumerate(map(tuple, words.tolist()))}
    assert img.tolist() == [[index[compose(t, p)] for p in gens.perms] for t in index]


def test_tabloid_orbit_lists_whole_sets_only_when_s_n_is_proved(monkeypatch):
    searched = []
    real = induced.orbit

    def counted(x, gens, cap):
        searched.append(x)
        return real(x, gens, cap)

    monkeypatch.setattr(induced, "orbit", counted)
    verts, img = tabloid_orbit((2, 1, 1), ring_swap(4))
    assert searched == [] and verts == tuple(enumerate_tabloids((2, 1, 1)))
    # (1 2)(3 4) and (1 3)(2 4) generate the Klein four-group: (2,2)'s
    # orbit is two of its six tabloids, found by the search
    klein = generator_set(4, [[[1, 2], [3, 4]], [[1, 3], [2, 4]]])
    verts, img = tabloid_orbit((2, 2), klein)
    assert searched == [(1, 1, 2, 2)] and verts == ((1, 1, 2, 2), (2, 2, 1, 1))
    assert img.tolist() == [[0, 1], [1, 0]]


@st.composite
def small_generator_sets(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    ident = tuple(range(1, n + 1))
    perm = st.permutations(ident).map(tuple).filter(lambda p: p != ident)
    perms = draw(st.lists(perm, min_size=1, max_size=3))
    return GeneratorSet(n=n, perms=tuple(perms))


@settings(max_examples=60, deadline=None)
@given(small_generator_sets(), st.data())
def test_induced_laplacian_is_the_orbit_laplacian(gens, data):
    """Every shape, generating S_N or not, against a from-scratch build.

    Dyadic weights make the sum w_p (I - P_p) exact in any order, so the
    Laplacian must match bit for bit; the spectrum must sit inside the
    full coefficient-space generator, of which each orbit is a block.
    """
    m = len(gens)
    ints = data.draw(st.lists(st.integers(0, 16), min_size=m, max_size=m))
    dyadic = np.array(ints) / 8.0
    # distinct irrational offsets keep the spectral check off defective points
    generic = dyadic + np.sqrt([2.0, 3.0, 5.0][:m]) / 10.0
    lq_spectrum = eigenvalues(build_lq(gens, generic))
    for parts in partitions_of(gens.n, 4):
        ind = induced_laplacian(parts, gens, dyadic)
        verts = ind.vertices
        assert canonical_tabloid(parts) in verts
        assert list(verts) == sorted(set(verts))
        index = {t: i for i, t in enumerate(verts)}
        ref = np.zeros((len(verts), len(verts)))
        for p, w in zip(gens.perms, dyadic):
            perm = np.zeros_like(ref)
            for t, i in index.items():
                perm[i, index[compose(t, p)]] = 1.0
            ref += w * (np.eye(len(verts)) - perm)
        assert np.array_equal(ind.laplacian, ref)
        block = eigenvalues(induced_laplacian(parts, gens, generic).laplacian)
        ok, defect, witness = multiset_contained(block, lq_spectrum, tol=1e-9)
        assert ok, (parts, defect, witness)


# --- irreducible blocks ---


def test_standard_tableaux_count_is_the_irrep_dimension():
    # hook length formula on the g1-4 shapes: blocks of 3, 2, 3 and 1
    shapes = partitions_of(4, 4)
    dims = dict(zip(shapes, np.bincount(standard_tableaux(shapes)[1]).tolist()))
    assert dims == {(3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}
    words, shape_of = standard_tableaux([(2, 1)])
    assert words.tolist() == [[1, 1, 2], [1, 2, 1]] and shape_of.tolist() == [0, 0]
    assert len(standard_tableaux([(4, 3, 2, 1)])[0]) == 768


def test_irrep_dim_counts_standard_tableaux():
    for n in range(2, 9):
        shapes = partitions_of(n, n) + [(n,)]
        counts = np.bincount(standard_tableaux(shapes)[1], minlength=len(shapes))
        assert [irrep_dim(p) for p in shapes] == counts.tolist(), n


def test_standard_tableaux_equal_the_recursion():
    # the same words in the same order as the depth-first recursion, one
    # shape at a time and every partition of n in one call, and for the
    # 17-site column
    for n in range(1, 10):
        shapes = partitions_of(n, n) + [(n,)]
        want = [standard_tableaux_loops(p) for p in shapes]
        for parts, words in zip(shapes, want):
            assert standard_tableaux([parts])[0].tolist() == [list(w) for w in words], parts
        words, shape_of = standard_tableaux(shapes)
        assert words.tolist() == [list(w) for ws in want for w in ws], n
        assert shape_of.tolist() == [i for i, ws in enumerate(want) for _ in ws], n
    words = standard_tableaux([(1,) * 17])[0]
    assert words.tolist() == [list(w) for w in standard_tableaux_loops((1,) * 17)]
    assert words.tolist() == [list(range(1, 18))]
    with pytest.raises(ValueError, match="does not partition"):
        standard_tableaux([(2, 1), (2, 2)])


class _Built(Exception):
    """Raised by a stub block builder once the cap check has passed."""


def test_block_cap_admits_eleven_sites_and_refuses_twelve(monkeypatch):
    # sized by hook lengths alone: nothing of N = 12's 2.8 GB is allocated;
    # the stub records the shapes the one builder call asks for and stops
    built = []

    def stub(shapes, gens):
        built.append(list(shapes))
        raise _Built

    monkeypatch.setattr(spectra, "irrep_blocks", stub)
    for n, d in ((10, 2), (10, 3), (11, 2), (11, 3)):
        built.clear()
        with pytest.raises(_Built):
            rate_structure(ring_swap(n), rate_shapes(n, d))
        assert built == [rate_shapes(n, d)]
    built.clear()
    with pytest.raises(CapExceededError, match=r"^rate block coefficients \d+ exceeds cap 134217728$"):
        rate_structure(ring_swap(12), rate_shapes(12, 2))
    assert built == []
    # synchronization builds only the (n-1, 1) block
    with pytest.raises(_Built):
        rate_structure(ring_swap(12), rate_shapes(12, 2)[:1])
    assert built == [[(11, 1)]]


@pytest.mark.parametrize("parts", [(2, 1), (3, 1, 1), (2, 2, 1), (3, 2), (2, 1, 1, 1)])
def test_young_orthogonal_is_an_orthogonal_representation(parts):
    rng = np.random.default_rng(sum(parts) * 10 + len(parts))
    n = sum(parts)
    for _ in range(10):
        p, q = (tuple(int(x) + 1 for x in rng.permutation(n)) for _ in range(2))
        a, b, ab = young_orthogonal([parts], [p, q, compose(p, q)])[0]
        assert_allclose(a @ b, ab, atol=1e-13)
        assert_allclose(a @ a.T, np.eye(len(a)), atol=1e-13)


def test_young_orthogonal_equals_the_tuple_loop_letters():
    # every shape of up to 8 sites, and the one-column shape of 17 sites,
    # whose row words read in base 17 would pass 2^63
    rng = np.random.default_rng(8)
    shapes = [p for n in range(1, 9) for p in partitions_of(n, n) + [(n,)]] + [(1,) * 17]
    for parts in shapes:
        n = sum(parts)
        perms = [tuple(int(x) + 1 for x in rng.permutation(n)) for _ in range(3)]
        (got,), want = young_orthogonal([parts], perms), young_orthogonal_loops(parts, perms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), parts


def _perms_of_distinct_lengths(rng, n):
    """Three random permutations whose bubble words differ in length."""
    while True:
        perms = [tuple(int(x) + 1 for x in rng.permutation(n)) for _ in range(3)]
        lengths = {sum(a > b for i, a in enumerate(p) for b in p[i + 1:]) for p in perms}
        if len(lengths) == 3:
            return perms


def test_young_orthogonal_builds_many_shapes_in_one_call():
    # one call per shape list, each stack equal bit for bit to the tuple
    # loops on its shape alone: every rate shape list of 3 to 8 sites, and
    # all partitions of 8, where adjacent shapes share word prefixes
    rng = np.random.default_rng(1996)
    lists = [rate_shapes(n, d) for n in range(3, 9) for d in (2, 3)]
    lists.append(partitions_of(8, 8) + [(8,)])
    # the partners come from one search over every shape's words, which
    # must not lean on the order the shapes are given in
    shuffle = np.random.default_rng(30)
    lists += ([shapes[::-1] for shapes in lists]
              + [[shapes[i] for i in shuffle.permutation(len(shapes))] for shapes in lists])
    for shapes in lists:
        perms = _perms_of_distinct_lengths(rng, sum(shapes[0]))
        got = young_orthogonal(shapes, perms)
        assert len(got) == len(shapes)
        for parts, rho in zip(shapes, got):
            want = young_orthogonal_loops(parts, perms)
            assert rho.shape == want.shape and rho.tobytes() == want.tobytes(), parts


def test_a_row_label_past_a_byte_is_refused_not_wrapped():
    # (2,1^258) has 259 rows: row 256 as a byte would read 0, row 259 as 3
    perms = [from_cycles(260, [list(range(1, 261))]), from_cycles(260, [[1, 260]])]
    with pytest.raises(ValueError, match="row labels must lie in 1..255"):
        young_orthogonal([(2,) + (1,) * 258], perms)
    for label in (0, 256):
        with pytest.raises(ValueError, match="row labels must lie in 1..255"):
            word_keys(np.array([[1, label, 2]]))
    # 255 rows still fit a byte
    parts = (2,) + (1,) * 254
    perms = [from_cycles(256, [list(range(1, 257))]), from_cycles(256, [[1, 256]])]
    (got,), want = young_orthogonal([parts], perms), young_orthogonal_loops(parts, perms)
    assert got.shape == want.shape == (2, 255, 255) and got.tobytes() == want.tobytes()


def test_irrep_block_skips_the_decomposition_when_a_transposition_proves_s_n(monkeypatch):
    calls, proofs = [], []
    svd = np.linalg.svd
    prove = induced.proves_full_symmetric

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    def counted_proof(gens):
        proofs.append(gens.n)
        return prove(gens)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(induced, "proves_full_symmetric", counted_proof)
    for n in (4, 6):
        rate_structure(ring_swap(n), rate_shapes(n, 2))
    assert calls == []
    # one proof per structure, not one per block
    assert proofs == [4, 6]
    # S_4 without a transposition, and the trivial irrep, take it
    rate_structure(generator_set(4, [[[1, 2, 3]], [[1, 2, 3, 4]]]), rate_shapes(4, 2))
    assert calls == [(6, 3), (4, 2), (6, 3), (2, 1)]
    calls.clear()
    assert irrep_blocks([(4,)], ring_swap(4))[0].fixed == 1 and len(calls) == 1


def test_young_orthogonal_one_row_and_one_column():
    p = from_cycles(4, [[1, 2, 3]])
    q = from_cycles(4, [[1, 4]])
    row, column = young_orthogonal([(4,), (1, 1, 1, 1)], [p, q])
    assert_allclose(row, [[[1.0]], [[1.0]]])
    assert_allclose(column, [[[parity(p)]], [[parity(q)]]])


def test_irrep_block_fixed_vectors_count_extra_site_orbits():
    # S_N fixes nothing; (1 2)(3 4) splits four sites into two orbits
    ring = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]])
    assert irrep_blocks([(3, 1)], ring)[0].fixed == 0
    split = generator_set(4, [[[1, 2]], [[3, 4]]])
    (block,) = irrep_blocks([(3, 1)], split)
    assert block.fixed == 1
    assert block.coeffs.shape == (2, 2, 2)
    # (1 2 3) is even, so it fixes the whole sign irrep
    assert irrep_blocks([(1, 1, 1)], generator_set(3, [[[1, 2, 3]]]))[0].fixed == 1
    # (1 3)(2 4) acts on the (2,2) irrep as the identity, up to rounding
    # of the orthogonal form's square roots
    (block,) = irrep_blocks([(2, 2)], generator_set(4, [[[1, 3], [2, 4]]]))
    assert block.fixed == 2 and block.coeffs.shape == (1, 0, 0)


def test_irrep_block_rejects_bad_weights_and_shapes():
    # blocks take no weights; the weight faults are tested once for every
    # reader of weights in test_spectra
    with pytest.raises(ValueError, match="does not partition"):
        irrep_blocks([(2, 1), (2, 2)], g13())


def test_irrep_blocks_reach_eight_sites_past_the_orbit_cap():
    # the (1^8) orbit is past the cap; its irrep is the sign, and the
    # 8-cycle and the swap are both odd, so each adds 2 w
    (block,) = irrep_blocks([(1,) * 8], ring_swap(8))
    assert_allclose(np.tensordot([0.3, 0.7], block.coeffs, axes=1) + 0.0, [[2.0]])


# --- dominance covers and their equivariant maps ---


@pytest.mark.parametrize("n", range(2, 9))
def test_dominance_covers_are_the_covers_of_the_order(n):
    every = partitions_of(n, n) + [(n,)]
    for lam in every:
        below = [mu for mu in every if mu != lam and dominates(lam, mu)]
        covered = {
            mu for mu in below
            if not any(nu != mu and dominates(nu, mu) for nu in below)
        }
        got = dominance_covers(lam)
        assert {mu for mu, _, _ in got} == covered
        assert len(got) == len(covered)


def test_tabloid_count_counts_the_tabloids():
    for n in range(2, 8):
        for p in partitions_of(n, n) + [(n,)]:
            assert tabloid_count(p) == len(enumerate_tabloids(p)) == multinomial(p)


def dense_cover_map(inner, outer, i, j):
    rows, cols = cover_map(inner, outer, i, j)
    phi = np.zeros((len(outer), len(inner)))
    phi[rows, cols] = 1.0
    return phi


def permutation_matrix(img, g):
    mat = np.zeros((len(img), len(img)))
    mat[np.arange(len(img)), img[:, g]] = 1.0
    return mat


@pytest.mark.parametrize("gens,d", [
    (g13(), 2), (generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]]), 2),
    (ring_swap(4), 3), (ring_swap(5), 2), (ring_swap(6), 2),
], ids=["g1-3", "g1-4", "ring-swap-4-d3", "ring-swap-5", "ring-swap-6"])
def test_cover_maps_are_equivariant(gens, d):
    shapes = rate_shapes(gens.n, d)
    orbits = {p: tabloid_orbit(p, gens) for p in shapes}
    seen = 0
    for lam in shapes:
        for mu, i, j in dominance_covers(lam):
            if mu not in shapes:
                continue
            (inner, inner_img), (outer, outer_img) = orbits[lam], orbits[mu]
            phi = dense_cover_map(inner, outer, i, j)
            # Phi[s, t] = 1 iff s is t with one entry moved from row i to row j
            for s, t in zip(*np.nonzero(phi)):
                diff = [k for k in range(gens.n) if outer[s][k] != inner[t][k]]
                assert len(diff) == 1
                assert (inner[t][diff[0]], outer[s][diff[0]]) == (i + 1, j + 1)
            assert np.array_equal(phi.sum(axis=0), np.full(len(inner), lam[i]))
            for g in range(len(gens)):
                assert np.array_equal(
                    permutation_matrix(outer_img, g) @ phi,
                    phi @ permutation_matrix(inner_img, g),
                )
            seen += 1
    assert seen > 0
