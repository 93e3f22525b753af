"""The site-label Laplacian, connectivity through its spectrum, and the
Cayley-graph reference the all-singleton tabloid graph is checked against."""

import numpy as np
from numpy.testing import assert_allclose

from qconsensus.permgroup import generate_group, generator_set
from qconsensus.spectra import lambda2_re_batch
from reference import cayley_laplacian, generator_laplacian


def ring_gens(n):
    return generator_set(n, [[list(range(1, n + 1))]])


def swap_plus_cycle_3():
    # three sites, one 3-cycle plus one transposition
    return generator_set(3, [[[1, 2, 3]], [[1, 2]]], ["w123", "w12"])


def connected(lap):
    # every edge lies on a generator cycle, so weak and strong
    # connectivity agree, and either means exactly one zero eigenvalue
    return lambda2_re_batch(np.linalg.eigvals(lap)[None])[0] > 0


# --- generator Laplacians ---


def test_transposition_laplacian():
    gens = generator_set(3, [[[1, 2]]])
    w = 0.6
    expected = np.array([[w, -w, 0.0], [-w, w, 0.0], [0.0, 0.0, 0.0]])
    assert_allclose(generator_laplacian(gens, [w]), expected)


def test_cycle_laplacian_direction():
    # each vertex pulls from its preimage: under (1 2 3), vertex 1
    # pulls from 3, vertex 2 from 1, vertex 3 from 2
    gens = ring_gens(3)
    a = 0.4
    expected = np.array([[a, 0.0, -a], [-a, a, 0.0], [0.0, -a, a]])
    assert_allclose(generator_laplacian(gens, [a]), expected)


def test_two_generator_laplacian_sums():
    gens = swap_plus_cycle_3()
    a, b = 0.3, 0.15
    expected = np.array([
        [a + b, -b, -a],
        [-a - b, a + b, 0.0],
        [0.0, -a, a],
    ])
    assert_allclose(generator_laplacian(gens, [a, b]), expected)


def test_row_sums_exactly_zero_for_dyadic_weights():
    gens = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]])
    lap = generator_laplacian(gens, [0.25, 0.125, 0.0625])
    assert np.all(lap.sum(axis=1) == 0.0)


# --- connectivity ---


def test_cycle_is_strongly_connected():
    assert connected(generator_laplacian(ring_gens(4), [1.0]))


def test_transposition_alone_is_not():
    gens = generator_set(3, [[[1, 2]]])
    assert not connected(generator_laplacian(gens, [1.0]))


def test_zero_weight_breaks_connectivity():
    gens = swap_plus_cycle_3()
    assert connected(generator_laplacian(gens, [0.2, 0.2]))
    assert not connected(generator_laplacian(gens, [0.0, 0.2]))


# --- Cayley graphs ---


def test_cayley_graph_s3():
    gens = swap_plus_cycle_3()
    lap = cayley_laplacian(gens, [0.3, 0.2])
    assert lap.shape == (6, 6)
    # every group element has one outgoing edge per generator
    assert all(np.count_nonzero(row) == 3 for row in lap)
    assert connected(lap)
    assert_allclose(lap.sum(axis=1), 0.0, atol=1e-15)
    assert_allclose(np.diag(lap), 0.5)


def test_cayley_graph_default_unit_weights():
    gens = generator_set(3, [[[1, 2, 3]]])
    lap = cayley_laplacian(gens)
    assert lap.shape == (3, 3)
    assert set(lap[~np.eye(3, dtype=bool)]) == {0.0, -1.0}
    assert_allclose(np.diag(lap), 1.0)


def test_cayley_graph_vertex_count_matches_group_order():
    gens = generator_set(4, [[[1, 2]], [[2, 3]], [[3, 4]]])
    lap = cayley_laplacian(gens, [1.0, 1.0, 1.0])
    assert len(lap) == len(generate_group(gens))
