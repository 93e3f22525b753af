"""Quantum layer: operator basis, swap unitaries, master equation, fits.

The load-bearing oracle is the coefficient picture: expanding rho in the
per-site orthogonal basis turns the master equation into a linear flow
whose matrix splits into blocks matching the tabloid Laplacians.  Tests
here exercise both directions of that dictionary.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qconsensus.cli import _load_rho0, load_topology
from qconsensus.induced import induced_laplacian
from qconsensus.permgroup import (
    CapExceededError,
    compose,
    from_cycles,
    generate_group,
    generator_set,
    identity,
)
from qconsensus.quantum import (
    InsufficientDecayError,
    StepSizeError,
    build_lq,
    check_density,
    decompose,
    evolve,
    evolve_chunks,
    fit_decay_rate,
    frobenius_distances,
    gellmann_basis,
    generic_state,
    lindblad_rhs,
    reduced_state,
    symmetric_state,
    sync_distance,
    uniform_site_hamiltonian,
)
from qconsensus.quantum import LQ_DIM_CAP, _generator, _no_fill, _step_operator
from qconsensus.spectra import eigenvalues, multiset_contained
from reference import dense_lq, permutation_unitary, reconstruct, rk4_evolve, rk4_step


def swap2():
    return generator_set(2, [[[1, 2]]])


def g13():
    return generator_set(3, [[[1, 2, 3]], [[1, 2]]], ["w123", "w12"])


def g14():
    return generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]]])


def ring_swap(n):
    return generator_set(n, [[list(range(1, n + 1))], [[1, 2]]])


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- operator basis ---


def test_gellmann_d2_is_pauli():
    basis = gellmann_basis(2)
    assert_allclose(basis[0], np.eye(2))
    assert_allclose(basis[1], np.array([[0, 1], [1, 0]]))
    assert_allclose(basis[2], np.array([[0, -1j], [1j, 0]]))
    assert_allclose(basis[3], np.array([[1, 0], [0, -1]]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gellmann_orthogonality(d):
    basis = gellmann_basis(d)
    assert basis.shape == (d * d, d, d)
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert_allclose(gram, d * np.eye(d * d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gellmann_hermitian_traceless(d):
    basis = gellmann_basis(d)
    for a in range(d * d):
        assert_allclose(basis[a], basis[a].conj().T, atol=1e-12)
    for a in range(1, d * d):
        assert abs(np.trace(basis[a])) < 1e-12


def test_decompose_reconstruct_round_trip():
    rng = np.random.default_rng(42)
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        rho = random_density(rng, d**n)
        coeffs = decompose(rho, d=d)
        assert coeffs.shape == ((d * d) ** n,)
        assert coeffs.dtype == np.float64
        assert_allclose(reconstruct(coeffs, d=d), rho, atol=1e-12)


def test_decompose_identity_index_carries_trace():
    # the all-identity slot is flat index 0 in row-major order
    rng = np.random.default_rng(43)
    rho = random_density(rng, 8)
    coeffs = decompose(rho)
    assert_allclose(coeffs[0], 1.0, atol=1e-12)


def test_decompose_rejects_non_hermitian():
    m = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        decompose(m)


def test_decompose_of_maximally_mixed():
    coeffs = decompose(np.eye(4) / 4.0)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert_allclose(coeffs, expected, atol=1e-14)


# --- permutation unitaries ---


def test_swap_unitary_matrix():
    u = permutation_unitary(from_cycles(2, [[1, 2]]), 2)
    swap = np.array([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ], dtype=complex)
    assert_allclose(u, swap)


def test_cycle_unitary_moves_site_content_forward():
    # contents travel along the cycle: what sat at site 1 shows up at
    # site 2, so the basis ket 011 maps to 101
    p = from_cycles(3, [[1, 2, 3]])
    u = permutation_unitary(p, 2)
    src = 0b011
    dst = 0b101
    col = u[:, src]
    assert col[dst] == 1.0 and np.count_nonzero(col) == 1


def test_unitary_is_group_homomorphism():
    rng = np.random.default_rng(5)
    group = sorted(generate_group(g13()))
    for _ in range(10):
        p = group[rng.integers(len(group))]
        q = group[rng.integers(len(group))]
        from qconsensus.permgroup import compose

        u_pq = permutation_unitary(compose(p, q), 2)
        assert_allclose(u_pq, permutation_unitary(p, 2) @ permutation_unitary(q, 2),
                        atol=1e-12)


def test_unitary_conjugation_relabels_factors():
    rng = np.random.default_rng(6)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    prod = np.kron(np.kron(mats[0], mats[1]), mats[2])
    p = from_cycles(3, [[1, 2, 3]])
    u = permutation_unitary(p, 2)
    # site k of the conjugated operator holds the factor from the
    # preimage site, so (A, B, C) becomes (C, A, B) under the 3-cycle
    expected = np.kron(np.kron(mats[2], mats[0]), mats[1])
    assert_allclose(u @ prod @ u.conj().T, expected, atol=1e-12)


def test_unitary_is_unitary():
    p = from_cycles(4, [[1, 2], [3, 4]])
    u = permutation_unitary(p, 3)
    assert_allclose(u @ u.conj().T, np.eye(81), atol=1e-12)


# --- master equation right-hand side ---


def test_rhs_single_swap_basis_state():
    gens = swap2()
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # the 01 population
    out = lindblad_rhs(rho, None, gens, [0.8])
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 0.8
    expected[1, 1] = -0.8
    assert_allclose(out, expected, atol=1e-14)


def test_rhs_hamiltonian_term():
    gens = swap2()
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4)
    out = lindblad_rhs(rho, h, gens, [0.0])
    assert_allclose(out, -1j * (h @ rho - rho @ h), atol=1e-13)


def test_rhs_is_trace_free_and_hermitian():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 8)
    h = uniform_site_hamiltonian(2, 3)
    out = lindblad_rhs(rho, h, g13(), [0.3, 0.2])
    assert abs(np.trace(out)) < 1e-12
    assert_allclose(out, out.conj().T, atol=1e-12)


@pytest.mark.parametrize("gens,weights,d", [
    (g13(), [0.3, 0.2], 2),
    (g14(), [0.46, 0.29, 0.17], 2),
    (g13(), [0.3, 0.2], 3),
], ids=["g1-3", "g1-4", "g1-3-d3"])
def test_rhs_gathers_equal_dense_unitary_products(gens, weights, d):
    # a permutation-matrix product only moves entries, so the gathers
    # reproduce sum_p w_p (U_p rho U_p^T - rho) bit for bit
    rng = np.random.default_rng(19)
    dim = d**gens.n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    expected = np.zeros((dim, dim), dtype=complex)
    for p, w in zip(gens.perms, weights):
        u = permutation_unitary(p, d)
        expected += w * (u @ rho @ u.T - rho)
    np.testing.assert_array_equal(lindblad_rhs(rho, None, gens, weights, d=d), expected)


# --- integration ---


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


@pytest.mark.parametrize("gens,weights,d", [
    (g13(), [0.3, 0.2], 2),
    (swap2(), [0.7], 3),
    (g13(), [0.3, 0.2], 3),
], ids=["g1-3", "swap-d3", "g1-3-d3"])
@pytest.mark.parametrize("h0_kind", ["none", "zsum", "random"])
def test_step_operator_is_one_reference_rk4_step(gens, weights, d, h0_kind):
    rng = np.random.default_rng(21)
    dim = d**gens.n
    h0 = {"none": None,
          "zsum": uniform_site_hamiltonian(d, gens.n),
          "random": random_hermitian(rng, dim)}[h0_kind]
    rho = random_density(rng, dim)
    dt = 1e-2
    step = _step_operator(h0, gens, np.array(weights), dt, d)
    assert step.dtype == (float if h0 is None else complex)
    assert_allclose((step @ rho.reshape(-1)).reshape(dim, dim),
                    rk4_step(rho, h0, gens, weights, dt, d), rtol=0, atol=1e-14)


@pytest.mark.parametrize("gens,weights,d,zsum", [
    (g13(), [0.2, 0.2], 2, False),
    (g14(), [0.46, 0.29, 0.29], 2, False),
    (g13(), [0.2, 0.2], 3, False),
    (g13(), [0.2, 0.2], 2, True),
], ids=["g1-3", "g1-4", "g1-3-d3", "g1-3-zsum"])
def test_evolve_matches_per_step_reference(gens, weights, d, zsum):
    # the three `dynamics` benchmark inputs and the lab-frame `zsum` run
    rho0 = generic_state(d, gens.n, seed=1)
    h0 = uniform_site_hamiltonian(d, gens.n) if zsum else None
    traj = evolve(rho0, h0, gens, weights, t_final=2.0, d=d, store_every=10)
    ref = rk4_evolve(rho0, h0, gens, weights, t_final=2.0, d=d, store_every=10)
    assert_allclose(traj.times, ref.times, rtol=0, atol=0)
    assert_allclose(traj.states, ref.states, rtol=0, atol=1e-12)


@pytest.mark.parametrize("gens,weights,t_final,power", [
    (g13(), [0.3, 0.2], 2.0, True),
    (ring_swap(5), [0.3, 0.2], 0.3, False),
], ids=["power", "stepping"])
def test_evolve_segment_paths_match_single_steps(gens, weights, t_final, power):
    step = _step_operator(None, gens, np.array(weights), 1e-3, 2)
    assert _no_fill(step) is power
    rho0 = generic_state(2, gens.n, seed=4)
    every = evolve(rho0, None, gens, weights, t_final=t_final, store_every=1)
    tenth = evolve(rho0, None, gens, weights, t_final=t_final, store_every=10)
    assert_allclose(tenth.times, every.times[::10])
    assert_allclose(tenth.states, every.states[::10], rtol=0, atol=1e-13)


def test_evolve_chunks_stack_to_evolve_in_bounded_chunks():
    rho0 = generic_state(3, 3, seed=2)
    chunks = list(evolve_chunks(rho0, None, g13(), [0.2, 0.2], t_final=2.0, d=3,
                                store_every=10))
    traj = evolve(rho0, None, g13(), [0.2, 0.2], t_final=2.0, d=3, store_every=10)
    assert [len(s) for _, s in chunks] == [89, 89, 23]  # 27x27 states, 1 MB
    assert all(s.nbytes <= 1 << 20 for _, s in chunks)
    assert np.array_equal(np.concatenate([t for t, _ in chunks]), traj.times)
    assert np.array_equal(np.concatenate([s for _, s in chunks]), traj.states)


def test_no_fill_reads_dense_blocks_only():
    from scipy import sparse

    blocks = sparse.csr_array(np.kron(np.eye(3), np.ones((2, 2))))
    assert _no_fill(blocks)
    path = sparse.csr_array(np.eye(4) + np.eye(4, k=1))
    assert not _no_fill(path)


def test_evolve_checks_drift_at_stored_states():
    # an unstable dt is caught at the first stored state, not at a step
    rho0 = generic_state(2, 2, seed=3)
    with pytest.raises(StepSizeError, match=r"at t=50;"):
        evolve(rho0, None, swap2(), [1.0], t_final=60.0, dt=5.0, store_every=10)


def test_evolve_two_sites_reaches_group_average():
    rng = np.random.default_rng(10)
    rho0 = random_density(rng, 4)
    gens = swap2()
    traj = evolve(rho0, None, gens, [0.5], t_final=20.0, dt=1e-3, store_every=200)
    target = symmetric_state(rho0, [identity(2), (2, 1)])
    assert_allclose(traj.states[-1], target, atol=1e-7)
    assert_allclose(traj.times[-1], 20.0)


def test_evolve_preserves_density_invariants():
    rng = np.random.default_rng(11)
    rho0 = random_density(rng, 8)
    traj = evolve(rho0, None, g13(), [0.3, 0.2], t_final=3.0, dt=1e-3,
                  store_every=500)
    for state in traj.states:
        check_density(state)


def test_evolve_store_grid_includes_endpoints():
    rng = np.random.default_rng(12)
    rho0 = random_density(rng, 4)
    traj = evolve(rho0, None, swap2(), [0.4], t_final=1.0, dt=0.25, store_every=3)
    assert_allclose(traj.times, [0.0, 0.75, 1.0])
    assert_allclose(traj.states[0], rho0, atol=1e-14)
    # a stride past the step count, even past int64, stores only the ends
    traj = evolve(rho0, None, swap2(), [0.4], t_final=1.0, dt=0.25, store_every=2**64)
    assert_allclose(traj.times, [0.0, 1.0])


def test_evolve_nan_drift_is_a_step_size_error():
    # finite weights this large overflow the step operator to inf - inf =
    # NaN; that is caught before any step, and no RuntimeWarning escapes
    rho0 = generic_state(2, 3, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match="nan/inf"):
            evolve(rho0, None, g13(), [1e200, 0.2], t_final=0.01)


def test_evolve_rejects_oversized_state():
    dim = 2**9
    rho0 = np.eye(dim) / dim
    gens = generator_set(9, [[[1, 2]]])
    with pytest.raises(CapExceededError):
        evolve(rho0, None, gens, [0.1], t_final=0.1)


def test_evolve_validates_arguments():
    rho0 = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        evolve(rho0, None, swap2(), [0.1], t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(rho0, None, swap2(), [0.1], t_final=1.0, frame="rotating")
    for weights, match in (([math.nan], "finite"), ([math.inf], "finite"),
                           ([-0.5], "nonnegative")):
        with pytest.raises(ValueError, match=match):
            evolve(rho0, None, swap2(), weights, t_final=1.0)
    # a two-qubit state on three sites, refused before the step operator
    with pytest.raises(ValueError, match=r"^state size 4 is not d\^N = 2\^3$"):
        evolve(rho0, None, g13(), [0.3, 0.1], t_final=1.0)


@pytest.mark.parametrize("kwargs", [
    {"store_every": 0},
    {"store_every": -3},
    {"t_final": math.inf},
    {"t_final": math.nan},
    {"dt": math.nan},
    {"dt": math.inf},
    {"t_final": 1e300, "dt": 1e-300},
], ids=["store-every-0", "store-every-negative", "t-inf", "t-nan", "dt-nan", "dt-inf",
        "step-count-overflow"])
def test_evolve_rejects_bad_step_inputs(kwargs):
    args = {"t_final": 1.0, "dt": 1e-3, "store_every": 1, **kwargs}
    with pytest.raises(ValueError):
        evolve(np.eye(4) / 4.0, None, swap2(), [0.1], **args)


def test_evolve_flags_exploding_step():
    rho0 = generic_state(2, 2, seed=3)
    with pytest.raises(StepSizeError):
        evolve(rho0, None, swap2(), [1.0], t_final=60.0, dt=5.0)


def test_every_state_reader_rejects_the_same_bad_states(tmp_path):
    gens, w = g13(), [0.3, 0.1]

    def load(rho):
        path = tmp_path / "rho.txt"
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rho))
        return _load_rho0(str(path), 2, 3)

    # readers of one state on g1-3, readers of one state of any N, and
    # readers of a stack of states
    one_at_n = [
        lambda rho: lindblad_rhs(rho, None, gens, w),
        lambda rho: evolve(rho, None, gens, w, t_final=0.01),
        lambda rho: next(evolve_chunks(rho, None, gens, w, t_final=0.01)),
        lambda rho: symmetric_state(rho, gens.perms),
    ]
    one = [decompose, check_density]
    stack = [lambda rho: reduced_state(rho, 1), sync_distance]

    def shape_fault(shape):
        return rf"state shape {re.escape(str(shape))} is not \(\.\.\., d\^N, d\^N\) at d=2$"

    bad_shapes = [np.array(1.0), np.ones(8), np.zeros((0, 0)), np.zeros((8, 4)),
                  np.eye(6) / 6.0]
    faults = [(rho, shape_fault(rho.shape), one_at_n + one + stack) for rho in bad_shapes]
    faults += [
        (np.zeros((4, 4)), r"state size 4 is not d\^N = 2\^3$", one_at_n),
        (np.zeros((2, 8, 8)), r"one state required, got shape \(2, 8, 8\)$", one_at_n + one),
    ]
    for rho, message, readers in faults:
        for call in readers:
            with pytest.raises(ValueError, match=f"^{message}"):
                call(rho)
    # the CLI's --rho0 reader, on the states a text file can hold; an empty
    # file is a 1-d array of length 0
    for rho, message in ((np.zeros((8, 4)), shape_fault((8, 4))),
                         (np.eye(6) / 6.0, shape_fault((6, 6))),
                         (np.zeros((4, 4)), r"state size 4 is not d\^N = 2\^3$"),
                         ([], shape_fault((0,)))):
        with pytest.raises(ValueError, match=f": bad initial state: {message}"):
            load(rho)


def test_every_d_reader_rejects_the_same_bad_d():
    # the d rule runs before any shape is read: without it a 1x1 state at
    # d=1 reads as N=0, a 4x4 state at d=-2 as N=2, and build_lq at d=1
    # is a 1x1 zero matrix
    gens = g13()
    readers = [
        lambda d: lindblad_rhs(np.eye(1), None, gens, [0.3, 0.1], d=d),
        lambda d: reduced_state(np.eye(4) / 4, 1, d=d),
        lambda d: decompose(np.eye(4) / 4, d=d),
        lambda d: symmetric_state(np.eye(4) / 4, [], d=d),
        lambda d: build_lq(gens, [0.3, 0.1], d=d),
        gellmann_basis,
    ]
    for d in (1, 0, -2):
        for call in readers:
            with pytest.raises(ValueError, match=r"^d must be >= 2$"):
                call(d)
    for d in (2.0, "2"):
        for call in readers:
            with pytest.raises(ValueError, match=r"^d must be an integer, got "):
                call(d)


def test_rhs_converts_a_nested_list_state():
    rng = np.random.default_rng(22)
    rho = random_density(rng, 8)
    got = lindblad_rhs(rho.tolist(), None, g13(), [0.3, 0.1])
    np.testing.assert_array_equal(got, lindblad_rhs(rho, None, g13(), [0.3, 0.1]))


# --- symmetric state and observables ---


def test_symmetric_state_is_stationary_and_idempotent():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 8)
    group = sorted(generate_group(g13()))
    sym = symmetric_state(rho, group)
    check_density(sym)
    assert_allclose(symmetric_state(sym, group), sym, atol=1e-12)
    rhs = lindblad_rhs(sym, None, g13(), [0.7, 0.4])
    assert np.abs(rhs).max() < 1e-12


def test_symmetric_state_invariant_under_each_unitary():
    rng = np.random.default_rng(15)
    rho = random_density(rng, 8)
    group = sorted(generate_group(g13()))
    sym = symmetric_state(rho, group)
    for p in group:
        u = permutation_unitary(p, 2)
        assert_allclose(u @ sym @ u.conj().T, sym, atol=1e-12)


def dense_group_average(rho, group, d=2):
    out = np.zeros_like(rho)
    for g in group:
        u = permutation_unitary(g, d)
        out += u @ rho @ u.T
    return out / len(group)


def test_symmetric_state_of_c3_generators():
    # identity plus a 3-cycle is not closed; the average runs over the
    # cyclic group C3 that they generate
    rng = np.random.default_rng(20)
    rho = random_density(rng, 8)
    c = from_cycles(3, [[1, 2, 3]])
    c3 = [identity(3), c, compose(c, c)]
    got = symmetric_state(rho, [identity(3), c])
    assert_allclose(got, dense_group_average(rho, c3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("gens,d", [
    (g13(), 2),
    (g14(), 2),
    (g13(), 3),
    (generator_set(4, [[[1, 2], [3, 4]]]), 3),
], ids=["g1-3", "g1-4", "g1-3-d3", "double-swap-d3"])
def test_symmetric_state_from_generators_is_dense_group_average(gens, d):
    rng = np.random.default_rng(21)
    rho = random_density(rng, d**gens.n)
    expected = dense_group_average(rho, generate_group(gens), d)
    got = symmetric_state(rho, gens.perms, d=d)
    assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_symmetric_state_ring_swap_seven_sites():
    # |G| = 5040: the target comes from the two generators alone
    gens = generator_set(7, [[[1, 2, 3, 4, 5, 6, 7]], [[1, 2]]])
    rng = np.random.default_rng(22)
    rho = random_density(rng, 2**7)
    sym = symmetric_state(rho, gens.perms)
    for p in gens.perms:
        u = permutation_unitary(p, 2)
        assert_allclose(u @ sym @ u.T, sym, rtol=0, atol=1e-15)
    assert_allclose(symmetric_state(sym, gens.perms), sym, rtol=0, atol=1e-15)
    assert abs(np.trace(sym) - 1.0) < 1e-13


def test_symmetric_state_averages_coefficients():
    rng = np.random.default_rng(16)
    rho = random_density(rng, 8)
    group = sorted(generate_group(g13()))
    sym_coeffs = decompose(symmetric_state(rho, group))
    x = decompose(rho).reshape(4, 4, 4)
    avg = np.zeros_like(x)
    for nu in itertools.product(range(4), repeat=3):
        vals = [x[compose(nu, p)] for p in group]
        avg[nu] = np.mean(vals)
    assert_allclose(sym_coeffs, avg.reshape(-1), atol=1e-10)


def test_reduced_state_of_product():
    rng = np.random.default_rng(17)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    rho = np.kron(a, b)
    assert_allclose(reduced_state(rho, 1), a, atol=1e-12)
    assert_allclose(reduced_state(rho, 2), b, atol=1e-12)
    with pytest.raises(ValueError):
        reduced_state(rho, 3)


def test_reduced_state_of_bell_pair():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    assert_allclose(reduced_state(rho, 1), np.eye(2) / 2.0, atol=1e-12)
    assert_allclose(reduced_state(rho, 2), np.eye(2) / 2.0, atol=1e-12)


def test_sync_distance_extremes():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert_allclose(sync_distance(np.kron(zero, one)), np.sqrt(2.0), atol=1e-12)
    assert sync_distance(np.kron(zero, zero)) < 1e-14


def test_sync_distance_of_a_stack_is_per_state():
    rho0 = generic_state(3, 3, seed=5)
    traj = evolve(rho0, None, g13(), [0.3, 0.2], t_final=1.0, d=3, store_every=50)
    stacked = sync_distance(traj.states, d=3)
    assert stacked.shape == (len(traj.states),)
    assert_allclose(stacked, [sync_distance(s, d=3) for s in traj.states],
                    rtol=1e-15, atol=0)
    assert_allclose(reduced_state(traj.states, 2, d=3)[-1],
                    reduced_state(traj.states[-1], 2, d=3), rtol=1e-15)


def test_uniform_site_hamiltonian_commutes_with_swaps():
    h = uniform_site_hamiltonian(2, 3)
    assert_allclose(np.diag(h), [3, 1, 1, -1, 1, -1, -1, -3])
    unitaries = [permutation_unitary(p, 2) for p in g13().perms]

    def commutes(m):
        return all(np.abs(u @ m - m @ u).max() < 1e-10 for u in unitaries)

    assert commutes(h)
    # a single-site term on one site only is not invariant
    lopsided = np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex)
    assert not commutes(lopsided)


def test_check_density_rejects_bad_inputs():
    check_density(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        check_density(np.eye(2))
    with pytest.raises(ValueError):
        check_density(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]).astype(complex))


# --- coefficient flow matrix ---


def test_lq_single_swap_layout():
    lq = build_lq(swap2(), [0.7])
    assert lq.shape == (16, 16)
    assert np.all(lq.sum(axis=1) == 0.0)
    # the 01 coefficient relaxes against the 10 coefficient
    assert_allclose(lq[1, 1], 0.7)
    assert_allclose(lq[1, 4], -0.7)
    assert_allclose(lq[0, 0], 0.0)


def test_lq_spectrum_is_union_of_tabloid_spectra():
    """Every content class of coefficient indices is one tabloid block.

    Indices sharing a symbol multiset are permuted among themselves, so
    the flow matrix is block-diagonalizable with one tabloid Laplacian
    per class; its spectrum is the multiset union of the block spectra.
    """
    gens = g13()
    w = [0.31, 0.17]
    got = eigenvalues(build_lq(gens, w))

    classes = {tuple(sorted(nu)) for nu in itertools.product(range(4), repeat=3)}
    assert len(classes) == 20
    cache = {}
    blocks = []
    for cls in sorted(classes):
        shape = tuple(sorted((cls.count(s) for s in set(cls)), reverse=True))
        if shape == (3,):
            blocks.append(np.array([0.0 + 0.0j]))
            continue
        if shape not in cache:
            cache[shape] = eigenvalues(induced_laplacian(shape, gens, w).laplacian)
        blocks.append(cache[shape])
    spectrum = np.concatenate(blocks)
    assert len(spectrum) == len(got) == 64
    ok, defect, _ = multiset_contained(spectrum, got, tol=1e-9)
    assert ok and defect < 1e-9


def test_lq_matches_rhs_on_random_state():
    rng = np.random.default_rng(18)
    gens = g13()
    w = [0.4, 0.3]
    rho = random_density(rng, 8)
    lhs = decompose(lindblad_rhs(rho, None, gens, w))
    lq = build_lq(gens, w)
    assert_allclose(lhs, -(lq @ decompose(rho)), atol=1e-12)


def lq_cases():
    """The presets at the weights of ``tools/same_numbers.py``, ring+swap on 3 to
    5 sites at its three draws, five generators on 4 sites (once with a zero
    weight), and three equal generators, whose weights sum in one entry in
    generator order."""
    presets = {
        "g1-3": [(0.3, 0.1), (0.2, 0.2), (0.05, 0.41)],
        "g2-3": [(0.2, 0.2, 0.2), (0.3, 0.1, 0.25), (0.01, 0.7, 0.02)],
        "g3-3": [(0.3, 0.4), (0.25, 0.25), (0.9, 0.01)],
        "g1-4": [(0.1, 0.1, 0.1), (0.11, 0.13, 0.17), (0.46, 0.29, 0.29),
                 (0.1, 0.2, 0.15)],
    }
    for name, draws in presets.items():
        for w in draws:
            yield load_topology(name).gens, w
    for n in range(3, 6):
        for w in 1.0 - np.random.default_rng(20261018).random((3, 2)):
            yield ring_swap(n), w
    five = generator_set(4, [[[1, 2, 3, 4]], [[1, 2]], [[3, 4]], [[1, 3, 2]], [[2, 4]]])
    yield five, [0.1, 0.2, 0.3, 0.15, 0.05]
    yield five, [0.1, 0.0, 0.3, 0.15, 0.05]
    yield generator_set(3, [[[1, 2]], [[1, 2]], [[1, 2]], [[2, 3]]]), [0.1, 0.2, 0.3, 0.7]


@pytest.mark.parametrize("d", [2, 3])
def test_lq_is_the_dense_scatter_bit_for_bit(d):
    # build_lq reindexes the sparse generator; the reference scatters each
    # generator into a dense matrix on the multi-indices
    for gens, w in lq_cases():
        if (d * d) ** gens.n <= LQ_DIM_CAP:
            np.testing.assert_array_equal(build_lq(gens, w, d=d), dense_lq(gens, w, d=d))


@pytest.mark.parametrize("d", [2, 3])
def test_generator_rows_sum_to_exactly_zero(d):
    for gens, w in lq_cases():
        if (d * d) ** gens.n <= LQ_DIM_CAP:
            s = _generator(gens.perms, w, gens.n, d)
            assert s.dtype == float
            assert np.all(s @ np.ones(s.shape[0]) == 0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_a_zero_weight_stores_no_entry(d):
    # an explicit zero in S's pattern would join its components and count
    # in the nnz that decides whether evolve powers the step operator
    for gens, w in lq_cases():
        if (d * d) ** gens.n <= LQ_DIM_CAP:
            w = np.r_[0.0, w[1:]]
            s = _generator(gens.perms, w, gens.n, d)
            assert np.all(s.data != 0.0)
            # two generators that move a row to one entry store it twice
            s.sum_duplicates()
            assert s.nnz == np.count_nonzero(dense_lq(gens, w, d=d))


def test_lq_rejects_oversized_index_space():
    gens = generator_set(7, [[[1, 2]]])
    with pytest.raises(CapExceededError):
        build_lq(gens, [0.1], d=2)


# --- decay fitting and generic states ---


def test_fit_decay_rate_recovers_synthetic_slope():
    t = np.linspace(0.0, 30.0, 400)
    vals = 3.0 * np.exp(-0.7 * t)
    assert_allclose(fit_decay_rate(t, vals), 0.7, rtol=1e-10)


def test_fit_decay_rate_ignores_out_of_window_samples():
    t = np.linspace(0.0, 30.0, 400)
    vals = 3.0 * np.exp(-0.7 * t)
    # corrupt the early, above-window part of the series
    vals[vals > 1e-2] *= 7.0
    assert_allclose(fit_decay_rate(t, vals), 0.7, rtol=1e-6)


def test_fit_decay_rate_needs_enough_samples():
    t = np.linspace(0.0, 5.0, 50)
    vals = np.full(50, 0.5)
    with pytest.raises(InsufficientDecayError):
        fit_decay_rate(t, vals)


def test_frobenius_distances_shape_and_values():
    states = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)])
    ref = np.eye(2, dtype=complex)
    assert_allclose(frobenius_distances(states, ref), [0.0, np.sqrt(2.0)])


def test_generic_state_is_reproducible_density():
    a = generic_state(2, 3, seed=0)
    b = generic_state(2, 3, seed=0)
    assert_allclose(a, b, atol=0)
    check_density(a)
    assert generic_state(2, 3, seed=1) is not None


def test_generic_state_rejects_mismatched_site_count():
    with pytest.raises(ValueError, match="site count"):
        generic_state(2, 4, gens=g13(), weights=[0.3, 0.2])


def test_generic_state_solves_no_eigenproblem(monkeypatch):
    # the topology keywords do not steer the draw, even where a dense
    # eigensolve of the coefficient generator would still fit in memory
    gens = generator_set(6, [[[1, 2, 3, 4, 5, 6]], [[1, 2]]])
    plain = generic_state(2, 6, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("generic_state solved an eigenproblem")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    got = generic_state(2, 6, seed=0, gens=gens, weights=[0.3, 0.2])
    np.testing.assert_array_equal(got, plain)


def test_generic_state_overlaps_slowest_mode():
    gens = g13()
    w = [0.3, 0.2]
    rho = generic_state(2, 3, seed=0, gens=gens, weights=w)
    check_density(rho)
    lq = build_lq(gens, w)
    vals, vecs = np.linalg.eig(lq.T)
    nonzero = np.abs(vals) > 1e-9
    k = int(np.argmin(np.where(nonzero, vals.real, np.inf)))
    mode = vecs[:, k]
    overlap = abs(np.vdot(mode, decompose(rho).reshape(-1)))
    assert overlap > 1e-6
