"""References the tests compare the package against.

None of these runs in the package: the dynamics applies dense orbit
blocks of one RK4 step operator (or its sparse form), ``build_lq``
scatters the generator's rows, and the rates read the irrep blocks of
``induced``, whose tableaux and letters are arrays built for every shape
at once and which skip the fixed-space decomposition when a
transposition proves the group S_N.  The Gell-Mann basis and the
coefficient vector of a state over it (:func:`decompose`) live here
too: the package reads only the basis's last diagonal.  The site graph
(:func:`generator_laplacian`) is :func:`scatter_laplacian` over the
site table, sharing no code with ``permgroup.laplacian_rows``.
"""

import math

import numpy as np

from qconsensus.induced import ZERO_TOL, _bubble_word
from qconsensus.permgroup import (
    GeneratorSet,
    Permutation,
    check_d,
    check_weights,
    compose,
    generate_group,
)
from qconsensus.quantum import (
    StepSizeError,
    Trajectory,
    _generator,
    _interleave,
    _pull_map,
    check_state,
    check_steps,
    lindblad_rhs,
    state_sites,
)


def gellmann_basis(d: int) -> np.ndarray:
    """The d*d Hermitian basis matrices, identity first.

    Families come in a fixed order: identity, then the symmetric
    pair matrices (j < k lexicographic), the antisymmetric ones, and the
    diagonal ladder.  Everything is scaled so tr(b_a b_b) = d*delta_ab,
    which for d = 2 gives exactly the identity plus the three Pauli
    matrices.
    """
    check_d(d)
    mats = [np.eye(d, dtype=complex)]
    s = math.sqrt(d / 2.0)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = s
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j * s
            m[k, j] = 1j * s
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -l
        mats.append(m * (s * math.sqrt(2.0 / (l * (l + 1)))))
    return np.stack(mats)


def decompose(rho: np.ndarray, d: int = 2) -> np.ndarray:
    """Real coefficient vector of rho over the tensor Gell-Mann basis.

    Entry (mu_1,..,mu_N), flattened row-major, is tr(rho * b_{mu_1} x
    ... x b_{mu_N}).  The (0,..,0) entry equals the trace.
    """
    rho = np.asarray(rho, dtype=complex)
    n = state_sites(rho, d)
    check_state(rho, n, d)
    basis = gellmann_basis(d)
    # contraction matrix M[a, i*d+j] = b_a[j, i] so that the trace pairing
    # tr(rho b) = sum_ij rho[i,j] b[j,i] is a flat dot product per site
    m = np.transpose(basis, (0, 2, 1)).reshape(d * d, d * d)
    t = rho.reshape(-1)[_interleave(n, d)].reshape((d * d,) * n)
    for _ in range(n):
        t = np.tensordot(t, m, axes=([0], [1]))
    flat = t.reshape(-1)
    worst = float(np.abs(flat.imag).max())
    if worst > 1e-6:
        raise ValueError(f"coefficients are not real (max imag {worst:.2e}); "
                         "input is far from Hermitian")
    return flat.real.copy()


def reconstruct(coeffs: np.ndarray, d: int = 2) -> np.ndarray:
    """Inverse of :func:`decompose` (includes the 1/d^N prefactor)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = 0
    while (d * d) ** n < coeffs.size:
        n += 1
    basis = gellmann_basis(d)
    h = basis.reshape(d * d, d * d).T / d
    t = coeffs.reshape((d * d,) * n).astype(complex)
    for _ in range(n):
        t = np.tensordot(t, h, axes=([0], [1]))
    t = t.reshape((d, d) * n)
    rows = [2 * k for k in range(n)]
    cols = [2 * k + 1 for k in range(n)]
    t = np.transpose(t, rows + cols)
    dim = d**n
    return t.reshape(dim, dim)


def inverse(p: Permutation) -> Permutation:
    """The permutation that undoes ``p``: inverse(p)(p(i)) = i."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def permutation_unitary(p: Permutation, d: int) -> np.ndarray:
    """Unitary that transports the state of site j to site p(j).

    On basis kets: U_p |y_1 .. y_N> = |x_1 .. x_N> with x_k = y_{p^{-1}(k)}.
    The map p -> U_p is a group homomorphism.  Dense reference only: the
    dynamics applies U_p as a gather.
    """
    s = _pull_map(tuple(p), d)
    u = np.zeros((s.size, s.size))
    u[np.arange(s.size), s] = 1.0
    return u


def cayley_laplacian(gens: GeneratorSet, weights=None) -> np.ndarray:
    """Laplacian of the Cayley digraph of the generated group: x attends to x*s.

    Vertices are the group elements in sorted (lexicographic) order;
    ``weights`` defaults to 1.0 per generator.
    """
    if weights is None:
        weights = np.ones(len(gens))
    group = sorted(generate_group(gens))
    index = {x: i for i, x in enumerate(group)}
    L = np.zeros((len(group), len(group)))
    for x in group:
        for s, w in zip(gens.perms, weights):
            i, j = index[x], index[compose(x, s)]
            L[i, i] += w
            L[i, j] -= w
    return L


def scatter_laplacian(img, weights) -> np.ndarray:
    """sum_g w_g (I - P_g) over a (V, m) image table, generator g moving
    point i to ``img[i, g]``, one dense scatter per generator: row i gets
    -w_g at img[i, g] and +w_g on the diagonal for every g that moves i.
    It shares no code with ``permgroup.laplacian_rows``."""
    img = np.asarray(img)
    idx = np.arange(len(img))
    L = np.zeros((idx.size, idx.size))
    with np.errstate(over="ignore"):
        for target, w in zip(img.T, weights):
            moved = target != idx
            rows = idx[moved]
            L[rows, target[moved]] -= w
            L[rows, rows] += w
    return L


def generator_laplacian(gens: GeneratorSet, weights) -> np.ndarray:
    """The site graph L = sum_p w_p (I - P_p) on site labels:
    :func:`scatter_laplacian` over the site table v -> p^{-1}(v), so
    vertex v is attracted toward the state at u = p^{-1}(v) with strength
    w_p.  The shape ``(n-1, 1)`` induced graph is this Laplacian with each
    tabloid relabeled by its singleton position."""
    # p^-1(v) is where p takes the value v
    sites = np.argsort(np.array(gens.perms), axis=1).T
    return scatter_laplacian(sites, check_weights([weights], len(gens))[0])


def kron_site_hamiltonian(d: int, n_sites: int) -> np.ndarray:
    """Sum over sites of the last Gell-Mann matrix on that site and the
    identity elsewhere, each term a chain of Kronecker products, added in
    site order into a complex zero matrix."""
    h_site = gellmann_basis(d)[-1]
    out = np.zeros((d**n_sites, d**n_sites), dtype=complex)
    for k in range(n_sites):
        term = np.ones((1, 1), dtype=complex)
        for j in range(n_sites):
            term = np.kron(term, h_site if j == k else np.eye(d, dtype=complex))
        out += term
    return out


def dense_lq(gens: GeneratorSet, weights, d: int = 2) -> np.ndarray:
    """Laplacian of the coefficient dynamics on all d^(2N) multi-indices:
    :func:`scatter_laplacian` over the pull rule of ``_pull_map`` at base
    d*d, so row nu gets -w at nu o p for every generator p that moves nu."""
    weights = check_weights([weights], len(gens))[0]
    img = np.array([_pull_map(p, d * d) for p in gens.perms]).reshape(-1, (d * d) ** gens.n)
    return scatter_laplacian(img.T, weights)


def components(t) -> np.ndarray:
    """Weakly connected component of each row of the square sparse matrix
    T's pattern, by ``scipy.sparse.csgraph`` (no package code)."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(abs(t), directed=True, connection="weak")[1]


def no_fill(t) -> bool:
    """True iff T's pattern is a disjoint union of dense blocks, so that
    every power of T keeps its pattern: sum |B|^2 == nnz over the weakly
    connected components B of the pattern.  The sparse rule the block
    decision of ``quantum._orbit_step`` must agree with."""
    sizes = np.bincount(components(t)).astype(np.int64)
    return int((sizes * sizes).sum()) == t.nnz


def sparse_lambda_cons(gens: GeneratorSet, weights, d: int = 2) -> float:
    """lambda_cons as the slowest nonzero decay of the master equation's
    generator S (``quantum._generator``), by ARPACK, with no irrep involved.

    At positive weights the kernel of S is spanned by the indicators of the
    orbits of the entries of rho, the components of S's pattern.  With Pi
    the projector that removes them, S Pi - sigma (I - Pi) at sigma = 2W + 1
    moves the kernel below every other eigenvalue (whose real parts lie in
    [-2W, 0) by Gershgorin), so its rightmost eigenvalue is -lambda_cons.
    """
    from scipy.sparse.linalg import LinearOperator, eigs

    weights = check_weights([weights], len(gens))[0]
    s = _generator(gens.perms, weights, gens.n, d)
    orbit = components(s)
    size = np.bincount(orbit)
    sigma = 2.0 * weights.sum() + 1.0

    def matvec(v):
        v = np.ravel(v)
        mean = (np.bincount(orbit, v) / size)[orbit]
        return s @ (v - mean) - sigma * mean

    op = LinearOperator(s.shape, matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).random(s.shape[0])
    vals = eigs(op, k=6, which="LR", ncv=40, tol=1e-13, v0=v0,
                return_eigenvectors=False)
    return -float(vals.real.max())


def rk4_step(rho, h0, gens, weights, dt, d=2):
    """One classic RK4 step of the master equation, four right-hand sides."""
    k1 = lindblad_rhs(rho, h0, gens, weights, d)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, h0, gens, weights, d)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, h0, gens, weights, d)
    k4 = lindblad_rhs(rho + dt * k3, h0, gens, weights, d)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_evolve(rho0, h0, gens, weights, t_final, dt=1e-3, d=2, store_every=1):
    """Per-step RK4 integration: every step calls :func:`lindblad_rhs` four
    times, then is drift-checked, re-Hermitized and trace-renormalized."""
    steps = check_steps(t_final, dt, store_every)
    weights = check_weights([weights], len(gens))[0]
    rho0 = np.asarray(rho0, dtype=complex)
    check_state(rho0, gens.n, d)
    dim = rho0.shape[0]
    stored_idx = list(range(0, steps, store_every)) + [steps]
    states = np.empty((len(stored_idx), dim, dim), dtype=complex)
    times = np.array([i * dt for i in stored_idx])

    rho = 0.5 * (rho0 + rho0.conj().T)
    rho = rho / np.trace(rho).real
    states[0] = rho
    pos = 1
    for i in range(1, steps + 1):
        rho = rk4_step(rho, h0, gens, weights, dt, d)
        tr = np.trace(rho)
        herm_defect = float(np.abs(rho - rho.conj().T).max())
        drift = abs(tr - 1.0) + herm_defect
        if not drift <= 1e-6:
            raise StepSizeError(
                f"invariant drift {drift:.2e} at t={i*dt:.6g}; reduce dt"
            )
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        if pos < len(stored_idx) and stored_idx[pos] == i:
            states[pos] = rho
            pos += 1
    return Trajectory(times=times, states=states)


def block_group(rows, powers, rho, out, times):
    """One group of stored states on the orbit-block path in its direct
    form: per block size the product lands by a 2-D scatter of its
    transposed view, the drift is the modulus of every entry of out - flip,
    and each state is halved and divided by its trace as a complex array.
    The package's placement index, reciprocal scaling and drift screen
    must agree with it bit for bit (``quantum._block_states`` and
    ``quantum._condition``)."""
    c = len(out)
    flat = rho.reshape(-1)
    for r, p in zip(rows, powers):
        count, k = r.shape
        x = flat[r]
        if np.iscomplexobj(p):
            y = p[:, :c * k] @ x[..., None]
        else:
            y = (p[:, :c * k] @ x.view(np.float64).reshape(count, k, 2)).view(complex)
        out.reshape(c, -1)[:, r] = y.reshape(count, c, k).transpose(1, 0, 2)
    flip = out.conj().transpose(0, 2, 1)
    drift = (np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)
             + np.abs(out - flip).max(axis=(1, 2)))
    bad = ~(drift <= 1e-6)
    if bad.any():
        j = int(np.argmax(bad))
        raise StepSizeError(f"invariant drift {drift[j]:.2e} at t={times[j]:.6g}; reduce dt")
    out += flip
    out *= 0.5
    out /= np.trace(out, axis1=1, axis2=2).real[:, None, None]


def random_generator_sets(seed: int, count: int, max_n: int) -> list[GeneratorSet]:
    """``count`` seeded generator sets on 3 to ``max_n`` sites: a random
    permutation, then a random transposition in two sets of three and a
    second permutation in every other set, so that a transposition proves
    S_N on some, the group is S_N without one on others, and a proper
    subgroup on the rest."""
    rng = np.random.default_rng(seed)
    out = []
    for case in range(count):
        n = int(rng.integers(3, max_n + 1))
        perms = []
        for kind in ["perm"] + ["swap"] * (case % 3 != 0) + ["perm"] * (case % 2):
            p = np.arange(1, n + 1)
            while np.array_equal(p, np.arange(1, n + 1)):
                if kind == "swap":
                    a, b = rng.choice(n, 2, replace=False)
                    p[[a, b]] = p[[b, a]]
                else:
                    p = rng.permutation(n) + 1
            perms.append(tuple(int(x) for x in p))
        out.append(GeneratorSet(n, tuple(perms)))
    return out


def standard_tableaux_loops(parts) -> list[tuple[int, ...]]:
    """Standard Young tableaux of one shape as row words, ascending
    lexicographic, by a depth-first recursion that places entry k in each
    row that may take it, rows in ascending order."""
    out: list[tuple[int, ...]] = []
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


def young_orthogonal_loops(parts, perms) -> np.ndarray:
    """Young's orthogonal form of one shape with its letters built by tuple
    loops over :func:`standard_tableaux_loops`: contents by counting, each
    s_i T looked up in a dict, then the package's row-operation products
    in the same order."""
    tabs = standard_tableaux_loops(parts)
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


def fixed_space_block(parts, gens: GeneratorSet) -> tuple[np.ndarray, int]:
    """(coeffs, fixed) of an irrep block by the singular value decomposition
    of the stacked I - rho(p) on every generator set: the null space (to
    ``ZERO_TOL``) is projected out, and with none the tableau basis kept."""
    rho = young_orthogonal_loops(parts, gens.perms)
    eye = np.eye(rho.shape[1])
    coeffs = eye - rho
    _, sv, vt = np.linalg.svd(np.concatenate(coeffs), full_matrices=False)
    rank = int(np.sum(sv > ZERO_TOL))
    if rank < len(eye):
        basis = vt[:rank].T
        coeffs = basis.T @ coeffs @ basis
    return coeffs, len(eye) - rank
