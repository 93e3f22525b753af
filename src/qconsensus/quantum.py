"""Density-matrix dynamics driven by weighted permutation swaps.

The master equation integrated here is

    drho/dt = -i [H0, rho] + sum_p w_p (U_p rho U_p^dag - rho)

with one unitary U_p per generator permutation.  U_p moves the content
of site j to site p(j); equivalently it conjugates an elementary tensor
Q_1 x ... x Q_N into the tensor with Q_{p^{-1}(k)} at slot k.  With that
orientation the coefficient vector of rho in the tensor-product
Gell-Mann basis obeys dX/dt = -L X for the same pull-rule Laplacian the
induced graphs use, which is what :func:`build_lq` returns and what
the cross-validation tests lean on.

States are plain dense numpy arrays and every U_p acts on them as an
index gather (:func:`_pull_map`).  :func:`_generator_rows` gives the
rows of the equation's generator S on row-major vec(rho), as
``permgroup.laplacian_rows`` of the pair image table
(:func:`_pair_images`).  :func:`evolve_chunks` turns them into dense RK4
step blocks, one per orbit of S's pattern (:func:`_orbit_step`), or, where
powers of the step would fill, into the sparse step of
:func:`_generator`, the one importer of ``scipy.sparse``;
:func:`build_lq` scatters them densely at the :func:`_interleave` map
that :func:`decompose` reads too, and :func:`symmetric_state` averages
over the :func:`_components` of the image table.  :func:`lindblad_rhs`
applies the gathers without S.  Sites are 1-based and d, the per-site
dimension, passes ``permgroup.check_d``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .permgroup import (
    GeneratorSet,
    Permutation,
    check_cap,
    check_d,
    check_weights,
    laplacian_matrix,
    laplacian_rows,
)

EVOLVE_DIM_CAP = 256
LQ_DIM_CAP = 4096
STEP_CAP = 10**7


class StepSizeError(RuntimeError):
    """Integrator invariants drifted too far; a smaller dt is needed."""


class InsufficientDecayError(RuntimeError):
    """Too few trajectory samples inside the decay-fit window."""


def state_sites(rho, d: int) -> int:
    """N of a state or stack of states whose last two axes are d^N x d^N, else
    ValueError: the one state rule, which every state reader checks first."""
    check_d(d)
    shape = np.shape(rho)
    side = shape[-1] if len(shape) > 1 and shape[-2] == shape[-1] else 0
    n = next((k for k in range(side.bit_length()) if d**k == side), None)
    if n is None:
        raise ValueError(f"state shape {shape} is not (..., d^N, d^N) at d={d}")
    return n


def check_state(rho, n: int, d: int) -> None:
    """ValueError unless rho is one d^n x d^n state (:func:`state_sites`)."""
    if state_sites(rho, d) != n:
        raise ValueError(f"state size {np.shape(rho)[-1]} is not d^N = {d}^{n}")
    if np.ndim(rho) != 2:
        raise ValueError(f"one state required, got shape {np.shape(rho)}")


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


@functools.lru_cache(maxsize=256)
def _pull_map(p: Permutation, base: int) -> np.ndarray:
    """Read-only index map s: s[x] has base-ary digit k equal to x's digit p(k).

    Digits are sites, most significant first.  On kets (base d) U_p has
    a one in each (x, s[x]), so (U_p rho U_p^dag)[a, b] = rho[s[a], s[b]];
    on Gell-Mann coefficients (base d*d) s is the induced graphs' pull rule.
    """
    n = len(p)
    place = base ** np.arange(n - 1, -1, -1)
    digits = (np.arange(base**n)[:, None] // place) % base
    s = digits[:, [k - 1 for k in p]] @ place
    s.flags.writeable = False
    return s


def _interleave(n: int, d: int) -> np.ndarray:
    """Row-major vec(rho) index of each Gell-Mann multi-index: the pull map of
    the digit shuffle (1, 3, .., 2N-1, 2, 4, .., 2N) at base d, so multi-index
    digit k, a_k*d + b_k, pairs row digit a_k with column digit b_k."""
    return _pull_map(tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2)), d)


def lindblad_rhs(
    rho: np.ndarray,
    h0: np.ndarray | None,
    gens: GeneratorSet,
    weights,
    d: int = 2,
) -> np.ndarray:
    """Right-hand side of the master equation at one state."""
    weights = check_weights([weights], len(gens))[0]
    rho = np.asarray(rho)
    check_state(rho, gens.n, d)
    out = np.zeros_like(rho, dtype=complex)
    if h0 is not None:
        out -= 1j * (h0 @ rho - rho @ h0)
    for p, w in zip(gens.perms, weights):
        if w != 0.0:
            s = _pull_map(p, d)
            out += w * (rho[s[:, None], s[None, :]] - rho)
    return out


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray


def evolve(
    rho0: np.ndarray,
    h0: np.ndarray | None,
    gens: GeneratorSet,
    weights,
    t_final: float,
    dt: float = 1e-3,
    frame: str = "lab",
    d: int = 2,
    store_every: int = 1,
) -> Trajectory:
    """Fixed-step 4th-order integration of the master equation (lab frame).

    The equation is linear and time-invariant, so one RK4 step is the
    fixed polynomial T1 = T4(dt*S) = sum_{j<=4} (dt*S)^j / j! of the
    superoperator S, built once.  S is block diagonal over the orbits of
    the entries (a, b) of rho, so where every dense block of T1 has no
    zero entry (:func:`_orbit_step`; H0 absent or diagonal) T1 is held as
    numpy blocks and each group of stored states, segments of k steps
    apart, is one product with the stacked powers of T1^k.  Otherwise
    (powers of T1 would fill its blocks, or H0 is not diagonal) T1 is
    the sparse :func:`_step_operator` and each segment is k products
    with it.  Weights must pass :func:`check_weights` and the state
    :func:`check_state`, both checked before the step operator.  A step
    operator with nan/inf entries raises :class:`StepSizeError` before
    any step; each stored state is re-Hermitized and trace-renormalized,
    and its drift beyond 1e-6, or NaN, raises :class:`StepSizeError`.
    The states are those of :func:`evolve_chunks`, stacked.
    """
    if frame != "lab":
        raise ValueError(f"unknown frame {frame!r}")
    times, states = zip(*evolve_chunks(rho0, h0, gens, weights, t_final, dt=dt,
                                       d=d, store_every=store_every))
    return Trajectory(times=np.concatenate(times), states=np.concatenate(states))


def evolve_chunks(
    rho0: np.ndarray,
    h0: np.ndarray | None,
    gens: GeneratorSet,
    weights,
    t_final: float,
    dt: float = 1e-3,
    d: int = 2,
    store_every: int = 1,
):
    """The stored (times, states) of :func:`evolve`, in consecutive chunks.

    Each chunk holds about 1 MB of states (at least one state), so a
    caller that reduces every state to a few numbers, as ``qcl simulate``
    does, never holds the whole trajectory.  On the block path the
    stacked powers [A; A^2; ..; A^c] of A = T1^k take the same 1 MB, which
    sets c; a group of up to c stored states is one product per block
    size, its states are drift-checked, re-Hermitized and renormalized
    as arrays, and the next group starts from its last state.  The
    sparse stepping path advances one stored state at a time.  Inputs
    are checked when the first chunk is asked for.
    """
    steps = check_steps(t_final, dt, store_every)
    weights = check_weights([weights], len(gens))[0]
    rho0 = np.asarray(rho0, dtype=complex)
    check_state(rho0, gens.n, d)
    dim = rho0.shape[0]
    check_cap("state dimension", dim, EVOLVE_DIM_CAP)
    check_density(rho0, d)
    # a stride past steps stores only the ends; min keeps it an int64
    idx = np.append(np.arange(0, steps, min(store_every, steps + 1)), steps)
    times = idx * dt
    lengths = np.diff(idx)
    per_chunk = max(1, (1 << 20) // (16 * dim * dim))

    # entry state gets the same conditioning as every stored state, so
    # all stored states are exactly Hermitian with unit trace
    rho = 0.5 * (rho0 + rho0.conj().T)
    rho = rho / np.trace(rho).real
    advance = {}  # segment length k -> fill(rho, out): the next len(out) stored states
    group = 1
    with np.errstate(over="ignore", invalid="ignore"):
        if steps:
            blocks = _orbit_step(h0, gens, weights, dt, d)
            one_step = None if blocks else _step_operator(h0, gens, weights, dt, d)
            entries = blocks[1] if blocks else [one_step.data]
            if not all(np.isfinite(t).all() for t in entries):
                raise StepSizeError(
                    f"step operator has nan/inf entries at dt={dt:.6g}; "
                    "reduce dt or the weights"
                )
            if blocks:
                group = max(1, (1 << 20) // sum(t.nbytes for t in entries))
            for k in set(lengths.tolist()):
                if blocks:
                    c = min(group, int(np.count_nonzero(lengths == k)))
                    powers = [_powers(_matrix_power(t, k), c) for t in entries]
                    advance[k] = functools.partial(_block_states, blocks[0], powers)
                else:
                    advance[k] = functools.partial(_step_states, one_step, k)
    for start in range(0, len(idx), per_chunk):
        chunk = np.empty((min(per_chunk, len(idx) - start), dim, dim),
                         dtype=complex)
        # no yield inside: np.errstate must not outlive this block
        with np.errstate(over="ignore", invalid="ignore"):
            i = 0
            if not start:
                chunk[0], i = rho, 1
            while i < len(chunk):
                pos = start + i
                k = int(lengths[pos - 1])
                # a run of stored states k steps apart, filled in place;
                # only the last segment of a trajectory can be shorter
                run = lengths[pos - 1:pos - 1 + min(group, len(chunk) - i)] == k
                out = chunk[i:i + int(np.argmin(np.append(run, False)))]
                advance[k](rho, out)
                flip = out.conj().transpose(0, 2, 1)
                drift = (np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)
                         + np.abs(out - flip).max(axis=(1, 2)))
                bad = ~(drift <= 1e-6)
                if bad.any():
                    j = int(np.argmax(bad))
                    raise StepSizeError(
                        f"invariant drift {drift[j]:.2e} at t={times[pos + j]:.6g}; "
                        "reduce dt"
                    )
                out += flip
                out *= 0.5
                out /= np.trace(out, axis1=1, axis2=2).real[:, None, None]
                rho = out[-1].copy()
                i += len(out)
        yield times[start:start + len(chunk)], chunk


def _pair_images(perms, n: int, d: int) -> np.ndarray:
    """The (d^(2n), m) image table of the pair maps: column p is
    :func:`_pair_map` of p's :func:`_pull_map`, entry i the vec(rho)
    index that entry i reads under U_p rho U_p^dag."""
    img = [_pair_map(_pull_map(tuple(p), d)) for p in perms]
    return np.array(img, dtype=np.intp).reshape(-1, d ** (2 * n)).T


def _generator_rows(perms, weights, n: int, d: int):
    """The (V, m + 1) columns and values of the rows of
    S = sum_p w_p (P_p - I) on row-major vec(rho): ``permgroup.laplacian_rows``
    over :func:`_pair_images`, negated, so each row sums to exactly 0."""
    cols, vals = laplacian_rows(_pair_images(perms, n, d), weights)
    return cols, -vals


def _generator(perms, weights, n: int, d: int, h0=None):
    """S = sum_p w_p (P_p - I) - i (H0 x I - I x H0^T) as a CSR matrix on
    row-major vec(rho), P_p the gather rho[s[a], s[b]] of :func:`_pair_map`.

    :func:`_generator_rows` stored with no zero (a zero weight adds no
    entry); S @ 1 is exactly 0 when H0 is None, and S is then real.  The
    sparse stepping path and the tests' references read it.
    """
    from scipy import sparse

    size = d ** (2 * n)
    cols, vals = _generator_rows(perms, weights, n, d)
    keep = vals != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    s = sparse.csr_array((vals[keep], cols[keep], indptr), shape=(size, size))
    if h0 is not None:
        h = sparse.csr_array(np.asarray(h0, dtype=complex))
        one = sparse.eye_array(d**n, format="csr")
        s = s - 1j * (sparse.kron(h, one, format="csr")
                      - sparse.kron(one, h.T, format="csr"))
    return s


def _step_operator(h0, gens: GeneratorSet, weights, dt: float, d: int):
    """One RK4 step T4(dt*S) of :func:`_generator`'s S as a CSR matrix, in
    Horner form I + hS(I + hS/2(I + hS/3(I + hS/4)))."""
    from scipy import sparse

    hs = dt * _generator(gens.perms, weights, gens.n, d, h0)
    return _horner(hs, sparse.eye_array(hs.shape[0], format="csr"))


def _horner(hs, eye):
    """T4(hS) = I + hS(I + hS/2(I + hS/3(I + hS/4))) for a matrix or a stack."""
    t = eye + hs / 4.0
    for j in (3.0, 2.0, 1.0):
        t = (hs / j) @ t + eye
    return t


def _orbit_step(h0, gens: GeneratorSet, weights, dt: float, d: int):
    """T1 = T4(dt*S) as dense numpy blocks, one per orbit of S's pattern, or
    None where the sparse stepping path is needed.

    Entries of vec(rho) linked by a nonzero entry of :func:`_generator_rows`
    are labelled by :func:`_components` and grouped by orbit size k: the
    result is (rows, blocks), per size the (count, k) vec(rho) indices of
    its blocks' rows and the (count, k, k) T1 blocks.  None when H0 is not
    diagonal, or when a block has a zero entry, so that powers of T1
    would fill it.  Four steps along m generators reach at most
    1 + m + .. + m^4 entries from one, so a larger orbit is not built.
    """
    n = gens.n
    if h0 is not None:
        h0 = np.asarray(h0, dtype=complex)
        h = np.diagonal(h0)
        if np.count_nonzero(h0 - np.diag(h)):
            return None
    cols, vals = _generator_rows(gens.perms, weights, n, d)
    idx = np.arange(len(cols))
    cols = np.where(vals != 0.0, cols, idx[:, None])
    _, orbit, counts = np.unique(_components(cols), return_inverse=True,
                                 return_counts=True)
    k = counts[orbit]
    moving = np.count_nonzero(weights)
    if k.max() > sum(moving**j for j in range(5)):
        return None
    # rows by orbit size, then orbit, then index: each block's rows are a
    # run, and its entries the next k * k of one flat array
    order = np.lexsort((orbit, k))
    ks = k[order]
    first = np.flatnonzero(np.r_[True, np.diff(orbit[order]) != 0])
    ends = np.cumsum(ks)
    local, start = np.empty_like(idx), np.empty_like(idx)
    local[order] = idx - np.repeat(first, ks[first])
    start[order] = ends - ks
    flat = np.zeros(int(ends[-1]), dtype=float if h0 is None else complex)
    np.add.at(flat, start[:, None] + local[cols], vals)
    if h0 is not None:
        dim = d**n
        flat[start + local] -= 1j * (h[idx // dim] - h[idx % dim])
    rows, blocks = [], []
    for size in np.unique(ks):
        lo, hi = np.searchsorted(ks, [size, size + 1])
        rows.append(order[lo:hi].reshape(-1, size))
        hs = dt * flat[ends[lo] - size:ends[hi - 1]].reshape(-1, size, size)
        blocks.append(_horner(hs, np.eye(size)))
    if not all(np.all(t != 0.0) for t in blocks):
        return None
    return rows, blocks


def _components(cols: np.ndarray) -> np.ndarray:
    """Each row i of a (V, c) column table labelled with the smallest row of
    its weakly connected component under the links i - cols[i, j], by
    min-label propagation with pointer jumping."""
    label = np.arange(len(cols))
    while True:
        new = np.minimum(label, label[cols].min(axis=1, initial=len(cols)))
        np.minimum.at(new, cols, label[:, None])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _pair_map(s: np.ndarray) -> np.ndarray:
    """The pull map s lifted to row-major vec(rho): entry a*dim + b reads
    s[a]*dim + s[b], i.e. the gather rho[s[a], s[b]] of U_p rho U_p^dag."""
    return (s[:, None] * len(s) + s[None, :]).ravel()


def _matrix_power(t, k: int):
    """T^k by repeated squaring; T a matrix or a stack of them."""
    out = None
    while True:
        if k & 1:
            out = t if out is None else out @ t
        k >>= 1
        if not k:
            return out
        t = t @ t


def _powers(a: np.ndarray, c: int) -> np.ndarray:
    """The (count, c*k, k) stacked powers [A; A^2; ..; A^c] of a (count, k, k)
    stack A, by doubling: the first j powers times A^j are the next j."""
    k = a.shape[-1]
    p = a
    while p.shape[1] < c * k:
        p = np.concatenate([p, p[:, :c * k - p.shape[1]] @ p[:, -k:]], axis=1)
    return p


def _block_states(rows, powers, rho: np.ndarray, out: np.ndarray) -> None:
    """Fill the (c, dim, dim) ``out`` with the states A^j vec(rho), j = 1..c:
    per block size, ``rows`` holds the (count, k) vec(rho) indices of the
    blocks and ``powers`` their stacked powers (:func:`_powers`); a real
    stack acts on the (re, im) pairs of rho."""
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


def _step_states(op, k: int, rho: np.ndarray, out: np.ndarray) -> None:
    """Fill the (1, dim, dim) ``out`` with the next stored state: k products
    with the sparse T1."""
    for _ in range(k):
        rho = _apply(op, rho)
    out[0] = rho


def _apply(op, rho: np.ndarray) -> np.ndarray:
    """op @ vec(rho); a real op acts on the (re, im) pairs of rho."""
    dim = rho.shape[0]
    if np.iscomplexobj(op.data):
        return (op @ rho.reshape(-1)).reshape(dim, dim)
    pairs = op @ rho.view(np.float64).reshape(-1, 2)
    return pairs.view(np.complex128).reshape(dim, dim)


def check_steps(t_final: float, dt: float, store_every: int) -> int:
    """Step count round(t_final / dt), or ValueError unless dt > 0, t_final >= 0
    and their ratio are finite and store_every is an integer >= 1, then
    CapExceededError if the ratio is past ``STEP_CAP`` (steps + 1 bound the stored states)."""
    if not (0 < dt < math.inf and 0 <= t_final and t_final / dt < math.inf):
        raise ValueError("need finite dt > 0, t_final >= 0 and t_final / dt")
    if not (isinstance(store_every, (int, np.integer)) and store_every >= 1):
        raise ValueError(f"store_every must be an integer >= 1, got {store_every!r}")
    check_cap("steps", t_final / dt, STEP_CAP)
    return int(round(t_final / dt))


def check_density(rho: np.ndarray, d: int = 2) -> None:
    """Raise ValueError unless rho is one state, Hermitian, unit-trace and positive."""
    rho = np.asarray(rho)
    check_state(rho, state_sites(rho, d), d)
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("density matrix is not Hermitian (tol 1e-10)")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("density matrix trace differs from 1 (tol 1e-10)")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-9:
        raise ValueError("density matrix has an eigenvalue below -1e-9")


def symmetric_state(rho: np.ndarray, perms, d: int = 2) -> np.ndarray:
    """Group average (1/|G|) sum_g U_g rho U_g^dag over the group G = <perms>.

    ``perms`` may generate G or be G; G is never enumerated.  The orbits
    of the entries (a, b) of rho are the :func:`_components` of the pair
    image table (:func:`_pair_images`), and the orbit mean
    (orbit-stabilizer) is the group average: the consensus target,
    invariant under every U_g.
    """
    rho = np.asarray(rho, dtype=complex)
    for n in {len(p) for p in perms} or {state_sites(rho, d)}:
        check_state(rho, n, d)
    label = _components(_pair_images(perms, n, d))
    flat = rho.ravel()
    sums = np.bincount(label, flat.real) + 1j * np.bincount(label, flat.imag)
    return (sums[label] / np.bincount(label)[label]).reshape(rho.shape)


def reduced_state(rho: np.ndarray, k: int, d: int = 2) -> np.ndarray:
    """Partial trace onto site k (1-based); leading axes index a stack."""
    rho = np.asarray(rho, dtype=complex)
    n = state_sites(rho, d)
    if not 1 <= k <= n:
        raise ValueError(f"site index {k} out of range 1..{n}")
    t = rho.reshape(rho.shape[:-2] + (d,) * (2 * n))
    rows = [chr(97 + i) for i in range(n)]
    cols = list(rows)
    cols[k - 1] = chr(97 + n)
    sub = "..." + "".join(rows) + "".join(cols) + "->..." + rows[k - 1] + cols[k - 1]
    return np.einsum(sub, t)


def sync_distance(rho: np.ndarray, d: int = 2):
    """Largest Frobenius distance between two single-site reduced states.

    A float for one state; for a stack (leading axes) an array of them.
    """
    rho = np.asarray(rho)
    n = state_sites(rho, d)
    reds = [reduced_state(rho, k, d) for k in range(1, n + 1)]
    worst = np.zeros(rho.shape[:-2])
    for i in range(n):
        for j in range(i + 1, n):
            worst = np.maximum(worst, np.linalg.norm(reds[i] - reds[j], axis=(-2, -1)))
    return float(worst) if worst.ndim == 0 else worst


def uniform_site_hamiltonian(d: int, n_sites: int) -> np.ndarray:
    """Sum over sites of one diagonal single-site term (sigma_z for d=2).

    Commutes with every permutation unitary, so it is a valid
    Hamiltonian for the invariant-Hamiltonian convergence statements.
    """
    h_site = np.diagonal(gellmann_basis(d)[-1])
    # site k is digit k of the basis index, site 0 the slowest; the terms
    # add in site order
    diag = np.zeros((d,) * n_sites, dtype=complex)
    for k in range(n_sites):
        diag += h_site.reshape((d,) + (1,) * (n_sites - 1 - k))
    return np.diag(diag.ravel())


def build_lq(gens: GeneratorSet, weights, d: int = 2) -> np.ndarray:
    """Laplacian of the coefficient dynamics on all d^(2N) multi-indices.

    Row nu couples to nu o p (entry -w) for every generator p: the same
    pull rule as the induced graphs, of which this matrix is the direct
    sum over index-pattern classes.  It is -S of :func:`_generator_rows`:
    ``permgroup.laplacian_matrix`` of :func:`_pair_images` relabelled at
    the multi-index of each vec(rho) entry (the inverse of
    :func:`_interleave`).
    """
    weights = check_weights([weights], len(gens))[0]
    check_d(d)
    check_cap("coefficient dimension", (d * d) ** gens.n, LQ_DIM_CAP)
    img = _pair_images(gens.perms, gens.n, d)
    at = np.argsort(_interleave(gens.n, d))
    table = np.empty_like(img)
    table[at] = at[img]
    return laplacian_matrix(table, weights)


def frobenius_distances(states: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Frobenius distance of each trajectory state to a fixed reference."""
    diff = np.asarray(states) - np.asarray(reference)
    x = diff.reshape(diff.shape[:-2] + (1, diff.shape[-2] * diff.shape[-1]))
    # one dot product per state and part, as np.linalg.norm takes it
    sq = x.real @ np.swapaxes(x.real, -1, -2) + x.imag @ np.swapaxes(x.imag, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def fit_decay_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Exponential decay rate from the log-linear regime of a series.

    Fits log(values) against time by least squares over the samples
    whose value lies inside [1e-6, 1e-2] (at least 10 of them) and
    returns the negated slope.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = 1e-6, 1e-2
    mask = (values >= lo) & (values <= hi)
    if int(mask.sum()) < 10:
        raise InsufficientDecayError(
            f"only {int(mask.sum())} samples inside [{lo:g}, {hi:g}] "
            "(need 10); no usable decay regime"
        )
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return float(-slope)


def generic_state(
    d: int,
    n_sites: int,
    seed: int = 0,
    gens: GeneratorSet | None = None,
    weights=None,
) -> np.ndarray:
    """Random product state with a 1e-2 maximally-mixed floor.

    ``gens`` and ``weights`` are accepted for callers that pass their
    topology along; the draw reads neither, and ``gens`` only has its
    site count checked against ``n_sites``.
    """
    if gens is not None and gens.n != n_sites:
        raise ValueError("site count must match generator degree")
    rng = np.random.default_rng(seed)
    psi = None
    for _ in range(n_sites):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        psi = v if psi is None else np.kron(psi, v)
    dim = d**n_sites
    return 0.99 * np.outer(psi, psi.conj()) + 0.01 * np.eye(dim) / dim
