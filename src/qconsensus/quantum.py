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
index gather (:func:`_pull_map`).  :func:`_generator` builds the
equation's generator S once, sparse on row-major vec(rho), as
``permgroup.laplacian_rows`` of the pair maps: :func:`evolve` powers it
into an RK4 step, :func:`build_lq` is -S reindexed by the
:func:`_interleave` map that :func:`decompose` reads too, and
:func:`symmetric_state` averages over the :func:`_components` of its
pattern.  :func:`lindblad_rhs` applies the gathers without S.  Sites are
1-based and d, the per-site dimension, passes ``permgroup.check_d``.
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
    superoperator S.  T1 is built once (:func:`_step_operator`) as a
    sparse matrix on row-major vec(rho), and each stored segment of k
    steps is one product with T1^k when that power adds no fill (the
    pattern of T1 is a disjoint union of dense blocks), otherwise k
    products with T1.  Weights must pass :func:`check_weights` and the
    state :func:`check_state`, both checked before the step operator.  A step
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
    does, never holds the whole trajectory.  Inputs are checked when the
    first chunk is asked for.
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
    per_chunk = max(1, (1 << 20) // (16 * dim * dim))

    # entry state gets the same conditioning as every stored state, so
    # all stored states are exactly Hermitian with unit trace
    rho = 0.5 * (rho0 + rho0.conj().T)
    rho = rho / np.trace(rho).real
    advance = {}  # segment length k -> (operator, repeats) advancing k steps
    with np.errstate(over="ignore", invalid="ignore"):
        if steps:
            one_step = _step_operator(h0, gens, weights, dt, d)
            if not np.isfinite(one_step.data).all():
                raise StepSizeError(
                    f"step operator has nan/inf entries at dt={dt:.6g}; "
                    "reduce dt or the weights"
                )
            power = _no_fill(one_step)
            for k in set(np.diff(idx).tolist()):
                advance[k] = (_matrix_power(one_step, k), 1) if power else (one_step, k)
    for start in range(0, len(idx), per_chunk):
        chunk = np.empty((min(per_chunk, len(idx) - start), dim, dim),
                         dtype=complex)
        # no yield inside: np.errstate must not outlive this block
        with np.errstate(over="ignore", invalid="ignore"):
            for i, pos in enumerate(range(start, start + len(chunk))):
                if pos:
                    op, repeats = advance[int(idx[pos] - idx[pos - 1])]
                    for _ in range(repeats):
                        rho = _apply(op, rho)
                    tr = np.trace(rho)
                    herm_defect = float(np.abs(rho - rho.conj().T).max())
                    drift = abs(tr - 1.0) + herm_defect
                    if not drift <= 1e-6:
                        raise StepSizeError(
                            f"invariant drift {drift:.2e} at t={times[pos]:.6g}; "
                            "reduce dt"
                        )
                    rho = 0.5 * (rho + rho.conj().T)
                    rho = rho / np.trace(rho).real
                chunk[i] = rho
        yield times[start:start + len(chunk)], chunk


def _generator(perms, weights, n: int, d: int, h0=None):
    """S = sum_p w_p (P_p - I) - i (H0 x I - I x H0^T) as a CSR matrix on
    row-major vec(rho), P_p the gather rho[s[a], s[b]] of :func:`_pair_map`.

    The one builder of the master equation: ``permgroup.laplacian_rows``
    over the pair maps, negated, storing no zero (a zero weight adds no
    entry); S @ 1 is exactly 0 when H0 is None, and S is then real.
    """
    from scipy import sparse

    size = d ** (2 * n)
    img = np.array([_pair_map(_pull_map(tuple(p), d)) for p in perms], dtype=np.intp)
    cols, vals = laplacian_rows(img.reshape(-1, size).T, weights)
    keep = vals != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    s = sparse.csr_array((-vals[keep], cols[keep], indptr), shape=(size, size))
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
    eye = sparse.eye_array(hs.shape[0], format="csr")
    t = eye + hs / 4.0
    for j in (3.0, 2.0, 1.0):
        t = (hs / j) @ t + eye
    return t


def _no_fill(t) -> bool:
    """True iff T's pattern is a disjoint union of dense blocks, so that
    every power of T keeps its pattern: sum |B|^2 == nnz over the weakly
    connected components B of the pattern (:func:`_components`)."""
    sizes = np.bincount(_components(t)).astype(np.int64)
    return int((sizes * sizes).sum()) == t.nnz


def _components(t) -> np.ndarray:
    """Each row of the square CSR matrix T labelled with the smallest row of
    its weakly connected component under T's pattern, by min-label
    propagation with pointer jumping."""
    rows = np.repeat(np.arange(t.shape[0], dtype=np.int32), np.diff(t.indptr))
    cols = t.indices
    label = np.arange(t.shape[0], dtype=np.int32)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _pair_map(s: np.ndarray) -> np.ndarray:
    """The pull map s lifted to row-major vec(rho): entry a*dim + b reads
    s[a]*dim + s[b], i.e. the gather rho[s[a], s[b]] of U_p rho U_p^dag."""
    return (s[:, None] * len(s) + s[None, :]).ravel()


def _matrix_power(t, k: int):
    """T^k by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = t if out is None else out @ t
        k >>= 1
        if not k:
            return out
        t = t @ t


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
    of the entries (a, b) of rho are the :func:`_components` of the
    pattern of :func:`_generator` at unit weights, and the orbit mean
    (orbit-stabilizer) is the group average: the consensus target,
    invariant under every U_g.
    """
    rho = np.asarray(rho, dtype=complex)
    for n in {len(p) for p in perms} or {state_sites(rho, d)}:
        check_state(rho, n, d)
    label = _components(_generator(perms, np.ones(len(perms)), n, d))
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
    basis = gellmann_basis(d)
    h_site = basis[-1]
    dim = d**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(n_sites):
        ops = [np.eye(d, dtype=complex)] * n_sites
        ops[k] = h_site
        term = ops[0]
        for o in ops[1:]:
            term = np.kron(term, o)
        out += term
    return out


def build_lq(gens: GeneratorSet, weights, d: int = 2) -> np.ndarray:
    """Laplacian of the coefficient dynamics on all d^(2N) multi-indices.

    Row nu couples to nu o p (entry -w) for every generator p: the same
    pull rule as the induced graphs, of which this matrix is the direct
    sum over index-pattern classes.  It is -S of :func:`_generator`,
    dense, with rows and columns reindexed by :func:`_interleave`.
    """
    weights = check_weights([weights], len(gens))[0]
    check_d(d)
    check_cap("coefficient dimension", (d * d) ** gens.n, LQ_DIM_CAP)
    pull = _interleave(gens.n, d)
    return (-_generator(gens.perms, weights, gens.n, d)[pull][:, pull]).toarray()


def frobenius_distances(states: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Frobenius distance of each trajectory state to a fixed reference."""
    reference = np.asarray(reference)
    return np.array([np.linalg.norm(s - reference) for s in states])


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
