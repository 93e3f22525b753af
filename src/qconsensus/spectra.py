"""Spectra of the (generally nonsymmetric) consensus Laplacians.

The quantities of interest are real parts of second-smallest
eigenvalues: ``lambda_synch`` from the site-label graph, which is the
shape ``(n-1, 1)`` induced graph, and ``lambda_cons`` as the minimum
over every admissible partition shape.  The rates read each shape's
spectrum from irrep blocks, one eigensolve per block
(:func:`batch_rates`); the spectral-inclusion
checks read the induced graphs themselves, through equivariant maps
between their image tables when every orbit is a whole tabloid set
(scaled by the diagonal ``permgroup.laplacian_rows`` gives).
Eigenvalues of directed topologies come in conjugate pairs, so
everything sorts and compares by (real, imaginary) with explicit
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .induced import (
    ZERO_TOL,
    IrrepBlock,
    Partition,
    cover_map,
    dominance_covers,
    dominates,
    induced_laplacian,
    irrep_block,
    irrep_dim,
    rate_shapes,
    tabloid_count,
    tabloid_orbit,
)
from .permgroup import GeneratorSet, check_cap, check_weights, laplacian_rows, parity

INCLUSION_TOL = 1e-7

# float64 coefficients one set of rate blocks may hold, m * sum k^2 over
# blocks of k rows: 2**27 (1 GiB) keeps ring+swap (m = 2) through N = 11
# at d = 2 and 3 and refuses N = 12, whose d = 2 blocks would hold 2.8 GB
RATE_BLOCK_CAP = 2**27


class NumericalFailureError(RuntimeError):
    """Dense eigenvalue computation failed to converge."""


class NotALaplacianError(ValueError):
    """Spectrum has no near-zero eigenvalue, so it cannot be a Laplacian's."""


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Full complex spectrum of each matrix of a (..., V, V) stack, sorted by
    (real, imaginary); a nan/inf entry or a failed solve raises
    :class:`NumericalFailureError`."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("square matrix required")
    if not np.all(np.isfinite(m)):
        raise NumericalFailureError("eigenvalue solve failed: matrix has nan/inf entries")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue solve failed: {exc}") from exc
    return np.sort_complex(vals)


def lambda2_re_batch(spectra: np.ndarray) -> np.ndarray:
    """Per (k, V) row, the smallest real part once the one zero is dropped.

    Zero means a modulus within ``ZERO_TOL`` times the row's largest, so
    rates scale exactly with the weights.  A row without a zero is not a
    Laplacian spectrum; one with several (or of one vertex) has rate 0.
    """
    vals = np.asarray(spectra)
    mags = np.abs(vals)
    zero = mags <= ZERO_TOL * mags.max(axis=1, keepdims=True)
    count = zero.sum(axis=1)
    if np.any(count == 0):
        raise NotALaplacianError(f"a spectrum has no eigenvalue within {ZERO_TOL} of 0")
    rates = np.where(zero, np.inf, vals.real).min(axis=1)
    rates[(count > 1) | (count == vals.shape[1])] = 0.0
    return rates


@dataclass(frozen=True)
class RateStructure:
    """Everything :func:`batch_rates` needs of one (generators, shapes) but
    the weights, built by :func:`rate_structure`.

    ``blocks`` follow the shapes, one irrep each, as
    :func:`~qconsensus.induced.irrep_block` builds them.  ``columns``
    gives, per shape, the indices of the trivial zero (column 0) and of
    the eigenvalues of every block dominating it in the spectrum that
    :func:`batch_rates` concatenates, blocks in shape order.
    """

    blocks: tuple[IrrepBlock, ...]
    columns: tuple[np.ndarray, ...]


def rate_structure(gens: GeneratorSet, shapes) -> RateStructure:
    """The :class:`RateStructure` of ``shapes`` under ``gens``; the blocks'
    m * sum k^2 coefficients, by ``irrep_dim``, are capped before the first."""
    size = len(gens) * sum(irrep_dim(p) ** 2 for p in shapes)
    check_cap("rate block coefficients", size, RATE_BLOCK_CAP)
    blocks = tuple(irrep_block(p, gens) for p in shapes)
    # each block's first column in the spectrum, after the trivial zero
    first = np.cumsum([1] + [len(b.coeffs[0]) for b in blocks])
    columns = tuple(
        np.concatenate([[0]] + [
            np.arange(first[i], first[i + 1])
            for i, b in enumerate(blocks) if dominates(b.partition, mu)
        ])
        for mu in shapes
    )
    return RateStructure(blocks, columns)


def batch_rates(rs: RateStructure, w) -> tuple[np.ndarray, ...]:
    """The one rate path: per-shape rates for each row of a (b, m) weight batch.

    The structure's shapes follow :func:`rate_shapes`, so the first is the
    site graph's (n-1, 1).  By Young's rule a shape's spectrum is that of
    every block whose irrep dominates it, plus the one trivial zero.  Each
    block with rows makes one product and one eigensolve; the product
    runs block by block, as one over all blocks would round some entries
    differently.  Returns the (shapes, b) table, lambda_cons (its column
    minima) and lambda_synch: the first row if the group fixes no vector
    of the (n-1, 1) irrep (it is transitive on sites), else 0, as an
    intransitive group never equalizes its orbits.  Bad weights raise
    ValueError, a failed solve NumericalFailureError.
    """
    m = len(rs.blocks[0].coeffs)
    w = check_weights(w, m)
    spectra = [np.zeros((len(w), 1))]
    for block in rs.blocks:
        k = len(block.coeffs[0])
        if k:  # a block the group fixes whole has no eigenvalue to add
            # + 0.0 turns the -0.0 of a zero weight into 0.0; weights that
            # overflow leave inf for the eigensolve to reject
            with np.errstate(over="ignore", invalid="ignore"):
                lap = w @ block.coeffs.reshape(m, k * k) + 0.0
            spectra.append(eigenvalues(lap.reshape(len(w), k, k)))
    spectrum = np.concatenate(spectra, axis=1)
    table = np.array([lambda2_re_batch(spectrum[:, c]) for c in rs.columns])
    synch = table[0] if rs.blocks[0].fixed == 0 else np.zeros(len(w))
    return table, table.min(axis=0), synch


@dataclass(frozen=True)
class ConvergenceRates:
    lambda_cons: float
    lambda_synch: float
    per_partition: dict[Partition, float] = field(default_factory=dict)


def convergence_rates(gens: GeneratorSet, weights, d: int = 2) -> ConvergenceRates:
    """(lambda_cons, lambda_synch) plus the per-partition breakdown.

    Partitions run over :func:`rate_shapes`, and each rate covers every
    orbit of its shape.  For generators not transitive on sites
    ``lambda_synch`` is 0 and may sit below ``lambda_cons``.
    """
    rs = rate_structure(gens, rate_shapes(gens.n, d))
    table, cons, synch = batch_rates(rs, [weights])
    return ConvergenceRates(
        lambda_cons=float(cons[0]),
        lambda_synch=float(synch[0]),
        per_partition={b.partition: float(r[0]) for b, r in zip(rs.blocks, table)},
    )


def rates_coincide(rates) -> bool:
    """Do the rates agree to ``INCLUSION_TOL`` relative to the largest of them?"""
    vals = np.asarray(list(rates), dtype=float)
    return bool(vals.max() - vals.min() <= INCLUSION_TOL * np.abs(vals).max())


def alternating_mode_rate(gens: GeneratorSet, weights) -> float:
    """Decay rate of the fully antisymmetric mode: 2 * sum of odd-generator weights."""
    weights = check_weights([weights], len(gens))[0]
    return float(2.0 * sum(w for p, w in zip(gens.perms, weights) if parity(p) < 0))


def multiset_contained(
    inner: np.ndarray, outer: np.ndarray, tol: float = INCLUSION_TOL
) -> tuple[bool, float, complex | None]:
    """Greedy matching of ``inner`` into ``outer`` within ``tol`` times the
    largest modulus of the two, so the verdict does not move with the
    weights' scale (the inner one counts too: a one-vertex orbit's
    spectrum is exactly 0).

    In (real, imaginary) order each inner value takes the nearest outer
    value not yet taken, the first by index on a tie.  Returns (contained,
    max matched distance, first unmatched value).
    """
    inner = np.asarray(inner, dtype=complex)
    pool = np.asarray(outer, dtype=complex)
    taken = np.zeros(len(pool), dtype=bool)
    cut = tol * max(np.abs(inner).max(initial=0.0), np.abs(pool).max(initial=0.0))
    worst = 0.0
    for v in sorted(inner, key=lambda z: (z.real, z.imag)):
        if taken.all():
            return False, worst, v
        gap = pool - v
        # hypot rounds as abs of one complex does; abs of an array may not
        dist = np.where(taken, np.inf, np.hypot(gap.real, gap.imag))
        j = int(dist.argmin())
        if dist[j] > cut:
            return False, worst, v
        worst = max(worst, dist[j])
        taken[j] = True
    return True, worst, None


def distinct_values(vals: np.ndarray, tol: float = INCLUSION_TOL) -> list[complex]:
    """Collapse a spectrum to representatives separated by more than ``tol``
    times its largest modulus."""
    vals = np.asarray(vals, dtype=complex)
    cut = tol * np.abs(vals).max(initial=0.0)
    out: list[complex] = []
    for v in sorted(vals, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - u) <= cut for u in out):
            out.append(complex(v))
    return out


@dataclass(frozen=True)
class PairCheck:
    inner: Partition
    outer: Partition
    kind: str
    included: bool
    max_defect: float
    witness: complex | None


@dataclass(frozen=True)
class IntertwiningReport:
    pairs: tuple[PairCheck, ...]
    ok: bool


def _cover_residual(phi, inner_img: np.ndarray, outer_img: np.ndarray, w) -> float:
    """Largest entry of L_mu Phi - Phi L_lambda = sum_g w_g (Phi P_g - P_g Phi)
    for a :func:`cover_map` ``phi`` between the two orbits' image tables.

    Generator g moves Phi's one at (s, t) to (s, img_lambda[t, g]) in Phi P_g
    and to (img_mu^-1[s, g], t) in P_g Phi.  The entries of each generator's
    difference are integer counts, so on an equivariant Phi the residual is
    exactly 0.
    """
    s, t = phi
    m, v_in = len(w), len(inner_img)
    outer_inv = np.empty_like(outer_img)
    outer_inv[outer_img, np.arange(m)] = np.arange(len(outer_img))[:, None]
    # each entry (s, t) as the key s * V_lambda + t, one column per generator
    plus = s[:, None] * v_in + inner_img[t]
    minus = outer_inv[s] * v_in + t[:, None]
    keys, where = np.unique(np.stack([plus, minus]), return_inverse=True)
    where = where.reshape(2, len(s), m)
    counts = np.array([
        np.bincount(where[0, :, g], minlength=len(keys))
        - np.bincount(where[1, :, g], minlength=len(keys))
        for g in range(m)
    ])
    return float(np.abs(w @ counts).max(initial=0.0))


def _dominance_by_maps(pairs, orbits, w, tol) -> list[tuple[bool, float]]:
    """(included, max defect) of each dominance pair (a, b) of ``pairs``,
    whose shapes' orbits are whole tabloid sets, through the cover maps.

    For a cover lambda > mu, :func:`cover_map` Phi is S_N-equivariant, so
    L_mu Phi = Phi L_lambda, and injective, so the characteristic
    polynomial of L_lambda divides that of L_mu, defective spectra
    included.  A cover holds when that identity's residual is within
    ``tol`` of the largest diagonal entry of L_mu.  A pair a > b takes the
    verdict and largest residual of one chain of covers from a to b, each
    step the first cover (:func:`dominance_covers` order) still dominating
    b, as inclusion is transitive.
    """
    verts = {p: np.asarray(orbit[0]) for p, orbit in orbits.items()}
    # each L_mu's largest diagonal entry; an overflow fails as an eigensolve would
    scale = {p: laplacian_rows(orbit[1], w)[1][:, -1].max() for p, orbit in orbits.items()}
    if not np.all(np.isfinite(list(scale.values()))):
        raise NumericalFailureError("induced Laplacian has nan/inf entries")
    below = {p: dominance_covers(p) for p in orbits}
    memo: dict = {}

    def cover(lam, mu, i, j):
        phi = cover_map(verts[lam], verts[mu], i, j)
        defect = _cover_residual(phi, orbits[lam][1], orbits[mu][1], w)
        return defect <= tol * scale[mu], defect

    def chain(a, b):
        if (a, b) not in memo:
            mu, i, j = next(c for c in below[a] if dominates(c[0], b))
            if (a, mu) not in memo:
                memo[a, mu] = cover(a, mu, i, j)
            if mu != b:
                (ok, defect), (rest_ok, rest) = memo[a, mu], chain(mu, b)
                memo[a, b] = (ok and rest_ok, max(defect, rest))
        return memo[a, b]

    return [chain(a, b) for a, b in pairs]


def intertwining_check(
    gens: GeneratorSet, weights, d: int = 2, tol: float = INCLUSION_TOL
) -> IntertwiningReport:
    """Spectral inclusions along the dominance order.

    For every comparable pair the dominant shape's spectrum must embed
    (as a multiset) in the less dominant one's.  When every shape's orbit
    is its whole tabloid set, :func:`_dominance_by_maps` proves each
    inclusion by the cover maps' identity, with no eigensolve; otherwise
    the two dense spectra are matched within ``tol`` of their largest
    modulus.  When both the finest shape (1,..,1) and (2,1,..,1)
    are admissible, the finest spectrum minus its antisymmetric mode must
    also re-embed upward as a set; that mode is the one eigenvalue living
    outside the coarser graph, and this pair is always matched
    spectrally.
    """
    shapes = rate_shapes(gens.n, d)
    # every orbit's cap check comes before any other work, and one dense
    # Laplacian is held at a time
    orbits = {p: tabloid_orbit(p, gens) for p in shapes}
    w = check_weights([weights], len(gens))[0]
    pairs = [(a, b) for a in shapes for b in shapes if a != b and dominates(a, b)]
    finest = (1,) * gens.n
    coarser = (2,) + (1,) * (gens.n - 2)
    whole = all(len(orbits[p][0]) == tabloid_count(p) for p in shapes)
    if not whole:
        dense = shapes
    elif finest in orbits and coarser in orbits:
        dense = [finest, coarser]
    else:
        dense = []
    spectra = {
        p: eigenvalues(induced_laplacian(p, gens, w, orbits[p]).laplacian) for p in dense
    }
    if whole:
        verdicts = [
            (ok, defect, None) for ok, defect in _dominance_by_maps(pairs, orbits, w, tol)
        ]
    else:
        verdicts = [multiset_contained(spectra[a], spectra[b], tol) for a, b in pairs]
    checks = [
        PairCheck(
            inner=a, outer=b, kind="dominance",
            included=ok, max_defect=defect, witness=witness,
        )
        for (a, b), (ok, defect, witness) in zip(pairs, verdicts)
    ]
    if finest in spectra and coarser in spectra:
        alt = alternating_mode_rate(gens, w)
        cut = tol * np.abs(spectra[finest]).max()
        kept = [
            v for v in distinct_values(spectra[finest], tol) if abs(v - alt) > cut
        ]
        ok, defect, witness = multiset_contained(
            np.array(kept), spectra[coarser], tol
        )
        checks.append(
            PairCheck(
                inner=finest, outer=coarser, kind="alternating-removed",
                included=ok, max_defect=defect, witness=witness,
            )
        )
    return IntertwiningReport(
        pairs=tuple(checks), ok=all(c.included for c in checks)
    )
