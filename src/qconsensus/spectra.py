"""Spectra of the (generally nonsymmetric) consensus Laplacians.

The quantities of interest are real parts of second-smallest
eigenvalues: ``lambda_synch`` from the site-label graph, which is the
shape ``(n-1, 1)`` induced graph, and ``lambda_cons`` as the minimum
over every admissible partition shape.  The rates solve each irrep
block once and reduce it to three numbers per weight row, which one
masked reduction over the dominance table turns into every shape's rate
(:func:`batch_rates`).  The spectral-inclusion checks read the induced
graphs themselves: when every orbit is a whole tabloid set, through
cover maps checked against the image tables, and the sign vector, each
tolerance scaled by the largest diagonal entry ``permgroup.laplacian_rows``
gives.
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
    dominance,
    dominance_covers,
    induced_laplacian,
    irrep_blocks,
    irrep_dim,
    iter_rate_shapes,
    tabloid_count,
    tabloid_orbit,
    tabloid_sets,
)
from .permgroup import (
    GeneratorSet,
    capped,
    check_weights,
    laplacian_rows,
    parity,
    proves_full_symmetric,
)

INCLUSION_TOL = 1e-7

# float64 coefficients one set of rate blocks may hold, m * sum k^2 over
# blocks of k rows: 2**27 (1 GiB) keeps ring+swap (m = 2) through N = 11
# at d = 2 and 3 and refuses N = 12, whose d = 2 blocks would hold 2.8 GB;
# it caps one optimizer round's Laplacian entries, rows * sum k^2, too.
# Each block is held once, so under a 2 GB address-space limit `rates` on
# (1 2 .. 11),(1 2),(1 3) at d = 3, 94% of the cap, peaks at 1.05 GB
RATE_BLOCK_CAP = 2**27

# whole tabloid sets `spectrum --all` may list at once, as points times
# n m: the bytes of their words' images under the m generators.  Under a
# 2 GB address-space limit the largest sets 2**27 admits peak at 0.27 GB
# (30 generators, N = 11, d = 2) to 0.44 GB (ring+swap, N = 10, d = 3)
TABLOID_SET_CAP = 2**27


class NumericalFailureError(RuntimeError):
    """Dense eigenvalue computation failed to converge."""


class NotALaplacianError(ValueError):
    """Spectrum has no near-zero eigenvalue, so it cannot be a Laplacian's."""


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise NumericalFailureError("eigenvalue solve failed: matrix has nan/inf entries")


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Full complex spectrum of each matrix of a (..., V, V) stack, sorted by
    (real, imaginary); a nan/inf entry or a failed solve raises
    :class:`NumericalFailureError`."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("square matrix required")
    _check_finite(m)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue solve failed: {exc}") from exc
    # np.sort_complex without its copy: complex values sort by (real, imaginary)
    vals.sort()
    return vals.astype(complex, copy=False)


def lambda2_re_batch(spectra: np.ndarray) -> np.ndarray:
    """Per (k, V) row, the smallest real part once the one zero is dropped:
    the rate rule on one whole spectrum, the reference form of the
    per-block reduction in :func:`batch_rates`.

    Zero means a modulus within ``ZERO_TOL`` times the row's largest, so
    rates scale exactly with the weights.  A row without a zero is not a
    Laplacian spectrum; one with several (or of one vertex) has rate 0.
    """
    vals = np.asarray(spectra)
    mags = np.abs(vals)
    zero = mags <= ZERO_TOL * mags.max(axis=1, keepdims=True)
    count = zero.sum(axis=1)
    if (count == 0).any():
        raise NotALaplacianError(f"a spectrum has no eigenvalue within {ZERO_TOL} of 0")
    rates = np.where(zero, np.inf, vals.real).min(axis=1)
    rates[(count > 1) | (count == vals.shape[1])] = 0.0
    return rates


@dataclass(frozen=True)
class RateStructure:
    """Everything :func:`batch_rates` needs of one (generators, shapes) but
    the weights, built by :func:`rate_structure`.

    ``blocks`` follow the shapes, one irrep each, as one
    :func:`~qconsensus.induced.irrep_blocks` call builds them.  ``order``
    lists the blocks with rows in the order they are solved, ascending in rows
    (stable, so equal sizes keep shape order).  ``columns`` is the
    shapes' :func:`~qconsensus.induced.dominance` table: entry (b, mu)
    is True iff block b's eigenvalues are in shape mu's spectrum.
    """

    blocks: tuple[IrrepBlock, ...]
    columns: np.ndarray
    order: tuple[int, ...]


def rate_structure(gens: GeneratorSet, shapes) -> RateStructure:
    """The :class:`RateStructure` of ``shapes`` under ``gens``; the blocks'
    m * sum k^2 coefficients, by ``irrep_dim``, are capped as the shapes
    are read, so a long shape stream stops at the cap, before any block."""
    listed = list(capped(shapes, "rate block coefficients", RATE_BLOCK_CAP,
                         lambda p: len(gens) * irrep_dim(p) ** 2))
    blocks = irrep_blocks(listed, gens)
    sizes = [len(b.coeffs[0]) for b in blocks]
    # a block the group fixes whole has no eigenvalue to add
    order = sorted((i for i, k in enumerate(sizes) if k), key=sizes.__getitem__)
    return RateStructure(blocks, dominance(listed), tuple(order))


def batch_rates(rs: RateStructure, w, floor=-np.inf) -> tuple[np.ndarray, ...]:
    """The one rate path: per-shape rates for each row of a (b, m) weight batch.

    The structure's shapes follow :func:`rate_shapes`, so the first is the
    site graph's (n-1, 1).  By Young's rule a shape's spectrum is that of
    every block whose irrep dominates it, plus the one trivial zero.  Each
    block with rows makes one product and one eigensolve, smallest block
    first; the product runs block by block, as one over all blocks would
    round some entries differently.  A solved block keeps, per row, its
    largest and smallest modulus and least real part.  A shape's rate is
    0 if a dominating block's smallest modulus is within ``ZERO_TOL`` of
    their largest (a second zero), else their least real part: the rule
    of :func:`lambda2_re_batch`, bit for bit, as max and min are exact.
    Returns the (shapes, b) table, lambda_cons (its column minima) and
    lambda_synch: the first row if the group fixes no vector of the
    (n-1, 1) irrep (it is transitive on sites), else 0, as an
    intransitive group never equalizes its orbits.

    ``floor`` (a scalar or one value per row) prunes: after each block
    but the last, a row whose bound max(min Re E, 0) over that block's
    eigenvalues E lies strictly below its floor is solved no further,
    and reads -inf in the table, so in lambda_cons and, unless the group
    is intransitive, in lambda_synch.  The bound is exact: the
    block's own shape reads E and the zero, so its rate is at most min
    Re E, or 0 if one of E counts as a zero; lambda_cons is at most that
    rate.  Every other row reads, bit for bit, what it reads unfloored,
    as each solve and each rate is one row's own.  The product runs on
    every row, so an overflow in a pruned row still fails; once no row
    is left, nothing more is solved.  Bad weights raise ValueError, a
    failed solve NumericalFailureError.
    """
    m = len(rs.blocks[0].coeffs)
    w = check_weights(w, m)
    # per block and row: minus the largest modulus, the smallest modulus and
    # the least real part, all reduced by minima; inf where a row is unsolved
    summary = np.full((3, len(rs.blocks), len(w)), np.inf)
    live = np.ones(len(w), dtype=bool)
    for i in rs.order:
        coeffs = rs.blocks[i].coeffs
        k = coeffs.shape[1]
        # + 0.0 turns the -0.0 of a zero weight into 0.0; weights that
        # overflow leave inf for the eigensolve to reject
        with np.errstate(over="ignore", invalid="ignore"):
            lap = (w @ coeffs.reshape(m, k * k) + 0.0).reshape(len(w), k, k)
        if not live.all():
            _check_finite(lap)  # the pruned rows too
            lap = lap[live]
        if len(lap):
            vals = eigenvalues(lap)  # least real part first
            mags = np.abs(vals)
            summary[:, i, live] = -mags.max(axis=1), mags.min(axis=1), vals[:, 0].real
        if i != rs.order[-1]:
            # a nan bound compares false, so it never prunes
            live &= ~(np.maximum(summary[2, i], 0.0) < floor)
    # each shape reduces the blocks dominating it, the solved (n-1, 1) among them
    neg_scale, low, least = np.where(rs.columns[:, :, None], summary[:, :, None], np.inf).min(axis=1)
    table = np.where(low <= ZERO_TOL * -neg_scale, 0.0, least)
    table[:, ~live] = -np.inf
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
    rs = rate_structure(gens, iter_rate_shapes(gens.n, d))
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


def _dominance_by_maps(pairs, orbits, perms, w, tol) -> list[tuple[bool, float]]:
    """(included, max defect) of each dominance pair (a, b) of ``pairs``,
    whose shapes' orbits are whole tabloid sets, through the cover maps.

    For a cover lambda > mu, :func:`cover_map` Phi is S_N-equivariant, so
    L_mu Phi = Phi L_lambda, and injective, so the characteristic
    polynomial of L_lambda divides that of L_mu, defective spectra
    included.  Two checks prove that identity on the tables at hand.  Once
    per shape, each generator's image column is its action on the words.
    Once per cover, each one (s, t) of Phi has s a tabloid, t with one
    entry moved from row i to row j, and the ones, one per entry of t in
    row i, run in strictly increasing (t, -s) order, so they are t's
    distinct moves (an entry moved further left makes a larger word).
    Then Phi P_g = P_g Phi for every g and the defect is exactly 0; else
    it is the summed weight of the generators whose table fails on
    either shape, of every generator if Phi fails.  The cover holds when
    the defect is within ``tol`` of the largest diagonal entry of L_mu.
    A pair a > b takes the verdict and largest defect of one chain of
    covers from a to b, each step the first cover (:func:`dominance_covers`
    order) still dominating b, as inclusion is transitive.  ``pairs``
    holds every strict pair of the shapes, so a cover dominates b iff it
    is b or forms a pair with it.
    """
    strict = set(pairs)
    # each L_mu's largest diagonal entry; an overflow fails as an eigensolve would
    scale = {p: laplacian_rows(orbit[1], w)[1][:, -1].max() for p, orbit in orbits.items()}
    if not np.all(np.isfinite(list(scale.values()))):
        raise NumericalFailureError("induced Laplacian has nan/inf entries")
    words = {p: np.asarray(orbit[0]) for p, orbit in orbits.items()}
    acts = {p: np.array([np.array_equal(words[p][img[:, g]], words[p][:, np.subtract(q, 1)])
                         for g, q in enumerate(perms)], dtype=bool)
            for p, (_, img) in orbits.items()}
    below = {p: dominance_covers(p) for p in orbits}
    memo: dict = {}

    def cover(lam, mu, i, j):
        s, t = cover_map(words[lam], words[mu], i, j)
        fits = (s < len(words[mu])).all()
        if fits:
            inner, outer = words[lam][t], words[mu][s]
            moved = inner != outer
            fits = ((moved.sum(axis=1) == 1).all() and (inner[moved] == i + 1).all()
                    and (outer[moved] == j + 1).all()
                    and ((np.diff(t) > 0) | (np.diff(t) == 0) & (np.diff(s) < 0)).all())
        defect = float(w[~(acts[lam] & acts[mu] & fits)].sum())
        return defect <= tol * scale[mu], defect

    def chain(a, b):
        if (a, b) not in memo:
            mu, i, j = next(c for c in below[a] if c[0] == b or (c[0], b) in strict)
            if (a, mu) not in memo:
                memo[a, mu] = cover(a, mu, i, j)
            if mu != b:
                (ok, defect), (rest_ok, rest) = memo[a, mu], chain(mu, b)
                memo[a, b] = (ok and rest_ok, max(defect, rest))
        return memo[a, b]

    return [chain(a, b) for a, b in pairs]


def _sign_residual(orbit, w, alt: float, tol: float) -> tuple[bool, float]:
    """(holds, largest entry) of L s - alt s on the finest shape's whole
    orbit, s(sigma) = sgn sigma on its tabloids, within ``tol`` of L's largest
    diagonal entry: the sign vector is the eigenvector of the mode alt."""
    verts, img = orbit
    s = _inversion_sign(np.asarray(verts))
    cols, vals = laplacian_rows(img, w)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.abs((vals * s[cols]).sum(axis=1) - alt * s).max())
    return defect <= tol * vals[:, -1].max(), defect


def _inversion_sign(words: np.ndarray) -> np.ndarray:
    """sgn of each permutation word of a (V, n) array, as floats: -1 to the
    number of its inversions, the pairs j < k with word[j] > word[k]."""
    above = np.triu(words[:, :, None] > words[:, None, :])
    return 1.0 - 2.0 * (above.sum(axis=(1, 2)) % 2)


def _set_contained(inner, outer, tol: float, skip: complex):
    """(contained, max defect, first value left over): each value of ``inner``
    past the cut from ``skip`` must be within it of a value of ``outer``, the
    cut being ``tol`` times the largest modulus of both."""
    cut = tol * max(np.abs(inner).max(), np.abs(outer).max())
    off = inner - skip
    kept = inner[np.hypot(off.real, off.imag) > cut]
    gap = kept[:, None] - outer
    near = np.hypot(gap.real, gap.imag).min(axis=1)
    left = kept[near > cut]
    witness = complex(left[0]) if len(left) else None
    return not len(left), float(near[near <= cut].max(initial=0.0)), witness


def intertwining_check(
    gens: GeneratorSet, weights, d: int = 2, tol: float = INCLUSION_TOL
) -> IntertwiningReport:
    """Spectral inclusions along the dominance order.

    For every comparable pair the dominant shape's spectrum must embed
    (as a multiset) in the less dominant one's, and when (1,..,1) and
    (2,1,..,1) are admissible the finest spectrum minus its mode alt
    (:func:`alternating_mode_rate`) must re-embed upward as a set.  On
    whole tabloid sets there is no eigensolve: :func:`_dominance_by_maps`
    proves each inclusion, and by Young's rule every irrep but the sign
    one is in the (2,1,..,1) module, so the alternating pair holds with
    (2,1,..,1) -> (1,..,1) and :func:`_sign_residual`, at the larger
    defect.  Otherwise the dense spectra are matched within ``tol`` of
    their largest modulus.  When ``proves_full_symmetric`` holds, every
    orbit is its whole tabloid set and one :func:`tabloid_sets` call lists
    them all; other orbits are searched one shape at a time.
    """
    # every cap check comes as the shapes are listed, before any other
    # work, and one dense Laplacian is held at a time
    if proves_full_symmetric(gens):
        shapes = list(capped(iter_rate_shapes(gens.n, d), "tabloid image bytes",
                             TABLOID_SET_CAP, lambda p: tabloid_count(p) * gens.n * len(gens)))
        orbits = dict(zip(shapes, tabloid_sets(shapes, gens.perms)))
    else:
        orbits = {p: tabloid_orbit(p, gens) for p in iter_rate_shapes(gens.n, d)}
        shapes = list(orbits)
    w = check_weights([weights], len(gens))[0]
    above = dominance(shapes) & ~np.eye(len(shapes), dtype=bool)
    pairs = [(shapes[i], shapes[j]) for i, j in zip(*np.nonzero(above))]
    finest, coarser = (1,) * gens.n, (2,) + (1,) * (gens.n - 2)
    whole = all(len(orbits[p][0]) == tabloid_count(p) for p in shapes)
    dense = [] if whole else shapes
    spectra = {p: eigenvalues(induced_laplacian(p, gens, w, orbits[p]).laplacian)
               for p in dense}
    if whole:
        verdicts = [(*v, None) for v in _dominance_by_maps(pairs, orbits, gens.perms, w, tol)]
    else:
        verdicts = [multiset_contained(spectra[a], spectra[b], tol) for a, b in pairs]
    if finest in orbits and coarser in orbits:
        alt = alternating_mode_rate(gens, w)
        if whole:
            ok, defect, _ = verdicts[pairs.index((coarser, finest))]
            sign_ok, sign_defect = _sign_residual(orbits[finest], w, alt, tol)
            verdicts.append((ok and sign_ok, max(defect, sign_defect), None))
        else:
            verdicts.append(_set_contained(spectra[finest], spectra[coarser], tol, alt))
        pairs.append((finest, coarser))
    # the finest shape is never the inner shape of a dominance pair
    checks = tuple(
        PairCheck(
            inner=a, outer=b, kind="alternating-removed" if a == finest else "dominance",
            included=ok, max_defect=defect, witness=witness,
        )
        for (a, b), (ok, defect, witness) in zip(pairs, verdicts)
    )
    return IntertwiningReport(pairs=checks, ok=all(c.included for c in checks))
