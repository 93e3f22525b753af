"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test prints ``ACCEPTANCE <k> PASS/FAIL: <what>`` before asserting, so
a full run leaves a nine-line scoreboard in the captured output.  The
tolerances in here are contractual; do not loosen them to make a run
green.
"""

import subprocess
import sys

import numpy as np
from scipy.linalg import expm

from qconsensus.induced import enumerate_tabloids, induced_laplacian, partitions_of
from qconsensus.optimize import BudgetConstraint, maximize_rate, pareto_scan
from qconsensus.permgroup import generate_group, generator_set
from qconsensus.quantum import (
    build_lq,
    evolve,
    fit_decay_rate,
    frobenius_distances,
    generic_state,
    lindblad_rhs,
    symmetric_state,
    sync_distance,
    uniform_site_hamiltonian,
)
from qconsensus.spectra import convergence_rates, eigenvalues, intertwining_check
from reference import decompose, generator_laplacian


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


def report(k, ok, what):
    print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {what}", flush=True)
    assert ok, f"acceptance criterion {k} failed: {what}"


def closed_pair(a, b, c=0.0):
    big_a = 1.5 * a + 1.5 * c + b
    big_b = 4.0 * b**2 - 3.0 * a**2 + 6.0 * a * c - 3.0 * c**2
    root = np.sqrt(complex(big_b))
    return big_a - root / 2.0, big_a + root / 2.0


def positive_draws(rng, shape):
    # uniform over (0, 1], never exactly zero
    return 1.0 - rng.random(shape)


def test_criterion_1_closed_form_spectra():
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for gens, n_w in ((g13(), 2), (g23(), 3)):
        draws = positive_draws(rng, (1000, n_w))
        base = np.stack([
            generator_laplacian(gens, np.eye(n_w)[i]) for i in range(n_w)
        ])
        laps = np.einsum("km,mij->kij", draws, base)
        eigs = np.sort_complex(np.linalg.eigvals(laps))
        for k in range(1000):
            if n_w == 2:
                lo, hi = closed_pair(draws[k, 0], draws[k, 1])
            else:
                lo, hi = closed_pair(draws[k, 0], draws[k, 2], draws[k, 1])
            expected = np.sort_complex(np.array([0.0, lo, hi]))
            worst = max(worst, float(np.abs(eigs[k] - expected).max()))
    report(1, worst < 1e-9,
           f"vertex spectra match the closed forms on 2000 draws "
           f"(max dev {worst:.2e}, tol 1e-9)")


def test_criterion_2_rate_formulas():
    rng = np.random.default_rng(20260802)
    worst = 0.0
    for gens, n_w in ((g13(), 2), (g23(), 3)):
        draws = positive_draws(rng, (1000, n_w))
        for w in draws:
            if n_w == 2:
                lo, _ = closed_pair(w[0], w[1])
                b = w[1]
            else:
                lo, _ = closed_pair(w[0], w[2], w[1])
                b = w[2]
            rates = convergence_rates(gens, w)
            worst = max(worst, abs(rates.lambda_synch - lo.real))
            worst = max(worst, abs(rates.lambda_cons - min(2.0 * b, lo.real)))
    report(2, worst < 1e-9,
           f"rate formulas match the generic min-over-partitions computation "
           f"on 2000 draws (max dev {worst:.2e}, tol 1e-9)")


def test_criterion_3_published_optima():
    checks = []

    c13 = BudgetConstraint.for_generators(g13(), 1.0)
    w, v = maximize_rate(g13(), c13, objective="consensus")
    checks.append(abs(v - 0.4) < 1e-3)
    checks.append(max(abs(w[0] - 0.2), abs(w[1] - 0.2)) < 1e-3)

    c33 = BudgetConstraint.for_generators(g33(), 1.0)
    w, v = maximize_rate(g33(), c33, objective="consensus")
    checks.append(abs(v - 0.25) < 1e-3)
    checks.append(max(abs(w[0] - 0.25), abs(w[1] - 0.25)) < 1e-3)

    c14 = BudgetConstraint.for_generators(g14(), 1.0)
    w, v = maximize_rate(g14(), c14, objective="consensus")
    synch_at_w = convergence_rates(g14(), w).lambda_synch
    checks.append(abs(v - 0.1699) < 5e-3)
    checks.append(abs(synch_at_w - 0.25) < 5e-3)
    target = (0.1535, 0.097, 0.096)
    checks.append(all(abs(wi - ti) < 5e-3 for wi, ti in zip(w, target)))

    _, cons, synch, _ = pareto_scan(g14(), c14)
    for ca, sa in ((0.1326, 0.1326), (0.15457, 0.19731)):
        checks.append(any(
            abs(c - ca) < 5e-3 and abs(s - sa) < 5e-3 for c, s in zip(cons, synch)
        ))

    report(3, all(checks),
           "optimizer and scan reproduce the published optima and the two "
           f"marked front points (subchecks {checks})")


def test_criterion_4_directed_counterexample():
    rates = convergence_rates(g23(), [0.2, 0.2, 0.2])
    dev = max(abs(rates.lambda_synch - 0.6), abs(rates.lambda_cons - 0.4))
    report(4, dev < 1e-9,
           f"equal-weight bidirectional family separates the two rates "
           f"(0.6 vs 0.4, max dev {dev:.2e}, tol 1e-9)")


def test_criterion_5_undirected_rate_equality():
    rng = np.random.default_rng(20260805)
    gens = g33()
    worst = 0.0
    for w in positive_draws(rng, (500, 2)):
        per = convergence_rates(gens, w).per_partition
        vals = list(per.values())
        worst = max(worst, max(vals) - min(vals))
    report(5, worst < 1e-7,
           f"undirected pair: per-partition second eigenvalues agree on "
           f"500 draws (max spread {worst:.2e}, tol 1e-7)")


def test_criterion_6_intertwining():
    rng = np.random.default_rng(20260806)
    all_ok = True
    refinement_seen = False
    for gens in (g13(), g23(), g14()):
        for w in positive_draws(rng, (100, len(gens))):
            rep = intertwining_check(gens, w, tol=1e-7)
            all_ok = all_ok and rep.ok
            for pc in rep.pairs:
                if (pc.kind == "alternating-removed"
                        and pc.inner == (1, 1, 1, 1) and pc.outer == (2, 1, 1)):
                    refinement_seen = True
                    all_ok = all_ok and pc.included
    report(6, all_ok and refinement_seen,
           "dominance-order spectrum inclusions hold on 300 draws, "
           "including the sign-mode-removed refinement of the order-24 graph")


def test_criterion_7_quantum_classical_equivalence():
    rng = np.random.default_rng(20260807)
    gens = g13()
    w = 0.2 + 0.6 * rng.random(2)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    traj = evolve(rho0, None, gens, w, t_final=20.0, dt=1e-3, store_every=500)
    lq = build_lq(gens, w)
    x0 = decompose(rho0).reshape(-1)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        x_direct = decompose(state).reshape(-1)
        x_flow = expm(-lq * t) @ x0
        worst = max(worst, float(np.abs(x_direct - x_flow).max()))
    report(7, worst < 1e-6,
           f"coefficient flow and direct integration agree to t=20 "
           f"(max dev {worst:.2e}, tol 1e-6)")


def test_criterion_8_fixed_point_and_theorems():
    gens = g13()
    group = generate_group(gens)
    rng = np.random.default_rng(20260808)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real

    sym = symmetric_state(rho, group)
    residual = float(np.linalg.norm(lindblad_rhs(sym, None, gens, [0.7, 0.4])))
    ok_a = residual < 1e-10

    w = [0.2, 0.2]
    rho0 = generic_state(2, 3, seed=0, gens=gens, weights=w)
    h0 = uniform_site_hamiltonian(2, 3)
    traj = evolve(rho0, h0, gens, w, t_final=40.0, dt=1e-3, frame="lab",
                  store_every=1000)
    final_sync = sync_distance(traj.states[-1])
    ok_b = final_sync < 1e-6

    # weights with a wide spectral gap so the fit window is single-mode
    w = [0.4, 1.0]
    rho0 = generic_state(2, 3, seed=1, gens=gens, weights=w)
    traj = evolve(rho0, None, gens, w, t_final=20.0, dt=1e-3, store_every=10)
    target = symmetric_state(rho0, group)
    dist = frobenius_distances(traj.states, target)
    fitted = fit_decay_rate(traj.times, dist)
    vals = eigenvalues(build_lq(gens, w))
    nonzero = vals[np.abs(vals) > 1e-9]
    ref = float(nonzero.real.min())
    rel = abs(fitted - ref) / ref
    ok_c = rel < 0.05

    report(8, ok_a and ok_b and ok_c,
           f"stationarity ({residual:.1e} < 1e-10), lab-frame sync "
           f"({final_sync:.1e} < 1e-6), fitted consensus rate "
           f"({fitted:.4f} vs {ref:.4f}, rel dev {rel:.3f} < 0.05)")


def test_criterion_9_invariant_suite():
    checks = []

    # exact row sums for exactly representable weights
    lap = generator_laplacian(g13(), [0.25, 0.125])
    checks.append(bool(np.all(lap.sum(axis=1) == 0.0)))
    for parts in partitions_of(3, 4):
        ig = induced_laplacian(parts, g13(), [0.25, 0.125])
        checks.append(bool(np.all(ig.laplacian.sum(axis=1) == 0.0)))
    lq = build_lq(g14(), [0.25, 0.125, 0.0625])
    checks.append(bool(np.all(lq.sum(axis=1) == 0.0)))

    # density invariants along a trajectory
    rho0 = generic_state(2, 3, seed=2)
    traj = evolve(rho0, None, g13(), [0.3, 0.2], t_final=5.0, dt=1e-3,
                  store_every=250)
    for state in traj.states:
        checks.append(abs(np.trace(state).real - 1.0) < 1e-12)
        checks.append(float(np.abs(state - state.conj().T).max()) == 0.0)
        checks.append(float(np.linalg.eigvalsh(state).min()) > -1e-9)

    # tabloid counts are multinomial coefficients
    import math

    for n in (4, 5):
        for parts in partitions_of(n, n):
            count = math.factorial(n)
            for p in parts:
                count //= math.factorial(p)
            checks.append(len(enumerate_tabloids(parts)) == count)

    # budget feasibility of optimizer and scan outputs
    c14 = BudgetConstraint.for_generators(g14(), 1.0)
    checks.append(all(
        c14.is_feasible(w) for w in pareto_scan(g14(), c14, resolution=40)[0]
    ))
    for objective in ("consensus", "synchronization"):
        w_opt, _ = maximize_rate(g14(), c14, objective=objective)
        checks.append(c14.is_feasible(w_opt))

    # byte-identical reruns of the command-line entry points
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for tag in ("a", "b"):
            csv = Path(tmp) / f"{tag}.csv"
            subprocess.run(
                [sys.executable, "-m", "qconsensus.cli", "pareto", "g1-3",
                 "--resolution", "40", "--out", str(csv)],
                capture_output=True, check=True,
            )
            outs.append(csv.read_bytes())
        checks.append(outs[0] == outs[1])
        rate_runs = [
            subprocess.run(
                [sys.executable, "-m", "qconsensus.cli", "rates", "g1-3",
                 "--weights", "0.3,0.1"],
                capture_output=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        checks.append(rate_runs[0] == rate_runs[1])

    report(9, all(checks),
           f"row sums, density drift, tabloid counts, budget feasibility and "
           f"rerun determinism all hold ({sum(checks)}/{len(checks)} subchecks)")
