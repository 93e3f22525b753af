"""Integrate the quantum dynamics and check the spectral rate prediction.

A three-site qubit network is driven toward the symmetrized version of
its initial state.  The distance to that target should decay like
exp(-lambda_cons t) once transients die out, with lambda_cons computed
purely from graph spectra.  The script fits the tail of the simulated
decay and compares.
"""

from qconsensus import (
    convergence_rates,
    evolve,
    fit_decay_rate,
    frobenius_distances,
    generator_set,
    generic_state,
    symmetric_state,
    sync_distance,
    uniform_site_hamiltonian,
)

gens = generator_set(3, [[[1, 2, 3]], [[1, 2]]], labels=["cycle", "swap"])
weights = [0.4, 1.0]

rates = convergence_rates(gens, weights)
print(f"predicted consensus rate: {rates.lambda_cons:.6f}")
print(f"predicted synch rate:     {rates.lambda_synch:.6f}")

rho0 = generic_state(2, 3, seed=1)
traj = evolve(rho0, None, gens, weights, t_final=20.0, dt=1e-3, store_every=10)

# average over the group the generators generate; it is never enumerated
target = symmetric_state(rho0, gens.perms)
dist = frobenius_distances(traj.states, target)
sync = sync_distance(traj.states)  # one value per stored state

print(f"distance to target: {dist[0]:.4f} at t=0, {dist[-1]:.2e} at t=20")
fitted = fit_decay_rate(traj.times, dist)
rel = abs(fitted - rates.lambda_cons) / rates.lambda_cons
print(f"fitted decay rate:  {fitted:.6f}  (rel deviation {rel:.2%})")

fitted_s = fit_decay_rate(traj.times, sync)
rel_s = abs(fitted_s - rates.lambda_synch) / rates.lambda_synch
print(f"fitted synch rate:  {fitted_s:.6f}  (rel deviation {rel_s:.2%})")

# a site Hamiltonian rotates the state but cannot break synchronization:
# the reduced single-site states still meet
h0 = uniform_site_hamiltonian(2, 3)
traj_lab = evolve(rho0, h0, gens, weights, t_final=20.0, dt=1e-3, store_every=10)
final_sync = sync_distance(traj_lab.states[-1])
print(f"with a uniform site Hamiltonian, final sync distance {final_sync:.2e}")

# the symmetrized state itself is a fixed point of the dynamics
stay = evolve(target, None, gens, weights, t_final=2.0, dt=1e-3, store_every=200)
drift = frobenius_distances(stay.states, target).max()
print(f"symmetrized state drifts by {drift:.2e} over two time units")
