"""Tour of the exact oracle: every identity the convergence argument uses,
checked numerically on the 4-state fixture.
"""

import numpy as np

from eesampler import exact, four_state_config

cfg = four_state_config()
model = cfg.kernels
pi1, pi2 = cfg.ladder.density_table()
rng = np.random.default_rng(2)

# --- transition matrices ----------------------------------------------------
K = exact.k_matrix(model, 1)
Q = exact.q_matrix(model, 1, pi1)
print("local MH matrix K_2:")
print(np.round(K, 4))
print("selection matrix Q with feeder pi_1:")
print(np.round(Q, 4))

# --- fixed point: feeding pi_1 yields invariant measure pi_2 -----------------
for eps in (0.0, 0.25, 0.5, 1.0):
    P = exact.interacting_matrix(model, 1, pi1, eps)
    dev = np.abs(exact.stationary(P) - pi2).max()
    print(f"fixed point at eps={eps}: |stationary - pi_2| = {dev:.2e}")

# --- Poisson equation ---------------------------------------------------------
f = np.array([1.0, 0.0, 0.0, 0.0])
P = exact.interacting_matrix(model, 1, pi1, 0.5)
sol = exact.poisson_solve(P, f)
print(f"\npoisson solution fhat = {np.round(sol.fhat, 6)}")
print(f"residual |(I-P)fhat - (f - w(f))| = {sol.residual:.2e}")
partial = exact.poisson_series_partial(P, f, 50)
print(f"50-term series vs direct solve: {np.abs(partial - sol.fhat).max():.2e}")

# --- q-fold composition identity ---------------------------------------------
mu = np.array([2.0, 1.0, 3.0, 4.0]) / 10.0
g = rng.uniform(-1.0, 1.0, 4)
for q in (1, 2, 3):
    disc = exact.composition_identity_check(model, 1, mu, g, q)
    print(f"composition identity q={q}: discrepancy {disc:.2e}")

# --- mixture expansion ----------------------------------------------------------
for n in (2, 4, 6):
    disc = exact.mixture_expansion_check(K, Q, 0.5, n)
    print(f"mixture word-sum n={n}: discrepancy {disc:.2e}")

# --- geometric rates -------------------------------------------------------------
rate = exact.geometric_rate_estimate(P)
print(f"\nDoeblin bound rho = {rate.rho:.4f}, fitted tv decay rho = {rate.rho_fitted:.4f}")
print("worst-case tv after n steps:", np.round(rate.tv_curve[:6], 5))

# --- Lipschitz continuity in the feeder measure -----------------------------------
xi = np.array([1.0, 2.0, 2.0, 5.0]) / 10.0
ratio = exact.lipschitz_check(model, 1, mu, xi, rng.uniform(-1.0, 1.0, (200, 4)))
print(f"\nlipschitz ratio over 200 random f: {ratio:.4f}  (bound: 1)")
print(f"invariant-measure continuity ratio: "
      f"{exact.invariant_continuity_check(model, 1, mu, xi):.4f}")

# --- the same identities on the ee-jump ------------------------------------------
# the checks read the configured variant's interaction: here the jump
# J = W∘A + diag(1 - rowsum(W∘A)), which moves only to a feeder atom
jump = four_state_config(kernel={"variant": "ee-jump", "epsilon": 0.5, "proposal": "uniform"})
jump_model = jump.kernels
print("\njump matrix J with feeder pi_1:")
print(np.round(exact.ee_jump_matrix(jump_model, 1, pi1), 4))
discs = exact.composition_identity_check(jump_model, 1, np.stack([mu, xi]), np.stack([g, g]), 3)
print(f"composition identity q=3 on a stack of two feeders: {np.round(discs, 18)}")
ratio = exact.lipschitz_check(jump_model, 1, mu, xi, rng.uniform(-1.0, 1.0, (200, 4)))
print(f"lipschitz ratio of the jump over 200 random f: {ratio:.4f}  (bound: 1)")
