"""Walk through the reference 4-state setup end to end.

Two chains: the feeder targets the uniform distribution, the top chain
targets a density proportional to (1, 1, 2, 4). States {0, 1} form the low
energy ring and {2, 3} the high one, so the interaction step can only
propose feeder atoms from the ring the chain currently occupies.
"""

import numpy as np

from eesampler import exact, four_state_config, ladder_masses, run

cfg = four_state_config(schedule={"offsets": [50], "total_rounds": 50_000})
print("state space:", cfg.space)
print("rings:", cfg.partition.labels())
print("ring masses per ladder level (rows sum to 1):")
print(ladder_masses(cfg.ladder, cfg.partition))

# run the staged schedule: the feeder moves alone for 50 rounds, then both
trace = run(cfg)
print(f"\nran {trace.meta['rounds']} rounds, "
      f"min ring mass seen {trace.meta['min_ring_mass']:.3f}, "
      f"stability violations {trace.meta['stability_violations']}")

# chain-2 occupation must settle on its target
states = [row[2] for row in trace.rows if row[0] == 1 and row[1] >= 50]
occupancy = np.bincount(states, minlength=4) / len(states)
pi2 = cfg.ladder.density_table()[1]
print("\nstate   occupancy   target")
for s in range(4):
    print(f"  {s}      {occupancy[s]:.4f}     {pi2[s]:.4f}")

# the exact oracle agrees: the plain MH kernel for level 2 has pi_2 as its
# stationary vector, and so does the interacting kernel fed with exact pi_1
K = exact.k_matrix(cfg.kernels, 1)
print("\nstationary of K_2:", np.round(exact.stationary(K), 4))
P = exact.interacting_matrix(cfg.kernels, 1, cfg.ladder.density_table()[0])
print("stationary of K_{pi_1,2}:", np.round(exact.stationary(P), 4))

# how often did the interaction branch fire and succeed?
moves = [row for row in trace.rows if row[0] == 1 and row[4] == "selection"]
accepted = sum(1 for row in moves if row[5])
print(f"\nselection branch fired {len(moves)} times "
      f"({len(moves) / len(states):.1%} of active rounds), "
      f"swap acceptance {accepted / len(moves):.1%}")
