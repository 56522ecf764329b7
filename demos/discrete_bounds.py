"""Evaluating the discrete rate bounds for a fixed input policy and searching
for good policies on a state-flipping parity channel.

Run:  python demos/discrete_bounds.py
"""

import numpy as np

from fsmac import (
    ConferencingConfig,
    DmcChannel,
    InputPolicy,
    MarkovChain,
    SearchConfig,
    assemble_joint,
    conditional_mutual_information,
    conferencing_bounds,
    delayed_state_joint,
    inner_bound_search,
    polytope_vertices,
)

# Good/bad chain and a parity channel whose noise level depends on the state:
# clean in Good, crossover 0.35 in Bad.
chain = MarkovChain(["G", "B"], [[0.9, 0.1], [0.1, 0.9]])
table = np.zeros((2, 2, 2, 2))
for s, p in enumerate((0.0, 0.35)):
    for x1 in range(2):
        for x2 in range(2):
            table[x1, x2, s, (x1 + x2) % 2] = 1 - p
            table[x1, x2, s, (x1 + x2 + 1) % 2] = p
channel = DmcChannel(table)

# Uniform inputs, a two-letter shared auxiliary symbol.
policy = InputPolicy(
    np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5), np.full((2, 2, 2, 2), 0.5)
)
joint = assemble_joint(delayed_state_joint(chain, 2, 1), policy, channel)

# The factorization forces three conditional independences; check one.
print(
    "auxiliary symbol independent of (state, obs2) given obs1:",
    conditional_mutual_information(joint, ["U"], ["S", "Sd2"], ["Sd1"]) <= 1e-9,
)

conf = ConferencingConfig(c12=0.2, c21=0.1)
bounds = conferencing_bounds(joint, conf)
print(f"\nbounds at the uniform policy: b1={bounds.b1:.4f} b2={bounds.b2:.4f} "
      f"b12={bounds.b12:.4f} bsum={bounds.bsum:.4f}")
print("region vertices (r1, r2):")
for p in polytope_vertices(bounds):
    print(f"   ({p.r1:.4f}, {p.r2:.4f})")

# The union over input laws is explored by a seeded grid-ascent search.
result = inner_bound_search(
    chain, 2, 1, channel, conf,
    SearchConfig(u_size=2, grid_levels=5, restarts=3, seed=0, mu1=1.0, mu2=1.0),
)
print(f"\nsearched sum-rate inner bound: {result.value:.4f} bits/symbol "
      f"({result.visited} policies visited)")
print("achieving point:", (round(result.point.r1, 4), round(result.point.r2, 4)))
