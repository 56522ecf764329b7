"""A walk through the state-process layer: a two-state good/bad channel
chain, its stationary behaviour, and what delayed observations know about the
present.

Run:  python demos/state_process.py
"""

import math

import numpy as np

from fsmac import (
    MarkovChain,
    delayed_state_joint,
    n_step_matrix,
    stationary_distribution,
)

# A channel that flips between a Good and a Bad state, sticky in both:
# from G it stays G with probability 0.9, from B it stays B with 0.9.
chain = MarkovChain(["G", "B"], [[0.9, 0.1], [0.1, 0.9]])

pi = stationary_distribution(chain)
print("stationary distribution:", dict(zip(chain.states, pi.round(6))))

# How quickly does knowledge of the state age? After d steps the conditional
# of the current state given a d-old observation is a row of K^d. An
# infinitely old observation is worthless: every row of K^inf is pi.
for d in (1, 2, 5, 20, math.inf):
    P = n_step_matrix(chain, d)
    print(f"P(now | seen {d} steps ago):")
    for i, s in enumerate(chain.states):
        print(f"   from {s}: {P[i].round(4)}")

# Two encoders see the state with different lags. Their joint law with the
# current state is the basic object every rate bound averages over.
dsj = delayed_state_joint(chain, d1=2, d2=0)
print("\njoint law of (obs1, obs2, now) for delays (2, 0):")
for a in range(2):
    for b in range(2):
        for c in range(2):
            p = dsj.table[a, b, c]
            if p > 0:
                print(
                    f"   obs1={chain.states[a]} obs2={chain.states[b]} "
                    f"now={chain.states[c]}: {p:.4f}"
                )

# With equal delays the two observations coincide; with an infinite first
# delay encoder 1's observation is independent of everything else: the joint
# law is pi(obs1) times the law of (obs2, now), states one step apart.
far = delayed_state_joint(chain, math.inf, 1)
rest = pi[:, None] * chain.K
gap = np.abs(far.table - pi[:, None, None] * rest[None, :, :]).max()
print(f"\ndelay-inf observation decoupling residue: {gap:.2e}")
