"""The two-state scalar Gaussian example: boundary traces for growing
conferencing capacities, the fixed single-link ceiling on R2, and the
saturating sum rate.

Run:  python demos/gaussian_region.py        (takes a couple of minutes)
"""

from fsmac import (
    ConferencingConfig,
    GaussianMacSpec,
    MarkovChain,
    SolverConfig,
    maximize_weighted_rate,
    trace_boundary,
)

chain = MarkovChain(["G", "B"], [[0.9, 0.1], [0.1, 0.9]])
GAINS = [[1.0], [0.1]]  # amplitude per state: power gains 1 and 0.01
# one channel; the links only shift its rate caps, so each call takes its own
spec = GaussianMacSpec(chain, GAINS, GAINS, 10.0, 10.0, 2, 2, "real")

cfg = SolverConfig(max_steps=4000)

print("boundary points for symmetric links:")
for c in (0.0, 0.3, 0.9):
    pts = trace_boundary(spec, ConferencingConfig(c, c), 5, cfg)
    txt = ", ".join(f"({p.point.r1:.3f}, {p.point.r2:.3f})" for p in pts)
    print(f"   c12=c21={c}: {txt}")

print("\nwith one silent link, the best R2 never moves:")
for c12 in (0.0, 0.3, 0.9):
    best_r2 = maximize_weighted_rate(spec, ConferencingConfig(c12, 0.0), 0.0, 1.0, cfg).value
    print(f"   c12={c12}: max R2 = {best_r2:.4f}")

print("\nsum rate saturates once the links stop binding:")
for c in (0.0, 0.5, 1.0, 2.0, 4.0):
    v = maximize_weighted_rate(spec, ConferencingConfig(c, c), 1.0, 1.0, cfg).value
    print(f"   c12=c21={c}: R1+R2 = {v:.4f}")

unbounded = ConferencingConfig(float("inf"), float("inf"))
v_inf = maximize_weighted_rate(spec, unbounded, 1.0, 1.0, cfg).value
print(f"   unbounded links: {v_inf:.4f}  (the total-cooperation ceiling)")
