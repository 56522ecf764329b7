"""Rate bounds and achievable-region geometry for the discrete channel:
bound evaluation for a fixed input policy, polytope vertex enumeration, and an
inner-bound search over quantized policies."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .markov import MarkovChain, delayed_state_joint
from .pmf import DmcChannel, InputPolicy, JointPmf, assemble_joint, conditional_mutual_information

__all__ = [
    "RateBounds",
    "RatePoint",
    "ConferencingConfig",
    "common_message_bounds",
    "conferencing_bounds",
    "polytope_vertices",
    "best_weighted_point",
    "SearchConfig",
    "SearchResult",
    "check_search_size",
    "search_weighted",
    "inner_bound_search",
]

_GEOM_TOL = 1e-12

# q entries (policies × |U|·|X1|·|X2|·k³·|Y|) that one `_common_caps` batch
# may hold. A batch's temporaries peak at about 65 bytes per entry, so a full
# batch peaks near 70 MB. The search runs its trajectories in groups that
# fit, and rejects a search whose single-trajectory row batch does not
# (`check_search_size`).
_CAPS_BATCH_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class RateBounds:
    """The four evaluated rate constraints, in bits per symbol.

    b1 caps the first private rate, b2 the second, b12 their sum; bsum caps
    the grand total (all three rates in common-message mode, the second sum
    constraint in conferencing mode).
    """

    b1: float
    b2: float
    b12: float
    bsum: float

    def __post_init__(self):
        for name in ("b1", "b2", "b12", "bsum"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if math.isfinite(self.b1) and math.isfinite(self.b2) and self.b12 > self.b1 + self.b2 + 1e-9:
            raise ValueError("b12 exceeds b1 + b2; bounds are not from a single joint law")

    def sum_cap(self) -> float:
        """Effective cap on r1 + r2."""
        return min(self.b12, self.bsum)


@dataclass(frozen=True)
class RatePoint:
    r0: float
    r1: float
    r2: float

    def __post_init__(self):
        if self.r0 < 0 or self.r1 < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class ConferencingConfig:
    """Capacities of the two noise-free inter-encoder links, bits per symbol.

    Infinite values are permitted and mean an unbounded link.
    """

    c12: float = 0.0
    c21: float = 0.0

    def __post_init__(self):
        if self.c12 < 0 or self.c21 < 0 or math.isnan(self.c12) or math.isnan(self.c21):
            raise ValueError("link capacities must be nonnegative")


def common_message_bounds(joint: JointPmf) -> RateBounds:
    """Rate bounds for the common-message mode, evaluated from one joint law."""
    cond = ["S", "Sd1", "Sd2"]
    return RateBounds(
        b1=conditional_mutual_information(joint, ["X1"], ["Y"], ["X2", "U"] + cond),
        b2=conditional_mutual_information(joint, ["X2"], ["Y"], ["X1", "U"] + cond),
        b12=conditional_mutual_information(joint, ["X1", "X2"], ["Y"], ["U"] + cond),
        bsum=conditional_mutual_information(joint, ["X1", "X2"], ["Y"], cond),
    )


def conferencing_bounds(joint: JointPmf, conf: ConferencingConfig) -> RateBounds:
    """Conferencing-mode bounds: link capacities shift the first three caps."""
    base = common_message_bounds(joint)
    return RateBounds(
        b1=base.b1 + conf.c12,
        b2=base.b2 + conf.c21,
        b12=base.b12 + conf.c12 + conf.c21,
        bsum=base.bsum,
    )


def polytope_vertices(bounds: RateBounds) -> list[RatePoint]:
    """Vertices of the (r1, r2) region, counterclockwise from the origin.

    The region is {r >= 0, r1 <= b1, r2 <= b2, r1 + r2 <= min(b12, bsum)}; a
    common-message slice at total rate r0 is the region of bounds whose bsum
    is lowered by r0. Duplicate vertices within 1e-12 are removed; a
    degenerate region collapses to the origin alone.
    """
    cap = bounds.sum_cap()
    b1, b2 = bounds.b1, bounds.b2
    pts: list[tuple[float, float]] = [(0.0, 0.0)]
    x_max = min(b1, cap)
    pts.append((x_max, 0.0))
    if b1 + b2 > cap:
        # the sum constraint cuts the corner of the box
        if 0.0 < cap - b1 < b2:
            pts.append((b1, cap - b1))
        if 0.0 < cap - b2 < b1:
            pts.append((cap - b2, b2))
    else:
        pts.append((b1, b2))
    pts.append((0.0, min(b2, cap)))
    out: list[RatePoint] = []
    for x, y in pts:
        if any(abs(x - p.r1) <= _GEOM_TOL and abs(y - p.r2) <= _GEOM_TOL for p in out):
            continue
        out.append(RatePoint(0.0, x, y))
    return out


def _greedy_fill(b1, b2, cap, mu1, mu2):
    """The (r1, r2) maximizing mu1*r1 + mu2*r2 over the box [0, b1] x [0, b2]
    cut by r1 + r2 <= cap, elementwise: the heavier weight's rate is filled
    first (r1 on a tie) and the other gets what the cap leaves, which is the
    optimal vertex with the larger (r1, r2)."""
    first = mu1 >= mu2
    b_hi, b_lo = np.where(first, b1, b2), np.where(first, b2, b1)
    r_hi = np.minimum(b_hi, cap)
    # an unbounded r_hi under an unbounded cap leaves b_lo: fmin skips inf - inf
    with np.errstate(invalid="ignore"):
        r_lo = np.fmin(b_lo, cap - r_hi)
    return np.where(first, r_hi, r_lo), np.where(first, r_lo, r_hi)


def best_weighted_point(bounds: RateBounds, mu1: float, mu2: float) -> tuple[float, RatePoint]:
    """Maximize mu1*r1 + mu2*r2 over the conferencing region of `bounds`;
    ties prefer larger (r1, r2)."""
    check_weights(mu1, mu2)
    r1, r2 = (float(r) for r in _greedy_fill(bounds.b1, bounds.b2, bounds.sum_cap(), mu1, mu2))
    # a zero weight scores nothing, even on an unbounded rate (0 * inf is NaN)
    value = (mu1 * r1 if mu1 else 0.0) + (mu2 * r2 if mu2 else 0.0)
    return value, RatePoint(0.0, r1, r2)


def check_weights(mu1: float, mu2: float) -> None:
    """Raise ValueError unless the weights are finite, nonnegative and not both 0."""
    if not (0 <= mu1 < math.inf and 0 <= mu2 < math.inf and mu1 + mu2 > 0):
        raise ValueError(f"weights must be finite and nonnegative, not both 0; got ({mu1}, {mu2})")


def _simplex_grid(size: int, levels: int) -> np.ndarray:
    """All distributions over `size` symbols with masses at multiples of
    1/(levels-1), in lexicographic order: stars and bars, one row per choice
    of the size - 1 bar positions among levels + size - 2 slots."""
    slots = levels + size - 2
    bars = np.array(list(itertools.combinations(range(slots), size - 1)), dtype=int)
    return (np.diff(bars, prepend=-1, append=slots, axis=1) - 1) / (levels - 1)


@dataclass
class SearchConfig:
    """Budget and reproducibility knobs for the inner-bound policy search."""

    u_size: int = 2
    grid_levels: int = 5
    restarts: int = 4
    seed: int = 0
    mu1: float = 1.0
    mu2: float = 1.0
    max_passes: int = 30

    def __post_init__(self) -> None:
        # u_size 0 has no auxiliary letter to search over; the rest are empty budgets
        for name, least in (("u_size", 1), ("grid_levels", 2), ("restarts", 1), ("max_passes", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"search budget: {name} must be >= {least}, got {getattr(self, name)}")
        check_weights(self.mu1, self.mu2)


@dataclass
class SearchResult:
    value: float
    policy: InputPolicy
    point: RatePoint
    bounds: RateBounds
    visited: int = field(repr=False, default=0)


def _common_caps(states: np.ndarray, w: np.ndarray, pU, pX1, pX2) -> np.ndarray:
    """Common-message caps (b1, b2, b12, bsum) of B policies, shape (4, B).

    `states` is the P(Sd1, Sd2, S) table and `w` the channel table; pU, pX1
    and pX2 are `InputPolicy` factors, each with one trailing batch axis of
    length B, or 1 for a factor the whole batch shares. Y depends on the rest
    only through (X1, X2, S), so with C = (S, Sd1, Sd2) each cap is a
    conditional entropy of Y less
    h0 = H(Y | X1, X2, U, C) = sum P(x1, x2, s) H(W(.|x1, x2, s)):
    b1 = H(Y|X2,U,C) - h0, b2 = H(Y|X1,U,C) - h0, b12 = H(Y|U,C) - h0 and
    bsum = H(Y|C) - h0, each clamped at 0. `common_message_bounds` is the
    reference it matches.
    """
    # q over u; i,j = x1,x2; a,b,c = delayed1, delayed2, state; y; and the
    # batch last, so every product, sum and log loops over the batch. The
    # factors multiply in one fixed order and each sum adds its terms in
    # index order, so a policy's caps do not depend on its batch.
    q = (states[:, :, :, None, None]
         * pU.transpose(1, 0, 2)[:, None, None, :, None, None, None]
         * pX1.swapaxes(1, 2)[:, :, None, :, None, None, None]
         * pX2.transpose(0, 3, 1, 2, 4)[:, None, :, :, :, None, None]
         * w[:, :, None, None, :, :, None])
    q_i = q.sum(axis=2)
    q_u = q_i.sum(axis=1)
    # Y jointly with (X1,X2,U,C), (X2,U,C), (X1,U,C), (U,C) and C
    joints = [t.reshape(-1, *q.shape[-2:]) for t in (q, q.sum(axis=1), q_i, q_u, q_u.sum(axis=0))]
    p_yz = np.concatenate(joints)
    starts = np.cumsum([0] + [len(t) for t in joints[:-1]])
    del q, q_i, q_u, joints  # p_yz holds them all; free them before the logs
    # -H(Y|Z) per context z: sum_y p(y,z) log p(y,z) - p(z) log p(z). The y
    # sums are spelled out: at B = 1 numpy's own sum would run over y as its
    # inner loop and add 8 or more terms pairwise, in another order.
    plogp = p_yz * np.log2(np.where(p_yz > 0, p_yz, 1.0))
    neg_h = sum(plogp[:, 1:].swapaxes(0, 1), plogp[:, 0])
    p_z = sum(p_yz[:, 1:].swapaxes(0, 1), p_yz[:, 0])
    neg_h -= p_z * np.log2(np.where(p_z > 0, p_z, 1.0))
    h = -np.add.reduceat(neg_h, starts)
    return np.maximum(h[1:] - h[:1], 0.0)


def _weighted_values(caps: np.ndarray, conf: ConferencingConfig, mu1, mu2) -> np.ndarray:
    """best_weighted_point's value for each column of common-message `caps`,
    shifted by the link capacities of `conf`; mu1 and mu2 may vary by column."""
    cap = np.minimum(caps[2] + conf.c12 + conf.c21, caps[3])
    r1, r2 = _greedy_fill(caps[0] + conf.c12, caps[1] + conf.c21, cap, mu1, mu2)
    return mu1 * r1 + mu2 * r2


def check_search_size(config: SearchConfig, k: int, channel: DmcChannel) -> int:
    """Raise ValueError, naming the field, unless a search with `config` fits
    a chain with k states and `channel`: the channel has k states, u_size is
    within `InputPolicy`'s ceiling |X1|·|X2|·k³ + 2, and one trajectory's
    largest row batch, grid points times q entries per policy, is within
    `_CAPS_BATCH_ELEMENTS`. Returns the q entries of that batch."""
    if channel.n_states != k:
        raise ValueError(f"channel table has {channel.n_states} states, the chain {k}")
    n_u = config.u_size
    cap = channel.n_x1 * channel.n_x2 * k**3 + 2
    if n_u > cap:
        raise ValueError(f"u_size {n_u} exceeds the ceiling {cap}")
    # the widest row has the most points of _simplex_grid(size, grid_levels)
    size = max(n_u, channel.n_x1, channel.n_x2)
    rows = math.comb(config.grid_levels - 2 + size, size - 1)
    entries = n_u * channel.n_x1 * channel.n_x2 * k**3 * channel.n_y
    if rows * entries > _CAPS_BATCH_ELEMENTS:
        raise ValueError(
            f"grid_levels {config.grid_levels}: a row over {size} symbols has {rows:,} grid "
            f"points of {entries:,} q entries each, above the batch budget of "
            f"{_CAPS_BATCH_ELEMENTS:,} q entries"
        )
    return rows * entries


def search_weighted(
    chain: MarkovChain, d1: int, d2: int, channel: DmcChannel, conf: ConferencingConfig,
    configs: list[SearchConfig], joint_states=None,
) -> list[SearchResult]:
    """Search quantized input policies for the best weighted rate of each of
    `configs`, which may differ only in their weights (mu1, mu2).

    Coordinate ascent over the conditional rows of the policy on a simplex
    grid, restarted from seeded random rows; restart r draws from the stream
    (seed, r), so results do not depend on execution order. A trajectory is
    one (direction, restart) pair, and all of them run in lockstep: at each
    row step, the grid candidates of that row for every trajectory still
    running are scored as one batch from factor-level entropies
    (`_common_caps`); each trajectory then accepts its own candidates in grid
    order when they beat its current value by more than 1e-12, and leaves the
    lockstep after a pass without improvement. Trajectories run in groups
    whose batch stays within `_CAPS_BATCH_ELEMENTS`. A restart replaces its
    direction's best only by the same margin, so the earliest wins ties. Each
    value is an inner bound: the exact weighted rate of the returned policy,
    evaluated once more through `conferencing_bounds`.

    `joint_states` overrides the state law computed from (chain, d1, d2),
    for surrogate models such as a decoupled first observation.
    """
    if not configs:
        return []
    config = configs[0]
    if any(replace(c, mu1=config.mu1, mu2=config.mu2) != config for c in configs):
        raise ValueError("search configs must agree on everything but (mu1, mu2)")
    k = chain.k
    # trajectories per group, so that a row step's batch fits the budget
    group = _CAPS_BATCH_ELEMENTS // check_search_size(config, k, channel)
    dsj = joint_states if joint_states is not None else delayed_state_joint(chain, d1, d2)
    if dsj.k != k:
        raise ValueError(f"the state law must have the chain's {k} states")

    # one flat list of conditional rows; each row is a simplex of its own size
    n_u = config.u_size
    shapes = {"pU": (k, n_u), "pX1": (n_u, k, channel.n_x1), "pX2": (n_u, k, k, channel.n_x2)}
    row_specs = [(name, idx) for name, shape in shapes.items() for idx in np.ndindex(shape[:-1])]
    grids = {shape[-1]: _simplex_grid(shape[-1], config.grid_levels) for shape in shapes.values()}

    def start(restart: int) -> dict[str, np.ndarray]:
        if restart == 0:
            return {name: np.full(shape, 1.0 / shape[-1]) for name, shape in shapes.items()}
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, restart)))
        policy = {name: np.empty(shape) for name, shape in shapes.items()}
        for name, idx in row_specs:
            policy[name][idx] = rng.dirichlet(np.ones(shapes[name][-1]))
        return policy

    # trajectory t runs restart t % n_r of direction t // n_r
    n_r = config.restarts
    starts = [start(r) for r in range(n_r)]
    mus = np.repeat([[c.mu1 for c in configs], [c.mu2 for c in configs]], n_r, axis=1)
    visited = np.zeros(len(configs) * n_r, dtype=int)
    best: list = [(-np.inf, None)] * len(configs)
    for first in range(0, len(visited), group):
        traj = np.arange(first, min(first + group, len(visited)))
        # policies[name][..., t] is trajectory traj[t]'s factor; live lists the running ones
        policies = {name: np.stack([starts[r][name] for r in traj % n_r], -1) for name in shapes}

        def values(batch: dict[str, np.ndarray], cols) -> np.ndarray:
            caps = _common_caps(dsj.table, channel.table, batch["pU"], batch["pX1"], batch["pX2"])
            return _weighted_values(caps, conf, *mus[:, traj[cols]])

        cur = values(policies, slice(None)).tolist()
        visited[traj] += 1
        live = np.arange(len(traj))
        for _ in range(config.max_passes):
            improved = np.zeros(len(live), dtype=bool)
            for name, idx in row_specs:
                grid = grids[shapes[name][-1]]
                # columns (live trajectory, candidate); only the varied row has candidates
                cols = np.repeat(live, len(grid))
                batch = {other: arr[..., cols] for other, arr in policies.items()}
                batch[name][idx] = np.tile(grid.T, len(live))
                visited[traj[live]] += len(grid)
                vals = values(batch, cols).reshape(len(live), len(grid)).tolist()
                for pos, (t, row) in enumerate(zip(live.tolist(), vals)):
                    pick = None
                    for j, val in enumerate(row):
                        if val > cur[t] + 1e-12:
                            cur[t] = val
                            pick = j
                    if pick is not None:
                        policies[name][idx][:, t] = grid[pick]
                        improved[pos] = True
            live = live[improved]
            if not len(live):
                break
        for t, val in enumerate(cur):
            if val > best[traj[t] // n_r][0] + 1e-12:
                best[traj[t] // n_r] = (val, InputPolicy(*(policies[n][..., t].copy() for n in shapes)))
    results = []
    reports = {}  # a policy's bounds, shared by the directions that end at it
    for c, (_, policy), n in zip(configs, best, visited.reshape(-1, n_r).sum(axis=1).tolist()):
        key = b"".join(f.tobytes() for f in (policy.pU, policy.pX1, policy.pX2))
        if key not in reports:
            reports[key] = conferencing_bounds(assemble_joint(dsj, policy, channel), conf)
        value, point = best_weighted_point(reports[key], c.mu1, c.mu2)
        results.append(SearchResult(value, policy, point, reports[key], visited=n))
    return results


def inner_bound_search(
    chain: MarkovChain, d1: int, d2: int, channel: DmcChannel, conf: ConferencingConfig,
    config: SearchConfig, joint_states=None,
) -> SearchResult:
    """`search_weighted` for one weight direction."""
    return search_weighted(chain, d1, d2, channel, conf, [config], joint_states)[0]
