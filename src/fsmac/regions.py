"""Rate bounds and achievable-region geometry for the discrete channel:
bound evaluation for a fixed input policy, polytope vertex enumeration, and an
inner-bound search over quantized policies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "inner_bound_search",
]

_GEOM_TOL = 1e-12

# q entries (policies × |U|·|X1|·|X2|·k³·|Y|) that one `_common_caps` batch
# may hold. A batch's temporaries peak at about 65 bytes per entry, so a full
# batch peaks near 70 MB. The search runs its restarts in groups that fit,
# and rejects a search whose single-restart row batch does not
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

    def sum_cap(self, r0: float = 0.0) -> float:
        """Effective cap on r1 + r2 once a total rate r0 is reserved."""
        return min(self.b12, max(self.bsum - r0, 0.0))


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


def polytope_vertices(bounds: RateBounds, mode: str = "conferencing", r0: float = 0.0) -> list[RatePoint]:
    """Vertices of the (r1, r2) region, counterclockwise from the origin.

    The region is {r >= 0, r1 <= b1, r2 <= b2, r1 + r2 <= cap} with
    cap = min(b12, bsum) in conferencing mode and min(b12, bsum - r0) for a
    common-message slice at total rate r0. Duplicate vertices within 1e-12
    are removed; a degenerate region collapses to the origin alone.
    """
    if mode not in ("conferencing", "common"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "conferencing" and r0 != 0.0:
        raise ValueError("r0 applies to the common-message mode only")
    cap = bounds.sum_cap(r0)
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
        out.append(RatePoint(r0, x, y))
    return out


def best_weighted_point(
    bounds: RateBounds, mu1: float, mu2: float, mode: str = "conferencing", r0: float = 0.0
) -> tuple[float, RatePoint]:
    """Maximize mu1*r1 + mu2*r2 over the region; ties prefer larger (r1, r2)."""
    if mu1 < 0 or mu2 < 0 or mu1 + mu2 <= 0:
        raise ValueError("weights must be nonnegative with mu1 + mu2 > 0")
    verts = polytope_vertices(bounds, mode=mode, r0=r0)
    best = max(verts, key=lambda p: (mu1 * p.r1 + mu2 * p.r2, p.r1, p.r2))
    return mu1 * best.r1 + mu2 * best.r2, best


def _simplex_grid(size: int, levels: int) -> np.ndarray:
    """All distributions over `size` symbols with masses at multiples of 1/(levels-1)."""
    ticks = levels - 1
    rows = [
        np.array(c, dtype=float) / ticks
        for c in _compositions(ticks, size)
    ]
    return np.array(rows)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


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
        if not (self.mu1 >= 0 and self.mu2 >= 0 and self.mu1 + self.mu2 > 0):
            raise ValueError(f"weights must be nonnegative, not both 0; got ({self.mu1}, {self.mu2})")


@dataclass
class SearchResult:
    value: float
    policy: InputPolicy
    point: RatePoint
    bounds: RateBounds
    visited: int = field(repr=False, default=0)


def _common_caps(states: np.ndarray, w: np.ndarray, pU, pX1, pX2) -> np.ndarray:
    """Common-message caps (b1, b2, b12, bsum) of a stack of policies, shape
    (4, *batch).

    `states` is the P(Sd1, Sd2, S) table and `w` the channel table; pU, pX1
    and pX2 carry leading batch axes that broadcast against each other (a
    factor shared along a batch axis has length 1 there), and `batch` is
    their broadcast shape. Y depends on the rest only through (X1, X2, S), so
    with C = (S, Sd1, Sd2) each cap is a conditional entropy of Y less
    h0 = H(Y | X1, X2, U, C) = sum P(x1, x2, s) H(W(.|x1, x2, s)):
    b1 = H(Y|X2,U,C) - h0, b2 = H(Y|X1,U,C) - h0, b12 = H(Y|U,C) - h0 and
    bsum = H(Y|C) - h0, each clamped at 0. `common_message_bounds` is the
    reference it matches.
    """
    # q over the batch axes, then u; i,j = x1,x2; a,b,c = delayed1, delayed2,
    # state; y. Each factor is broadcast onto those axes and multiplied in
    # one fixed order, so a policy's q does not depend on its batch; factors
    # made contiguous in that axis order give a C-ordered q to reshape.
    pU, pX1, pX2 = (np.ascontiguousarray(f) for f in
                    (np.swapaxes(pU, -1, -2), np.swapaxes(pX1, -1, -2), np.moveaxis(pX2, -1, -3)))
    q = (states[:, :, :, None]
         * pU[..., :, None, None, :, None, None, None]
         * pX1[..., :, :, None, :, None, None, None]
         * pX2[..., :, None, :, :, :, None, None]
         * w[:, :, None, None, :, :])
    batch, ny = q.shape[:-7], q.shape[-1]
    q = q.reshape(-1, *q.shape[-7:])
    n = q.shape[0]
    q_i = q.sum(axis=3)
    q_u = q_i.sum(axis=2)
    # Y jointly with (X1,X2,U,C), (X2,U,C), (X1,U,C), (U,C) and C
    joints = [t.reshape(n, -1, ny) for t in (q, q.sum(axis=2), q_i, q_u, q_u.sum(axis=1))]
    p_yz = np.concatenate(joints, axis=1)
    starts = np.cumsum([0] + [t.shape[1] for t in joints[:-1]])
    del q, q_i, q_u, joints  # p_yz holds them all; free them before the logs
    p_z = p_yz.sum(axis=-1)
    # -H(Y|Z) per context z: sum_y p(y,z) log p(y,z) - p(z) log p(z)
    plogp = np.log2(p_yz, out=np.zeros_like(p_yz), where=p_yz > 0)
    plogp *= p_yz
    neg_h = plogp.sum(axis=-1)
    neg_h -= p_z * np.log2(p_z, out=np.zeros_like(p_z), where=p_z > 0)
    h = -np.add.reduceat(neg_h, starts, axis=1)
    return np.maximum(h[:, 1:] - h[:, :1], 0.0).T.reshape(4, *batch)


def _weighted_values(caps: np.ndarray, conf: ConferencingConfig, mu1: float, mu2: float) -> np.ndarray:
    """best_weighted_point's value for each column of common-message `caps`,
    shifted by the link capacities of `conf`.

    The region is a box cut by the sum cap, so the optimum fills the rate of
    the heavier weight first and gives the other what the cap leaves.
    """
    b1 = caps[0] + conf.c12
    b2 = caps[1] + conf.c21
    cap = np.minimum(caps[2] + conf.c12 + conf.c21, caps[3])
    (m_hi, b_hi), (m_lo, b_lo) = ((mu1, b1), (mu2, b2)) if mu1 >= mu2 else ((mu2, b2), (mu1, b1))
    r_hi = np.minimum(b_hi, cap)
    return m_hi * r_hi + m_lo * np.minimum(b_lo, cap - r_hi)


def check_search_size(config: SearchConfig, k: int, channel: DmcChannel) -> int:
    """Raise ValueError, naming the field, unless a search with `config` fits
    a channel with k states: u_size within `InputPolicy`'s ceiling
    |X1|·|X2|·k³ + 2, and one restart's largest row batch, grid points times
    q entries per policy, within `_CAPS_BATCH_ELEMENTS`. Returns the q
    entries of that batch."""
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


def inner_bound_search(
    chain: MarkovChain,
    d1: int,
    d2: int,
    channel: DmcChannel,
    conf: ConferencingConfig,
    config: SearchConfig,
    joint_states=None,
) -> SearchResult:
    """Search quantized input policies for the best weighted rate.

    Coordinate ascent over the conditional rows of the policy on a simplex
    grid, restarted from seeded random rows; every restart derives its own
    random stream from (seed, restart index), so results do not depend on
    execution order. The restarts run in lockstep: at each row step, all grid
    candidates of that row for every restart still running are scored as one
    batch from factor-level entropies (`_common_caps`); each restart then
    accepts its own candidates in grid order when they beat its current value
    by more than 1e-12, and leaves the lockstep after a pass without
    improvement. Restarts run in groups whose batch stays within
    `_CAPS_BATCH_ELEMENTS`. A restart replaces the best one only by the same
    margin, so the earliest wins ties. The returned value is an inner bound:
    it is the exact weighted rate of the returned policy, evaluated once more
    through `conferencing_bounds`, never an extrapolation.

    `joint_states` overrides the state law computed from (chain, d1, d2),
    for surrogate models such as a decoupled first observation.
    """
    k = chain.k
    # restarts per group, so that a row step's batch fits the budget
    group = _CAPS_BATCH_ELEMENTS // check_search_size(config, k, channel)
    dsj = joint_states if joint_states is not None else delayed_state_joint(chain, d1, d2)
    if channel.n_states != k or dsj.k != k:
        raise ValueError(f"channel and state law must have the chain's {k} states")

    # one flat list of conditional rows; each row is a simplex of its own size
    n_u = config.u_size
    shapes = {"pU": (k, n_u), "pX1": (n_u, k, channel.n_x1), "pX2": (n_u, k, k, channel.n_x2)}
    row_specs = [(name, idx) for name, shape in shapes.items() for idx in np.ndindex(shape[:-1])]
    grids = {shape[-1]: _simplex_grid(shape[-1], config.grid_levels) for shape in shapes.values()}

    def values(batch: dict[str, np.ndarray]) -> np.ndarray:
        caps = _common_caps(dsj.table, channel.table, **batch)
        return _weighted_values(caps, conf, config.mu1, config.mu2)

    def start(restart: int) -> dict[str, np.ndarray]:
        if restart == 0:
            return {name: np.full(shape, 1.0 / shape[-1]) for name, shape in shapes.items()}
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, restart)))
        policy = {name: np.empty(shape) for name, shape in shapes.items()}
        for name, idx in row_specs:
            policy[name][idx] = rng.dirichlet(np.ones(shapes[name][-1]))
        return policy

    visited = 0
    best_val = -np.inf
    best: dict[str, np.ndarray] | None = None
    for first in range(0, config.restarts, group):
        starts = [start(r) for r in range(first, min(first + group, config.restarts))]
        # policies[name][r] is restart first + r's factor; live lists the running ones
        policies = {name: np.stack([p[name] for p in starts]) for name in shapes}
        cur = values(policies).tolist()
        visited += len(cur)
        live = np.arange(len(cur))
        for _ in range(config.max_passes):
            improved = np.zeros(len(live), dtype=bool)
            for name, idx in row_specs:
                grid = grids[shapes[name][-1]]
                # axes (live restart, candidate); only the varied row has candidates
                batch = {other: arr[live, None] for other, arr in policies.items()}
                batch[name] = np.repeat(batch[name], len(grid), axis=1)
                batch[name][(slice(None), slice(None)) + idx] = grid
                visited += len(live) * len(grid)
                for pos, (r, vals) in enumerate(zip(live.tolist(), values(batch).tolist())):
                    pick = None
                    for j, val in enumerate(vals):
                        if val > cur[r] + 1e-12:
                            cur[r] = val
                            pick = j
                    if pick is not None:
                        policies[name][(r,) + idx] = grid[pick]
                        improved[pos] = True
            live = live[improved]
            if not len(live):
                break
        for r, val in enumerate(cur):
            if val > best_val + 1e-12:
                best_val = val
                best = {name: arr[r].copy() for name, arr in policies.items()}
    assert best is not None
    result_policy = InputPolicy(best["pU"], best["pX1"], best["pX2"])
    bounds = conferencing_bounds(assemble_joint(dsj, result_policy, channel), conf)
    value, point = best_weighted_point(bounds, config.mu1, config.mu2)
    return SearchResult(value=value, policy=result_policy, point=point, bounds=bounds, visited=visited)
