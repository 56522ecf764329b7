"""Capacity region of the diagonal-vector Gaussian channel with cooperating
encoders and delayed state observations, as a concave program over power and
correlation allocations, solved by a batched log-barrier Newton method on its
conic (kappa) form (Boyd & Vandenberghe, Convex Optimization, 11.3)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import MarkovChain, delayed_state_joint
from .regions import ConferencingConfig, RateBounds, RatePoint, best_weighted_point, check_weights

__all__ = [
    "GaussianMacSpec",
    "Allocation",
    "FeasibilityReport",
    "FeasibilityError",
    "SolverConfig",
    "GaussianSolveResult",
    "TracePoint",
    "rate_bounds_gaussian",
    "feasible",
    "maximize_weighted_rate",
    "solve_weighted",
    "trace_boundary",
]

_LN2 = math.log(2.0)
_FEAS_SLACK = 1e-9
_GAP = 1e-9          # the barrier stops once its surrogate gap m/t is this small, in bits
_DECREMENT = 1e-10   # a centering ends at this relative Newton decrement
_SNAP = 1e-6         # a private or common part below this share of its cell reads as zero
_LADDER = np.concatenate([[0.0], 0.5 ** np.arange(16)])  # step sizes, after the current point
_FLAGS = ("converged", "budget-exhausted", "stalled")
_HIGH = 1.0 - 1e-4   # the even start's share where half leaves no room under the total cap


class FeasibilityError(ValueError):
    """Raised when an allocation violates the power or correlation constraints."""


class GaussianMacSpec:
    """The channel: per-state subchannel gain magnitudes, power budgets, the
    state chain and the observation delays d1 >= d2 >= 0, either of which
    may be inf; the links, which only shift the rate caps, are each call's.
    The pair and triple weight tables are those of `delayed_state_joint`.

    Noise is normalized to unit variance, so gains are relative amplitudes.
    `convention` selects the rate unit: "complex" uses log2(1 + x) per
    subchannel (proper complex signalling), "real" uses (1/2) log2(1 + x).
    """

    def __init__(
        self,
        chain: MarkovChain,
        gains1,
        gains2,
        pbar1: float,
        pbar2: float,
        d1: float,
        d2: float,
        convention: str = "real",
    ) -> None:
        gains1 = np.atleast_2d(np.asarray(gains1, dtype=float))
        gains2 = np.atleast_2d(np.asarray(gains2, dtype=float))
        k = chain.k
        if gains1.shape[0] != k or gains2.shape[0] != k:
            raise ValueError(f"gain arrays must have one row per state ({k})")
        if gains1.shape != gains2.shape:
            raise ValueError("gain arrays of the two encoders must have equal shape")
        for name, v in (("gains1", gains1), ("gains2", gains2),
                        ("pbar1", pbar1), ("pbar2", pbar2)):
            if not np.all((v >= 0) & np.isfinite(v)):
                raise ValueError(f"{name} must be finite and nonnegative")
        if convention not in ("real", "complex"):
            raise ValueError(f"unknown log convention {convention!r}")
        self.chain = chain
        self.gains1 = gains1
        self.gains2 = gains2
        self.pbar1 = float(pbar1)
        self.pbar2 = float(pbar2)
        self.d1 = d1
        self.d2 = d2
        self.convention = convention
        joint = delayed_state_joint(chain, d1, d2)  # checks d1 >= d2 >= 0, integers or inf
        self._w2, self._w3 = joint.pair, joint.table

    @property
    def n_sub(self) -> int:
        return self.gains1.shape[1]

    @property
    def k(self) -> int:
        return self.chain.k

    @property
    def log_factor(self) -> float:
        return 0.5 if self.convention == "real" else 1.0

    def state_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(w2, w3): pair and triple weight tables."""
        return self._w2, self._w3


class Allocation:
    """Decision variables: per-observed-state per-subchannel transmit powers
    and their private (uncorrelated) components.

    P1, gamma1 are indexed [observed state of encoder 1, subchannel];
    P2, gamma2 by [observed state 1, observed state 2, subchannel].
    """

    def __init__(self, P1, gamma1, P2, gamma2) -> None:
        self.P1 = np.atleast_2d(np.asarray(P1, dtype=float))
        self.gamma1 = np.atleast_2d(np.asarray(gamma1, dtype=float))
        self.P2 = np.asarray(P2, dtype=float)
        self.gamma2 = np.asarray(gamma2, dtype=float)
        if self.P2.ndim != 3 or self.gamma2.ndim != 3:
            raise ValueError("P2 and gamma2 must be 3-d arrays [state1, state2, subchannel]")
        if self.P1.shape != self.gamma1.shape or self.P2.shape != self.gamma2.shape:
            raise ValueError("power and gamma arrays must have matching shapes")
        k, n = self.P1.shape
        if self.P2.shape != (k, k, n):
            raise ValueError(f"P2 must have shape ({k}, {k}, {n}), got {self.P2.shape}")

    @staticmethod
    def zeros(k: int, n_sub: int) -> "Allocation":
        return Allocation(
            np.zeros((k, n_sub)), np.zeros((k, n_sub)),
            np.zeros((k, k, n_sub)), np.zeros((k, k, n_sub)),
        )


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violation: str = ""

    def __bool__(self) -> bool:
        return self.ok


def feasible(spec: GaussianMacSpec, alloc: Allocation) -> FeasibilityReport:
    """Check the two power budgets and the gamma boxes, reporting the first violation."""
    k, n = alloc.P1.shape
    if (k, n) != (spec.k, spec.n_sub):
        raise ValueError(
            f"allocation shape ({k}, {n}) does not match spec ({spec.k}, {spec.n_sub})"
        )
    w2, _ = spec.state_weights()
    pi = spec.chain.pi
    used1 = float((pi[:, None] * alloc.P1).sum())
    if used1 > spec.pbar1 + _FEAS_SLACK:
        return FeasibilityReport(False, f"encoder-1 power budget: {used1!r} > {spec.pbar1!r}")
    used2 = float((w2[:, :, None] * alloc.P2).sum())
    if used2 > spec.pbar2 + _FEAS_SLACK:
        return FeasibilityReport(False, f"encoder-2 power budget: {used2!r} > {spec.pbar2!r}")
    for name, g, P in (("gamma1", alloc.gamma1, alloc.P1), ("gamma2", alloc.gamma2, alloc.P2)):
        if (g < -_FEAS_SLACK).any():
            cell = tuple(int(i) for i in np.argwhere(g < -_FEAS_SLACK)[0])
            return FeasibilityReport(False, f"{name} negative at cell {cell}")
        over = g > P + _FEAS_SLACK
        if over.any():
            cell = tuple(int(i) for i in np.argwhere(over)[0])
            return FeasibilityReport(False, f"{name} exceeds its power at cell {cell}")
    return FeasibilityReport(True)


def rate_bounds_gaussian(
    spec: GaussianMacSpec, alloc: Allocation, conf: ConferencingConfig
) -> RateBounds:
    """The four conferencing rate caps at a feasible allocation, the links
    conf lifting b1, b2 and b12. With `ConferencingConfig()` they are the
    common-message caps, bsum capping the three-rate total. These are the
    solver's caps, of a one-problem `_Barrier` at kappa = sqrt(delta1 delta2):
    cells off its live ones weigh nothing, or are a budget-0 encoder's, where
    a feasible allocation holds at most `feasible`'s 1e-9 slack of power."""
    report = feasible(spec, alloc)
    if not report:
        raise FeasibilityError(report.violation)
    bar = _Barrier(spec, np.array([[1.0, 1.0, conf.c12, conf.c21, 0.0]]))
    Z = bar.points([alloc.gamma1[None], np.maximum(alloc.P1 - alloc.gamma1, 0.0)[None],
                    alloc.gamma2[None], np.maximum(alloc.P2 - alloc.gamma2, 0.0)[None]])
    return RateBounds(*bar.caps(Z, [0])[0].tolist())


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

_RATES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])  # r1, r2 in each cap slack


class _Barrier:
    """The kappa form of a batch of problems on one spec, and its log barrier.

    A point z is flat: gamma1 and delta1 per live [a1, n] cell, then gamma2,
    delta2 and kappa per live [a1, a2, n] cell, then r1 and r2. A cell is
    live when its encoder has power and the cell has budget weight; the rest
    stay at zero. With kappa^2 <= delta1 delta2, bsum's log argument
    1 + g1^2 (gamma1 + delta1) + g2^2 (gamma2 + delta2) + 2 g1 g2 kappa is
    affine in z, as are the other caps', so cap j is a weighted sum of
    log(1 + E[j] z) over the grid cells of positive weight. The caps (E, c),
    budget weights (B, pbar) and offsets (off) are stated here alone.

    Trajectory i minimizes -t mu_i.r - sum log(slack) over its slacks: the
    caps whose offset is finite, both budgets, gamma, delta and the live
    rates, and the cones delta1 delta2 - kappa^2. A rate is live when every
    finite cap over it is positive at the start; otherwise it stays at 0.
    """

    def __init__(self, spec: GaussianMacSpec, problems: np.ndarray) -> None:
        k, N = spec.k, spec.n_sub
        w2, w3 = spec.state_weights()
        weights = [np.broadcast_to(spec.chain.pi[:, None], (k, N)),
                   np.broadcast_to(w2[:, :, None], (k, k, N))]
        self.live = [(w > 0) & (p > 0) for w, p in zip(weights, (spec.pbar1, spec.pbar2))]
        n1, n2 = (int(live.sum()) for live in self.live)
        n3 = n2 if n1 else 0
        o = self.o = np.cumsum([0, n1, n1, n2, n2, n3])  # gamma1, delta1, gamma2, delta2, kappa
        nv = o[5] + 2
        at1, at2 = (np.cumsum(live).reshape(live.shape) - 1 for live in self.live)  # live cells' ranks
        a1, a2, s, n = np.nonzero(np.broadcast_to((w3 > 0)[..., None], (k, k, k, N)))
        g1, g2 = spec.gains1[s, n], spec.gains2[s, n]
        E, grid = np.zeros((4, len(a1), nv)), np.arange(len(a1))
        for v, caps, cell, coef in ((0, (0, 2, 3), at1[a1, n], g1 * g1),
                                    (1, (3,), at1[a1, n], g1 * g1),
                                    (2, (1, 2, 3), at2[a1, a2, n], g2 * g2),
                                    (3, (3,), at2[a1, a2, n], g2 * g2),
                                    (4, (3,), at2[a1, a2, n], 2.0 * g1 * g2)):
            if o[v + 1] > o[v]:  # the variable exists
                E[np.array(caps)[:, None], grid, o[v] + cell] = coef
        self.E, self.EdT = E, E.reshape(-1, nv).T.copy()
        self.c = spec.log_factor / _LN2 * w3[a1, a2, s]
        self.B = np.zeros((2, nv))  # the budget weights
        for e in (0, 1):
            self.B[e, o[2 * e]:o[2 * e + 2]] = np.tile(weights[e][self.live[e]], 2)
        self.pbar = np.array([spec.pbar1, spec.pbar2])
        self.pos = np.r_[0:o[4], nv - 2, nv - 1]  # the variables kept positive
        c1, _, cn = np.nonzero(self.live[1])
        self.cone = (o[1] + at1[c1, cn][:n3], o[3] + np.arange(n3), o[4] + np.arange(n3))
        # each cap's offset: the links lift b1, b2 and b12, the common rate lowers bsum
        self.mu, (c12, c21, r0) = problems[:, :2], problems[:, 2:].T
        self.off = np.stack([c12, c21, c12 + c21, -r0], 1)

    def start(self, X: np.ndarray) -> np.ndarray:
        """The start points of the trajectories from allocation parts X, one
        row for all or one per trajectory, each live rate at a quarter of its
        least finite cap; sets each one's live rates, slacks and parameter m.
        Where X leaves one no room under a total cap that allocations move,
        it starts from the even start at the _HIGH share instead."""
        T, o = len(self.mu), self.o
        Z = np.concatenate([np.broadcast_to(X, (T, o[5])), np.zeros((T, 2))], 1)
        rows = np.arange(T)
        Z[(self.caps(Z, rows)[:, 3] <= 0) & self.E[3].any(), :o[5]] = _even_start(self, _HIGH)
        room = self.caps(Z, rows)
        least = np.array([room[:, _RATES[:, i] > 0].min(1) for i in (0, 1)]).T
        self.rlive = least > 0
        Z[:, -2:] = np.where(self.rlive, 0.25 * least, 0.0)
        n3 = o[5] - o[4]
        self.coef = np.concatenate([
            np.isfinite(room) & (room > 0), np.broadcast_to(self.B.any(1), (T, 2)),
            np.ones((T, o[4])), self.rlive, np.ones((T, n3)),
        ], 1).astype(float)
        self.m = self.coef.sum(1) + n3  # a cone's barrier counts twice
        # a rate pinned by a cap that allocations move might grow from a start
        # with room under that cap
        self.unsure = (np.isfinite(room) & (room <= 0) & self.E.any((1, 2))).any(1)
        return Z

    def caps(self, Z, rows):
        """The caps (b1, b2, b12, bsum) of problems rows at points Z (T', nv),
        offsets included: inf where a link is, the slacks where rates are 0."""
        return self._caps(rows, 1.0 + self._lin(Z))

    def _lin(self, Z):
        return (Z[..., None, :] @ self.EdT)[..., 0, :]

    def _caps(self, rows, A):
        """`caps` at points (T', ..., nv) whose log arguments are A."""
        lead = (len(rows),) + (1,) * (A.ndim - 2)
        logs = np.log(np.where(A > 0, A, 1.0)).reshape(*A.shape[:-1], 4, -1)
        return (self.c * logs).sum(-1) + self.off[rows].reshape(*lead, 4)

    def _slacks(self, Z, rows, A):
        """Every slack at points Z (T', ..., nv) whose log arguments are A:
        the caps, both budgets, the positive variables, the cones."""
        r1, r2 = Z[..., -2], Z[..., -1]
        i, j, kap = self.cone
        return np.concatenate([
            self._caps(rows, A) - np.stack([r1, r2, r1 + r2, r1 + r2], -1),
            self.pbar - (Z[..., None, :] @ self.B.T)[..., 0, :],
            Z[..., self.pos],
            Z[..., i] * Z[..., j] - Z[..., kap] ** 2,
        ], -1)

    def ladder(self, Z, dz, rows, t):
        """The barrier at Z + a dz for each step a of _LADDER, shape (T', L),
        and whether each of those points is strictly feasible."""
        a = _LADDER[:, None]
        L = Z[:, None] + a * dz[:, None]
        S = self._slacks(L, rows, 1.0 + self._lin(Z)[:, None] + a * self._lin(dz)[:, None])
        coef = self.coef[rows][:, None]
        ok = ((S > 0) | (coef == 0)).all(-1)
        logs = np.log(np.where(ok[..., None] & (coef > 0), S, 1.0))
        rates = (self.mu[rows][:, None] * L[..., -2:]).sum(-1)
        return -t[:, None] * rates - (coef * logs).sum(-1), ok

    def derivatives(self, Z, rows, t):
        """Gradient and Hessian of the barrier at points Z (T', nv)."""
        T, nv = Z.shape
        A = 1.0 + self._lin(Z)
        coef = self.coef[rows]
        inv = coef / np.where(coef > 0, self._slacks(Z, rows, A), 1.0)
        cA = self.c / A.reshape(T, 4, -1)
        u = (cA[:, :, None, :] @ self.E)[:, :, 0, :]
        u[..., -2:] -= _RATES
        i, j, kap = self.cone
        Q, cones = np.zeros((T, len(kap), nv)), np.arange(len(kap))
        Q[:, cones, i], Q[:, cones, j], Q[:, cones, kap] = Z[:, j], Z[:, i], -2.0 * Z[:, kap]
        # every slack's gradient, in the order of _slacks
        U = np.concatenate([u, np.broadcast_to(-self.B, (T, 2, nv)),
                            np.broadcast_to(np.eye(nv)[self.pos], (T, len(self.pos), nv)), Q], 1)
        g = -(inv[:, None, :] @ U)[:, 0]
        g[:, -2:] -= t[:, None] * self.mu[rows]
        # minus each slack's Hessian over the slack: the caps' concave logs, the cones
        curv = (inv[:, :4, None] * cA / A.reshape(T, 4, -1)).reshape(T, 1, -1)
        H = (U.transpose(0, 2, 1) * inv[:, None, :] ** 2) @ U + (self.EdT * curv) @ self.EdT.T
        iq = inv[:, U.shape[1] - len(kap):]
        H[:, i, j] -= iq
        H[:, j, i] -= iq
        H[:, kap, kap] += 2.0 * iq
        keep = np.concatenate([np.ones((T, nv - 2)), self.rlive[rows]], 1)  # pinned rates stay
        return g * keep, H * keep[:, :, None] * keep[:, None, :] + (1.0 - keep)[:, :, None] * np.eye(nv)

    def parts(self, Z):
        """(gamma1, delta1, gamma2, delta2) of each point, zero off the live cells."""
        out = []
        for v, live in enumerate(self.live[e] for e in (0, 0, 1, 1)):
            out.append(np.zeros((len(Z), *live.shape)))
            out[-1][:, live] = Z[:, self.o[v]:self.o[v + 1]]
        return out

    def points(self, parts):
        """The inverse of `parts` on points with kappa = sqrt(delta1 delta2)
        and both rates at 0, for allocation parts with a leading batch axis."""
        x = [p[:, live] for p, live in zip(parts, (self.live[e] for e in (0, 0, 1, 1)))]
        i1, i2, _ = self.cone
        kappa = np.sqrt(x[1][:, i1 - self.o[1]] * x[3][:, i2 - self.o[3]])
        return np.concatenate([*x, kappa, np.zeros((len(kappa), 2))], 1)


@dataclass
class SolverConfig:
    """Step budget of the barrier solver: each problem runs from the even
    start until it converges or stalls, or for at most `max_steps` Newton
    steps, when it reads budget-exhausted."""

    max_steps: int = 12_000

    def __post_init__(self) -> None:
        # an empty budget takes no Newton step
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class GaussianSolveResult:
    value: float
    point: RatePoint
    alloc: Allocation
    flag: str


@dataclass(frozen=True)
class TracePoint:
    theta: float
    point: RatePoint
    value: float
    flag: str


def _even_start(bar: _Barrier, share: float = 0.5) -> np.ndarray:
    """Allocation parts of an even start: share of every budget, the same
    power in each of an encoder's cells, share of that common, and kappa at
    share of its cone."""
    o = bar.o
    x = []
    for w, pbar in zip((bar.B[0, o[0]:o[1]], bar.B[1, o[2]:o[3]]), bar.pbar):
        u = np.full(len(w), 0.6)  # inside the sum, 0.6 fixes how it rounds
        P = share * pbar * u / (w * u).sum()
        x += [(1.0 - share) * P, share * P]
    i1, i2, _ = bar.cone
    kappa = share * np.sqrt(x[1][i1 - o[1]] * x[3][i2 - o[3]])
    return np.concatenate([*x, kappa])


def _readings(bar: _Barrier, parts):
    """Two readings of the parts of final barrier points: as they are, and
    with each private or common part below _SNAP of its cell's power moved
    to the other part, since the barrier keeps both 1/t off zero. Both are
    scaled to spend each budget bar.pbar, less 1e-14 of it for rounding,
    under the budget weights bar.B: every cap is nondecreasing in every
    power, so no value falls."""
    reads, B = [[], []], bar.parts(bar.B)  # each budget's weights on the cells
    for g, d, w, pbar in ((*parts[:2], B[0][0], bar.pbar[0]), (*parts[2:], B[2][1], bar.pbar[1])):
        P = g + d
        small_d, small_g = d < _SNAP * P, g < _SNAP * P
        rounded = (np.where(small_d, P, np.where(small_g, 0.0, g)),
                   np.where(small_d, 0.0, np.where(small_g, P, d)))
        for read, (x, y) in zip(reads, ((g, d), rounded)):
            used = (w * (x + y)).reshape(len(x), -1).sum(1)
            scale = np.divide((1.0 - 1e-14) * pbar, used, out=np.ones_like(used), where=used > 0)
            read += [v * np.maximum(scale, 1.0).reshape(-1, *(1,) * (v.ndim - 1)) for v in (x, y)]
    return reads


def _solve(spec: GaussianMacSpec, problems, config: SolverConfig,
           start=_even_start) -> list[GaussianSolveResult]:
    """Solve every (mu1, mu2, c12, c21, r0) problem with one batched barrier
    method; trajectory i runs problem i from t = 1 and the allocation parts
    start(barrier) gives, one row for all or one per problem: the even start
    unless a caller checks another. The central path is unique, so one start
    serves. A step is the largest of the ladder 1, 1/2, ..., 2^-15 that is
    strictly feasible and passes Armijo. A centering ends on a relative
    Newton decrement of _DECREMENT; t then grows 20-fold until m/t <= _GAP.
    A trajectory that finishes, stalls (no rate can start, or no step serves)
    or spends its max_steps is frozen, so each result equals its own solve."""
    bar = _Barrier(spec, np.array(problems, dtype=float))
    Z = bar.start(start(bar))
    T, nv = Z.shape
    t, steps = np.ones(T), np.zeros(T, dtype=int)
    done = ~bar.rlive.any(1)  # no rate can move: the start is the answer
    flag = np.where(done & bar.unsure, 2, 0)  # stalled unless no allocation moves the caps
    while not done.all():
        act = np.flatnonzero(~done)
        g, H = bar.derivatives(Z[act], act, t[act])
        d = 1.0 / np.sqrt(np.diagonal(H, axis1=1, axis2=2))
        Hs = H * d[:, :, None] * d[:, None, :] + 1e-12 * np.eye(nv)
        dz = -np.linalg.solve(Hs, (g * d)[..., None])[..., 0] * d
        lam2 = -(g * dz).sum(1)
        f, ok = bar.ladder(Z[act], dz, act, t[act])
        armijo = ok[:, 1:] & (f[:, 1:] <= f[:, :1] - 0.01 * _LADDER[1:] * lam2[:, None])
        centered = lam2 <= 2 * _DECREMENT * (1.0 + np.abs(f[:, 0]))
        moved = armijo.any(1) & ~centered
        Z[act[moved]] += (_LADDER[armijo.argmax(1) + 1, None] * dz)[moved]
        finished = centered & (bar.m[act] / t[act] <= _GAP)
        t[act[centered & ~finished]] *= 20.0
        steps[act] += 1
        flag[act[~moved & ~centered]] = 2
        done[act[finished | (~moved & ~centered)]] = True
        exhausted = ~done & (steps >= config.max_steps)
        flag[exhausted], done[exhausted] = 1, True
    reads = _readings(bar, bar.parts(Z))
    b = bar.caps(bar.points([np.concatenate(p) for p in zip(*reads)]), np.tile(np.arange(T), 2))
    scored = [
        best_weighted_point(RateBounds(b1, b2, b12, max(bs, 0.0)), mu1, mu2)
        for (b1, b2, b12, bs), (mu1, mu2) in zip(b.tolist(), 2 * bar.mu.tolist())
    ]
    values = np.array([v for v, _ in scored]).reshape(2, T)
    pick = (values[1] >= values[0]).astype(int)  # the rounded reading on ties
    results = []
    for i, problem in enumerate(problems):
        value, point = scored[pick[i] * T + i]
        g1, d1, g2, d2 = (x[i] for x in reads[pick[i]])
        results.append(GaussianSolveResult(value, RatePoint(problem[4], point.r1, point.r2),
                                           Allocation(g1 + d1, g1, g2 + d2, g2), _FLAGS[flag[i]]))
    return results


def solve_weighted(
    spec: GaussianMacSpec, problems, config: SolverConfig | None = None
) -> list[GaussianSolveResult]:
    """Solve a list of (mu1, mu2, c12, c21, r0) problems in one batched barrier solve.

    Problem d maximizes mu1*r1 + mu2*r2 on the channel spec, its links c12,
    c21 and c12 + c21 lifting b1, b2 and b12 and its common rate r0 lowering
    bsum. Every cap is concave in the allocation, so the barrier's path leads
    to the optimum; `converged` means a surrogate gap m/t of 1e-9 bits, not a
    certificate, and a `stalled` or `budget-exhausted` value is a feasible
    lower bound. Trajectories never mix, so each result equals the problem's
    own solve; none draws a random number."""
    for mu1, mu2, c12, c21, r0 in problems:
        check_weights(mu1, mu2)
        if not (r0 >= 0 and c12 >= 0 and c21 >= 0):
            raise ValueError("r0 and the link capacities must be nonnegative")
    return _solve(spec, problems, config or SolverConfig()) if problems else []


def maximize_weighted_rate(spec: GaussianMacSpec, conf: ConferencingConfig, mu1: float,
                           mu2: float, config: SolverConfig | None = None) -> GaussianSolveResult:
    """`solve_weighted` for the one problem (mu1, mu2, conf.c12, conf.c21, 0)."""
    return solve_weighted(spec, [(mu1, mu2, conf.c12, conf.c21, 0.0)], config)[0]


def trace_boundary(spec: GaussianMacSpec, conf: ConferencingConfig, n_directions: int,
                   config: SolverConfig | None = None) -> list[TracePoint]:
    """Sweep weight directions over the open quarter circle at links conf, all
    of them in one batched solve, and keep the mutually non-dominated achieved
    points."""
    thetas = _thetas(n_directions)
    problems = [(math.cos(t), math.sin(t), conf.c12, conf.c21, 0.0) for t in thetas]
    return _non_dominated(thetas, solve_weighted(spec, problems, config))


def _thetas(n_directions: int) -> list[float]:
    """The weight angles of a trace, evenly inside the open quarter circle."""
    if n_directions < 2:
        raise ValueError("n_directions must be >= 2")
    return [(j + 1) * (math.pi / 2) / (n_directions + 1) for j in range(n_directions)]


def _non_dominated(thetas, results) -> list[TracePoint]:
    """The mutually non-dominated points of a trace's solves, one per theta."""
    points = [TracePoint(t, res.point, res.value, res.flag) for t, res in zip(thetas, results)]
    eps = 1e-12

    def dominates(q: TracePoint, p: TracePoint) -> bool:
        return (
            q.point.r1 >= p.point.r1 - eps
            and q.point.r2 >= p.point.r2 - eps
            and (q.point.r1 > p.point.r1 + eps or q.point.r2 > p.point.r2 + eps)
        )

    kept: list[TracePoint] = []
    for p in points:
        if any(dominates(q, p) for q in points if q is not p):
            continue
        if any(
            abs(q.point.r1 - p.point.r1) <= eps and abs(q.point.r2 - p.point.r2) <= eps
            for q in kept
        ):
            continue
        kept.append(p)
    return kept

