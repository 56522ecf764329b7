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
    "common_message_bounds_gaussian",
    "feasible",
    "maximize_weighted_rate",
    "solve_weighted",
    "trace_boundary",
    "GaussianTripleCovariance",
    "check_gaussian_markov",
]

_LN2 = math.log(2.0)
_FEAS_SLACK = 1e-9
_GAP = 1e-9          # the barrier stops once its surrogate gap m/t is this small, in bits
_DECREMENT = 1e-10   # a centering ends at this relative Newton decrement
_SNAP = 1e-6         # a private or common part below this share of its cell reads as zero
_LADDER = np.concatenate([[0.0], 0.5 ** np.arange(16)])  # step sizes, after the current point
_FLAGS = ("converged", "budget-exhausted", "stalled")


class FeasibilityError(ValueError):
    """Raised when an allocation violates the power or correlation constraints."""


class GaussianMacSpec:
    """Problem instance: per-state subchannel gain magnitudes, power budgets,
    conferencing link capacities, the state chain and the observation delays
    d1 >= d2 >= 0, either of which may be inf. The pair and triple weight
    tables are those of `delayed_state_joint`.

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
        conf: ConferencingConfig,
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
        self.conf = conf
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


def _bounds(spec: GaussianMacSpec, c12, c21, gamma1, delta1, gamma2, delta2) -> np.ndarray:
    """The four rate caps (4, T), rows (b1, b2, b12, bsum), of allocation
    parts with a leading batch axis; c12 and c21 are scalars or one per row.
    Each cap is a sum over the grid [a1, a2, s, n] of observed states, true
    state and subchannel."""
    _, w3 = spec.state_weights()
    T, k, N = len(gamma1), spec.k, spec.n_sub
    grid = (T, k, k, k, N)
    g1, d1 = (np.broadcast_to(x[:, :, None, None, :], grid) for x in (gamma1, delta1))
    g2, d2 = (np.broadcast_to(x[:, :, :, None, :], grid) for x in (gamma2, delta2))
    h1, h2 = spec.gains1, spec.gains2  # [s, n], the grid's last two axes
    A = np.empty((4, *grid))  # the arguments of the logs of b1, b2, b12, bsum
    np.add(1.0, h1 * h1 * g1, out=A[0])
    np.add(1.0, h2 * h2 * g2, out=A[1])
    np.add(A[1], h1 * h1 * g1, out=A[2])
    np.add(A[2], h1 * h1 * d1 + h2 * h2 * d2, out=A[3])
    A[3] += 2.0 * h1 * h2 * np.sqrt(d1 * d2)
    Lw = spec.log_factor * w3[:, :, :, None]
    off = np.array(np.broadcast_arrays(c12, c21, np.add(c12, c21), 0.0)).reshape(4, -1)
    return (np.log2(A) * Lw).reshape(4, T, -1).sum(axis=2) + off


def rate_bounds_gaussian(spec: GaussianMacSpec, alloc: Allocation) -> RateBounds:
    """Evaluate the four conferencing-mode rate caps at a feasible allocation."""
    return _alloc_bounds(spec, alloc, spec.conf.c12, spec.conf.c21)


def common_message_bounds_gaussian(spec: GaussianMacSpec, alloc: Allocation) -> RateBounds:
    """Common-message caps: no link offsets; bsum caps the three-rate total."""
    return _alloc_bounds(spec, alloc, 0.0, 0.0)


def _alloc_bounds(spec, alloc, c12, c21) -> RateBounds:
    report = feasible(spec, alloc)
    if not report:
        raise FeasibilityError(report.violation)
    b = _bounds(spec, c12, c21,
                alloc.gamma1[None], np.maximum(alloc.P1 - alloc.gamma1, 0.0)[None],
                alloc.gamma2[None], np.maximum(alloc.P2 - alloc.gamma2, 0.0)[None])
    return RateBounds(*(float(v) for v in b[:, 0]))


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
    log(1 + E[j] z) over the grid cells of positive weight.

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
        self.mu, (c12, c21), self.r0 = problems[:, :2], problems[:, 2:4].T, problems[:, 4]
        self.off = np.stack([c12, c21, c12 + c21, np.zeros_like(c12)], 1)

    def start(self, X: np.ndarray) -> np.ndarray:
        """The start points of trajectories d * S + s from the allocation parts
        X (S, nx) of each start s, each live rate at a quarter of its least
        finite cap; sets each one's live rates, slacks and parameter m."""
        S, o = len(X), self.o
        self.mu, self.off, self.r0 = (np.repeat(x, S, axis=0) for x in (self.mu, self.off, self.r0))
        T = len(self.mu)
        Z = np.concatenate([np.tile(X, (T // S, 1)), np.zeros((T, 2))], 1)
        room = self._slacks(Z, np.arange(T), 1.0 + self._lin(Z))[:, :4]  # inf where the link is
        least = np.array([room[:, _RATES[:, i] > 0].min(1) for i in (0, 1)]).T
        self.rlive = least > 0
        Z[:, -2:] = np.where(self.rlive, 0.25 * least, 0.0)
        n3 = o[5] - o[4]
        self.coef = np.concatenate([
            np.isfinite(room) & (room > 0), np.broadcast_to(self.B.any(1), (T, 2)),
            np.ones((T, o[4])), self.rlive, np.ones((T, n3)),
        ], 1).astype(float)
        self.m = self.coef.sum(1) + n3  # a cone's barrier counts twice
        # a rate pinned by a cap that allocations move might grow from another start
        self.unsure = (np.isfinite(room) & (room <= 0) & self.E.any((1, 2))).any(1)
        return Z

    def _lin(self, Z):
        return (Z[..., None, :] @ self.EdT)[..., 0, :]

    def _slacks(self, Z, rows, A):
        """Every slack at points Z (T', ..., nv) whose log arguments are A:
        the caps, both budgets, the positive variables, the cones."""
        lead = (len(rows),) + (1,) * (Z.ndim - 2)
        caps = (self.c * np.log(np.where(A > 0, A, 1.0)).reshape(*A.shape[:-1], 4, -1)).sum(-1)
        r1, r2 = Z[..., -2], Z[..., -1]
        i, j, kap = self.cone
        return np.concatenate([
            caps + self.off[rows].reshape(*lead, 4)
            - np.stack([r1, r2, r1 + r2, self.r0[rows].reshape(lead) + r1 + r2], -1),
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


@dataclass
class SolverConfig:
    """Budget and fallback starts of the barrier solver.

    Each problem is solved from an even interior start. One that this start
    leaves stalled or budget-exhausted is solved again from `multistarts`
    interior starts drawn from `seed`, and its best value is kept. Each start
    takes at most `iterations * rounds` Newton steps.
    """

    iterations: int = 400
    rounds: int = 10
    multistarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        # an empty budget takes no Newton step
        for name, least in (("rounds", 1), ("iterations", 1), ("multistarts", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


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


def _starts(bar: _Barrier, seed: int, which) -> np.ndarray:
    """Allocation parts of the starts in `which`: start 0 is even, start
    i >= 1 is drawn from SeedSequence((seed, i)). Each spends half of every
    budget, splits each cell's power into private and common parts and puts
    kappa inside its cone."""
    o = bar.o
    cells = [bar.B[0, o[0]:o[1]], bar.B[1, o[2]:o[3]]]
    starts = []
    for i in which:
        draw = (np.random.default_rng(np.random.SeedSequence(entropy=(seed, i))).uniform if i
                else lambda lo, hi, size: np.full(size, (lo + hi) / 2))
        x = []
        for w, pbar in zip(cells, bar.pbar):
            u, f = draw(0.2, 1.0, len(w)), draw(0.2, 0.8, len(w))
            P = 0.5 * pbar * u / (w * u).sum()
            x += [f * P, (1.0 - f) * P]
        i1, i2, _ = bar.cone
        kappa = draw(0.2, 0.8, len(i1)) * np.sqrt(x[1][i1 - o[1]] * x[3][i2 - o[3]])
        starts.append(np.concatenate([*x, kappa]))
    return np.array(starts)


def _readings(spec: GaussianMacSpec, parts):
    """Two readings of final barrier points: as they are, and with each
    private or common part below _SNAP of its cell's power moved to the
    other part, since the barrier keeps both 1/t off zero. Both are scaled
    to spend each budget, less 1e-14 of it for rounding: every cap is
    nondecreasing in every power, so no value falls."""
    w2, _ = spec.state_weights()
    reads = [[], []]
    for g, d, w, pbar in ((*parts[:2], spec.chain.pi[:, None], spec.pbar1),
                          (*parts[2:], w2[:, :, None], spec.pbar2)):
        P = g + d
        small_d, small_g = d < _SNAP * P, g < _SNAP * P
        rounded = (np.where(small_d, P, np.where(small_g, 0.0, g)),
                   np.where(small_d, 0.0, np.where(small_g, P, d)))
        for read, (x, y) in zip(reads, ((g, d), rounded)):
            used = (w * (x + y)).reshape(len(x), -1).sum(1)
            scale = np.divide((1.0 - 1e-14) * pbar, used, out=np.ones_like(used), where=used > 0)
            read += [v * np.maximum(scale, 1.0).reshape(-1, *(1,) * (v.ndim - 1)) for v in (x, y)]
    return reads


def _solve(spec: GaussianMacSpec, problems, config: SolverConfig) -> list[GaussianSolveResult]:
    """Solve every (mu1, mu2, c12, c21, r0) problem from the even start, in
    one batch; the central path is unique, so that start serves wherever it
    converges. The problems it leaves stalled or budget-exhausted are solved
    again, in a second batch, from the seeded starts 1..multistarts, and
    each keeps its best value, the even start's on ties. Whether a problem
    enters that batch depends on its own first result alone, so each result
    still equals the problem's own solve."""
    results = _solve_from(spec, problems, config, [0])
    short = [i for i, res in enumerate(results) if res.flag != "converged"]
    if short and config.multistarts:
        seeded = _solve_from(spec, [problems[i] for i in short], config,
                             range(1, 1 + config.multistarts))
        for i, res in zip(short, seeded):
            if res.value > results[i].value:
                results[i] = res
    return results


def _solve_from(spec: GaussianMacSpec, problems, config: SolverConfig,
                which) -> list[GaussianSolveResult]:
    """Solve every problem from each start in `which` with one batched
    barrier method, keeping each problem's best value, the earliest start's
    on ties; trajectory i = d * S + s runs start s of problem d from t = 1.
    A step is the largest of the ladder 1, 1/2, ..., 2^-15 that is strictly
    feasible and passes Armijo. A centering ends on a relative Newton
    decrement of _DECREMENT; t then grows 20-fold until m/t <= _GAP. A
    trajectory that finishes, stalls (no rate can start, or no step serves)
    or spends its steps is frozen, so each result equals its own solve."""
    bar = _Barrier(spec, np.array(problems, dtype=float))
    Z = bar.start(_starts(bar, config.seed, which))
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
        exhausted = ~done & (steps >= config.iterations * config.rounds)
        flag[exhausted], done[exhausted] = 1, True
    reads = _readings(spec, bar.parts(Z))
    b = _bounds(spec, np.tile(bar.off[:, 0], 2), np.tile(bar.off[:, 1], 2),
                *(np.concatenate(p) for p in zip(*reads)))
    scored = [
        best_weighted_point(RateBounds(b1, b2, b12, max(bs - r0, 0.0)), mu1, mu2)
        for (b1, b2, b12, bs), r0, (mu1, mu2)
        in zip(b.T.tolist(), 2 * bar.r0.tolist(), 2 * bar.mu.tolist())
    ]
    values = np.array([v for v, _ in scored]).reshape(2, T)
    pick = (values[1] >= values[0]).astype(int)  # the rounded reading on ties
    kept = values[pick, np.arange(T)].reshape(len(problems), -1)
    results = []
    for i, problem in zip(np.arange(len(kept)) * kept.shape[1] + kept.argmax(axis=1), problems):
        value, point = scored[pick[i] * T + i]
        g1, d1, g2, d2 = (x[i] for x in reads[pick[i]])
        results.append(GaussianSolveResult(value, RatePoint(problem[4], point.r1, point.r2),
                                           Allocation(g1 + d1, g1, g2 + d2, g2), _FLAGS[flag[i]]))
    return results


def solve_weighted(
    spec: GaussianMacSpec, problems, config: SolverConfig | None = None
) -> list[GaussianSolveResult]:
    """Solve a list of (mu1, mu2, c12, c21, r0) problems in one batched barrier solve.

    Problem d maximizes mu1*r1 + mu2*r2 with link capacities (c12, c21) in
    place of spec.conf and the total cap reduced by the common rate r0.
    Trajectories never mix, so each result equals the problem's own solve.
    """
    for mu1, mu2, c12, c21, r0 in problems:
        check_weights(mu1, mu2)
        if not (r0 >= 0 and c12 >= 0 and c21 >= 0):
            raise ValueError("r0 and the link capacities must be nonnegative")
    return _solve(spec, problems, config or SolverConfig()) if problems else []


def maximize_weighted_rate(
    spec: GaussianMacSpec, mu1: float, mu2: float, config: SolverConfig | None = None
) -> GaussianSolveResult:
    """Best feasible allocation for the weighted rate mu1*r1 + mu2*r2.

    The inner linear program over the rate polytope is concave and
    nondecreasing in the four caps, each cap is concave in the allocation, so
    the barrier's path leads to the global optimum; `converged` means a
    surrogate gap m/t of 1e-9 bits, not a certificate. Deterministic."""
    return solve_weighted(spec, [(mu1, mu2, spec.conf.c12, spec.conf.c21, 0.0)], config)[0]


def trace_boundary(
    spec: GaussianMacSpec, n_directions: int, config: SolverConfig | None = None
) -> list[TracePoint]:
    """Sweep weight directions over the open quarter circle, all of them in
    one batched solve, and keep the mutually non-dominated achieved points."""
    thetas = _thetas(n_directions)
    problems = [(math.cos(t), math.sin(t), spec.conf.c12, spec.conf.c21, 0.0) for t in thetas]
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


# ---------------------------------------------------------------------------
# Gaussian Markov-chain covariance predicate
# ---------------------------------------------------------------------------

class GaussianTripleCovariance:
    """Cross and auto covariances of a jointly Gaussian triple (A, B, C)."""

    def __init__(self, sigma_ab, sigma_bb, sigma_bc, sigma_ac) -> None:
        self.sigma_ab = np.atleast_2d(np.asarray(sigma_ab, dtype=float))
        self.sigma_bb = np.atleast_2d(np.asarray(sigma_bb, dtype=float))
        self.sigma_bc = np.atleast_2d(np.asarray(sigma_bc, dtype=float))
        self.sigma_ac = np.atleast_2d(np.asarray(sigma_ac, dtype=float))
        B = self.sigma_bb
        if B.shape[0] != B.shape[1]:
            raise ValueError("sigma_bb must be square")
        if not np.allclose(B, B.T, atol=1e-10):
            raise ValueError("sigma_bb must be symmetric")
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma_bb must be positive definite") from exc


def check_gaussian_markov(cov: GaussianTripleCovariance, tol: float) -> bool:
    """Whether the triple is Markov A - B - C: the AC covariance must factor
    through B, i.e. Sigma_AC = Sigma_AB Sigma_BB^{-1} Sigma_BC (max-norm tol)."""
    predicted = cov.sigma_ab @ np.linalg.solve(cov.sigma_bb, cov.sigma_bc)
    return bool(np.abs(cov.sigma_ac - predicted).max() <= tol)
