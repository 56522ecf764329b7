"""Capacity region of the diagonal-vector Gaussian channel with cooperating
encoders and delayed state observations, as a concave program over power and
correlation allocations, solved by projected supergradient ascent."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import MarkovChain, delayed_state_joint, n_step_matrix
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
# a start still improving by more than this in its last round flags its
# problem's result as budget-exhausted
_FLAG_TOL = 1e-9


class FeasibilityError(ValueError):
    """Raised when an allocation violates the power or correlation constraints."""


class GaussianMacSpec:
    """Problem instance: per-state subchannel gain magnitudes, power budgets,
    conferencing link capacities, the state chain and the observation delays.

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
        d1: int,
        d2: int,
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
        if d2 < 0 or d2 > d1:
            raise ValueError(f"delay ordering violated: d1 >= d2 >= 0 required, got ({d1}, {d2})")
        if convention not in ("real", "complex"):
            raise ValueError(f"unknown log convention {convention!r}")
        self.chain = chain
        self.gains1 = gains1
        self.gains2 = gains2
        self.pbar1 = float(pbar1)
        self.pbar2 = float(pbar2)
        self.conf = conf
        self.d1 = int(d1)
        self.d2 = int(d2)
        self.convention = convention
        # not _w3 summed over s, which would round differently
        self._w2 = chain.pi[:, None] * n_step_matrix(chain, d1 - d2)
        self._w3 = delayed_state_joint(chain, d1, d2).table

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


class _Kernel:
    """Constants of the bounds kernel for one spec and its link offsets
    (scalars, or one per batch row), hoisted out of the solver step.

    A batch of T allocations is an array of shape (T, 2, 2m), m = k*k*n_sub.
    Row 0 holds encoder 1's gamma cells [a1, n], zero-padded from k*n_sub to
    m, then its delta cells, padded alike; row 1 holds encoder 2's gamma then
    delta cells [a1, a2, n]. Padding cells have zero weight and stay at zero.
    Bounds are sums over the flat grid [a1, a2, s, n] of observed states,
    true state and subchannel; per-bound arrays lead with the bound axis.
    """

    def __init__(self, spec: GaussianMacSpec, c12: float, c21: float) -> None:
        k, N = spec.k, spec.n_sub
        self.k, self.N, self.m1, self.m = k, N, k * N, k * k * N
        m = self.m
        w2, w3 = spec.state_weights()
        a1, a2, s, n = np.indices((k, k, k, N)).reshape(4, -1)
        # where gamma1, gamma2, delta1, delta2 of each grid cell sit in a batch row
        gammas = np.array([a1 * N + n, 2 * m + (a1 * k + a2) * N + n])
        self.at = np.concatenate([gammas, gammas + m])[:, None, :]
        w = w3[a1, a2, s]
        g1, g2 = spec.gains1[s, n], spec.gains2[s, n]
        C = spec.log_factor / _LN2
        self.gsq = np.array([g1 * g1, g2 * g2, g1 * g1, g2 * g2])[:, None, :]
        self.gg2 = 2.0 * g1 * g2
        self.Lw = spec.log_factor * w
        # an encoder with no budget is pinned at zero and gets no supergradient:
        # its floored cross-term slope (~1e150) would shrink every step to 0
        live = (np.array([spec.pbar1, spec.pbar2]) > 0)[:, None, None]
        self.Cwgsq = C * w * self.gsq[:2] * live
        self.Cwgg = C * w * g1 * g2 * live
        self.off = np.array(np.broadcast_arrays(c12, c21, np.add(c12, c21), 0.0)).reshape(4, -1)
        # budget weight of each cell of a batch row
        cells1 = np.concatenate([np.repeat(spec.chain.pi, N), np.zeros(m - self.m1)])
        cells2 = np.repeat(w2.ravel(), N)
        self.w = np.array([np.tile(cells1, 2), np.tile(cells2, 2)])
        # -1/w, 0 where w = 0: sorting x * neg_inv_w orders cells by x/w, largest first
        self.neg_inv_w = -np.divide(1.0, self.w, out=np.zeros_like(self.w), where=self.w > 0)
        self.budget = np.array([spec.pbar1, spec.pbar2])[:, None]
        self._index: dict[int, tuple] = {}

    def index(self, T: int):
        """Flat positions in a batch of T: of each variable at each grid cell
        (4, T, grid), of each row start (T, 2, 1); and the weights of each
        batch cell."""
        if T not in self._index:
            rows = np.arange(0, 4 * self.m * T, 2 * self.m).reshape(T, 2, 1)
            self._index[T] = (self.at + rows[:, 0], rows, np.tile(self.w, (T, 1, 1)))
        return self._index[T]

    def pack(self, parts) -> np.ndarray:
        """Batch from a list of (gamma1, delta1, gamma2, delta2) tuples."""
        X = np.zeros((len(parts), 2, 2 * self.m))
        for x, (g1, d1, g2, d2) in zip(X, parts):
            x[0, : self.m1] = np.ravel(g1)
            x[0, self.m : self.m + self.m1] = np.ravel(d1)
            x[1, : self.m] = np.ravel(g2)
            x[1, self.m :] = np.ravel(d2)
        return X

    def allocation(self, x: np.ndarray) -> Allocation:
        """The allocation of one batch row."""
        k, N, m1, m = self.k, self.N, self.m1, self.m
        g1, d1 = x[0, :m1].reshape(k, N), x[0, m : m + m1].reshape(k, N)
        g2, d2 = x[1, :m].reshape(k, k, N), x[1, m:].reshape(k, k, N)
        return Allocation(g1 + d1, g1.copy(), g2 + d2, g2.copy())


def _bounds_and_grads(kern: _Kernel, X: np.ndarray, grads: bool = True):
    """The four rate caps of a batch of allocations, with supergradients.

    Returns b of shape (4, T), rows (b1, b2, b12, bsum), and, when `grads`,
    a function mapping bound weights c of shape (4, T) to a supergradient of
    sum_i c_i b_i in the batch layout. The square-root cross term has an
    unbounded derivative as delta -> 0, so gradient ratios are evaluated at
    an interior point floored at 1e-9 * P. The cells of an encoder with no
    power budget get a zero supergradient.
    """
    at, _, _ = kern.index(len(X))
    V = X.take(at)  # gamma1, gamma2, delta1, delta2 at each grid cell
    U = kern.gsq * V
    A = np.empty_like(V)  # arguments of the logs of b1, b2, b12, bsum
    np.add(U[:2], 1.0, out=A[:2])
    np.add(A[1], U[0], out=A[2])
    np.add(A[2], U[2] + U[3], out=A[3])
    A[3] += kern.gg2 * np.sqrt(V[2] * V[3])
    b = (np.log2(A) * kern.Lw).sum(axis=2) + kern.off
    if not grads:
        return b, None
    floored = np.maximum(V[2:], 1e-9 * (V[:2] + V[2:]) + 1e-300)
    Kd = kern.Cwgsq + kern.Cwgg * np.sqrt(floored[::-1] / floored)

    def grad(c):
        ci = c[:, :, None] / A
        Q = np.empty_like(V)
        # each gamma enters three caps; the deltas enter bsum alone
        np.multiply(ci[:2] + (ci[2] + ci[3]), kern.Cwgsq, out=Q[:2])
        np.multiply(Kd, ci[3], out=Q[2:])
        return np.bincount(at.ravel(), Q.ravel(), X.size).reshape(X.shape)

    return b, grad


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
    kern = _Kernel(spec, c12, c21)
    X = kern.pack([(
        alloc.gamma1, np.maximum(alloc.P1 - alloc.gamma1, 0.0),
        alloc.gamma2, np.maximum(alloc.P2 - alloc.gamma2, 0.0),
    )])
    b, _ = _bounds_and_grads(kern, X, grads=False)
    return RateBounds(*(float(v) for v in b[:, 0]))


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

def _dual_vertices(mus) -> np.ndarray:
    """Dual vertices of the rate LP for each weight pair, shape (4, 5, D).

    Vertex j weighs the caps (b1, b2, b12, bsum); the LP value is the least
    candidate y_j . b. Where b12 and bsum tie, the bsum vertex comes first.
    """
    Y = []
    for mu1, mu2 in mus:
        if mu1 >= mu2:
            lo, hi, d = mu2, mu1, (mu1 - mu2, 0.0)
        else:
            lo, hi, d = mu1, mu2, (0.0, mu2 - mu1)
        Y.append([
            (mu1, mu2, 0.0, 0.0),
            (*d, 0.0, lo), (*d, lo, 0.0),
            (0.0, 0.0, 0.0, hi), (0.0, 0.0, hi, 0.0),
        ])
    return np.array(Y, dtype=float).transpose(2, 1, 0).copy()


def _lp_value_duals(b, Y, r0=0.0):
    """Value and duals of max mu.r over {r >= 0, r1 <= b1, r2 <= b2,
    r1 + r2 <= b12, r1 + r2 <= bsum - r0} for a batch.

    b is (4, T) as from _bounds_and_grads, Y (4, 5, T) from _dual_vertices
    and r0 a scalar or (T,). Returns the values (T,) and the minimizing vertices
    (4, T), first on ties; a vertex weighs each cap by its slope in the value.
    """
    B = b.copy()
    np.maximum(b[3] - r0, 0.0, out=B[3])
    # 0 * inf must read as 0 when a weight deactivates an unbounded cap
    prod = np.zeros(Y.shape)
    np.multiply(Y, B[:, None], out=prod, where=Y != 0.0)
    cands = prod.sum(axis=0)
    j = cands.argmin(axis=0)
    rows = np.arange(len(j))
    return cands[j, rows], Y[:, j, rows]


def _budget_project_pair(kern: _Kernel, X: np.ndarray) -> np.ndarray:
    """Euclidean projection of each (gamma, delta) row of a batch onto
    {gamma >= 0, delta >= 0, sum w*(gamma + delta) <= budget}.

    The projection is max(x - lam*w, 0). With the cells sorted by x/w,
    largest first, each prefix of j cells would spend the budget exactly at
    lam_j = (sum w*x - budget) / sum w^2; the budget used at any lam is the
    largest of these prefix sums, so lam is the largest lam_j, or zero when
    clipping at zero already fits. Zero-weight cells are only clipped at
    zero since the budget never sees them.
    """
    _, rows, w = kern.index(len(X))
    order = (X * kern.neg_inv_w).argsort(axis=-1) + rows
    ws = w.take(order)
    cwx = (ws * X.take(order)).cumsum(axis=-1)
    cw2 = (ws * ws).cumsum(axis=-1)
    lam = ((cwx - kern.budget) / np.maximum(cw2, 1e-300)).max(axis=-1)
    return np.maximum(X - np.maximum(lam, 0.0)[:, :, None] * kern.w, 0.0)


@dataclass
class SolverConfig:
    """Budget of the multistart projected supergradient ascent.

    Each start runs `rounds` sweeps of `iterations` target-level steps, with
    the target gap shrinking geometrically between sweeps.
    """

    iterations: int = 400
    rounds: int = 10
    multistarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        # an empty budget would return a start point flagged as converged
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


def _starts(spec: GaussianMacSpec, config: SolverConfig):
    """The three fixed starts, then the seeded random ones."""
    k, N = spec.k, spec.n_sub
    wP1 = spec.chain.pi[:, None]
    wP2 = spec.state_weights()[0][:, :, None]
    P1u = np.full((k, N), spec.pbar1 / N)
    P2u = np.full((k, k, N), spec.pbar2 / N)
    z1, z2 = np.zeros((k, N)), np.zeros((k, k, N))
    starts = [
        (P1u, z1, P2u, z2),   # fully correlated: gamma = P
        (z1, P1u, z2, P2u),   # fully private: gamma = 0
        (0.5 * P1u, 0.5 * P1u, 0.5 * P2u, 0.5 * P2u),
    ]
    for r_i in range(config.multistarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, r_i)))
        P1r = rng.random((k, N))
        s1 = (wP1 * P1r).sum()
        if s1 > 0:
            P1r *= spec.pbar1 / s1
        P2r = rng.random((k, k, N))
        s2 = (wP2 * P2r).sum()
        if s2 > 0:
            P2r *= spec.pbar2 / s2
        f1 = rng.random((k, N))
        f2 = rng.random((k, k, N))
        starts.append((f1 * P1r, (1 - f1) * P1r, f2 * P2r, (1 - f2) * P2r))
    return starts


def _solve(spec: GaussianMacSpec, problems, config: SolverConfig) -> list[GaussianSolveResult]:
    """Solve every (mu1, mu2, c12, c21, r0) problem with one batched ascent.

    Trajectory t = d * S + s runs start s for problem d. Each advances as
    the scalar method would: a trajectory whose supergradient vanishes is
    frozen for the rest of its round, and each problem keeps its first
    best start.

    A problem that does not change when the encoders swap (one state, equal
    budgets and gains, mu1 = mu2) keeps both rows of its trajectories at one
    shared allocation. Its objective is concave and swap-invariant, so the
    mean of an optimum and its swap is an optimum: tying loses nothing. Only
    at k = 1 do the two rows have the same cell layout.
    """
    starts = _starts(spec, config)
    S, D = len(starts), len(problems)
    mu1s, mu2s, c12, c21, r0s = np.repeat(np.array(problems, dtype=float).T, S, axis=1)
    kern = _Kernel(spec, c12, c21)
    symmetric = (spec.k == 1 and spec.pbar1 == spec.pbar2
                 and np.array_equal(spec.gains1, spec.gains2))
    tied = np.flatnonzero(mu1s == mu2s) if symmetric else []

    def project(X):
        X = _budget_project_pair(kern, X)
        if len(tied):
            X[tied] = 0.5 * (X[tied, 0] + X[tied, 1])[:, None]
        return X

    X = project(np.tile(kern.pack(starts), (D, 1, 1)))
    Y = np.repeat(_dual_vertices([p[:2] for p in problems]), S, axis=2)
    loc_v, _ = _lp_value_duals(_bounds_and_grads(kern, X, grads=False)[0], Y, r0s)
    loc_x = X
    gap = np.maximum(0.05 * np.maximum(np.abs(loc_v), 1e-6), 1e-3)
    exhausted = np.zeros(len(X), dtype=bool)
    for _ in range(config.rounds):
        round_start = loc_v
        live = np.ones(len(X), dtype=bool)
        for _ in range(config.iterations):
            b, grad = _bounds_and_grads(kern, X)
            v, c = _lp_value_duals(b, Y, r0s)
            better = v > loc_v
            loc_v = np.where(better, v, loc_v)
            loc_x = np.where(better[:, None, None], X, loc_x)
            G = grad(c)
            n2 = (G * G).sum(axis=(1, 2))
            live &= n2 >= 1e-300
            step = np.divide(loc_v + gap - v, n2, out=np.zeros(len(X)), where=live)
            X = np.where(live[:, None, None], project(X + step[:, None, None] * G), X)
        X = loc_x
        gap = gap * 0.4
        exhausted = loc_v - round_start > _FLAG_TOL
    best = np.arange(D) * S + loc_v.reshape(D, S).argmax(axis=1)
    flags = exhausted.reshape(D, S).any(axis=1)
    b, _ = _bounds_and_grads(kern, loc_x, grads=False)
    results = []
    for t, flag, (mu1, mu2, _, _, r0) in zip(best, flags, problems):
        b1, b2, b12, bsum = (float(x) for x in b[:, t])
        value, point = best_weighted_point(RateBounds(b1, b2, b12, max(bsum - r0, 0.0)), mu1, mu2)
        results.append(GaussianSolveResult(
            value=value,
            point=RatePoint(r0, point.r1, point.r2),
            alloc=kern.allocation(loc_x[t]),
            flag="budget-exhausted" if flag else "converged",
        ))
    return results


def solve_weighted(
    spec: GaussianMacSpec, problems, config: SolverConfig | None = None
) -> list[GaussianSolveResult]:
    """Solve a list of (mu1, mu2, c12, c21, r0) problems in one batched ascent.

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
    the multistart supergradient ascent reports a global value up to the step
    schedule. Deterministic for a fixed seed.
    """
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
