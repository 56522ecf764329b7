"""Finite-state Markov chains: stationary laws, matrix powers and the joint
distribution of the current state with its delayed observations."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "MarkovChain",
    "DelayedStateJoint",
    "stationary_distribution",
    "n_step_matrix",
    "delayed_state_joint",
    "mixing_horizon",
    "sample_state_path",
]

_ROW_SUM_TOL = 1e-12


class MarkovChain:
    """An irreducible, aperiodic, homogeneous chain over a finite state set.

    The transition matrix is stored source-first and row-stochastic:
    ``K[j, l]`` is the probability of moving from state ``j`` to state ``l``
    in one step, so the stationary distribution is a row vector with
    ``pi @ K == pi``.
    """

    def __init__(self, states: Sequence[str], K) -> None:
        K = np.asarray(K, dtype=float)
        states = list(states)
        k = len(states)
        if k < 1:
            raise ValueError("state set must be nonempty")
        if len(set(states)) != k:
            raise ValueError("state labels must be unique")
        if K.shape != (k, k):
            raise ValueError(f"transition matrix must be {k}x{k}, got {K.shape}")
        if not np.all(K >= 0):  # written so that NaN fails it too
            raise ValueError("transition probabilities must be nonnegative numbers")
        row_err = np.abs(K.sum(axis=1) - 1.0).max()
        if not row_err <= _ROW_SUM_TOL:
            raise ValueError(f"rows of K must sum to 1 (max deviation {row_err:.3e})")
        if not _is_primitive(K):
            raise ValueError("chain must be irreducible and aperiodic")
        self.states = states
        self.K = K
        self._pi: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.states)

    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            self._pi = stationary_distribution(self)
        return self._pi

    def __repr__(self) -> str:
        return f"MarkovChain(states={self.states!r}, k={self.k})"


def _is_primitive(K: np.ndarray) -> bool:
    """Whether some power of K up to k^2 has all entries strictly positive."""
    k = K.shape[0]
    reach = K > 0
    if reach.all():
        return True
    step = K > 0
    for _ in range(k * k - 1):
        reach = reach @ step
        if reach.all():
            return True
    return False


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Unique probability vector pi with pi @ K == pi.

    Solved as a linear system: (K^T - I) pi^T = 0 with the normalization
    row sum(pi) = 1 replacing one redundant equation.
    """
    k = chain.k
    A = chain.K.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def n_step_matrix(chain: MarkovChain, d: int) -> np.ndarray:
    """d-step transition matrix K^d (K^0 is the identity)."""
    if d < 0:
        raise ValueError("number of steps d must be >= 0")
    return np.linalg.matrix_power(chain.K, d)


class DelayedStateJoint:
    """Joint law of (delayed state 1, delayed state 2, current state).

    ``table[a, b, c]`` is the stationary probability that the state seen by
    encoder 1 (lagging by d1 steps) is ``a``, the state seen by encoder 2
    (lagging by d2 <= d1 steps) is ``b``, and the current state is ``c``.
    """

    def __init__(self, chain: MarkovChain, d1: int, d2: int, table: np.ndarray) -> None:
        k = chain.k
        if table.shape != (k, k, k):
            raise ValueError(f"table must be {k}x{k}x{k}, got {table.shape}")
        if not np.all(table >= 0):
            raise ValueError("joint probabilities must be nonnegative numbers")
        total = table.sum()
        if not abs(total - 1.0) <= _ROW_SUM_TOL:
            raise ValueError(f"joint table must sum to 1 (got {total!r})")
        pi = chain.pi
        if not np.abs(table.sum(axis=(1, 2)) - pi).max() <= _ROW_SUM_TOL:
            raise ValueError("marginal of the encoder-1 state must equal the stationary law")
        if not np.abs(table.sum(axis=(0, 1)) - pi).max() <= _ROW_SUM_TOL:
            raise ValueError("marginal of the current state must equal the stationary law")
        self.chain = chain
        self.d1 = int(d1)
        self.d2 = int(d2)
        self.table = table

    @property
    def k(self) -> int:
        return self.chain.k

    def marginal_pair(self) -> np.ndarray:
        """Joint law of the two delayed states, table summed over the current state."""
        return self.table.sum(axis=2)


def delayed_state_joint(chain: MarkovChain, d1: int, d2: int) -> DelayedStateJoint:
    """Stationary joint law of the two delayed-state observations and the state.

    table[a, b, c] = pi(a) * K^(d1-d2)[a, b] * K^(d2)[b, c].
    Requires d1 >= d2 >= 0: encoder 1 sees the older state.
    """
    if d2 < 0 or d1 < 0:
        raise ValueError("delays must be >= 0")
    if d2 > d1:
        raise ValueError(f"delay ordering violated: d1 >= d2 required, got d1={d1}, d2={d2}")
    pi = chain.pi
    K_gap = n_step_matrix(chain, d1 - d2)
    K_d2 = n_step_matrix(chain, d2)
    table = pi[:, None, None] * K_gap[:, :, None] * K_d2[None, :, :]
    return DelayedStateJoint(chain, d1, d2, table)


def mixing_horizon(chain: MarkovChain, tol: float = 1e-9, max_steps: int = 100_000) -> int:
    """Smallest d with max-row total-variation distance of K^d from pi below tol.

    Used to replace an unbounded delay by a finite surrogate.
    """
    pi = chain.pi
    P = np.eye(chain.k)
    for d in range(max_steps + 1):
        tv = 0.5 * np.abs(P - pi[None, :]).sum(axis=1).max()
        if tv < tol:
            return d
        P = P @ chain.K
    raise RuntimeError(f"chain did not mix to {tol} within {max_steps} steps")


def _inverse_cdf(u, probs) -> np.ndarray:
    """Inverse-CDF draws: for each uniform in u, the number of cumulative
    masses of probs (over its last axis) that are <= u, not counting the
    last one, so the last symbol also takes the rounding residue of the
    cumulative sum. u and the leading axes of probs broadcast; the draws
    are counted in the smallest integer type, in the broadcast C order."""
    cum = np.cumsum(probs, axis=-1)[..., :-1]
    sym = np.zeros(np.broadcast(u, probs[..., 0]).shape, np.min_scalar_type(cum.shape[-1]))
    for j in range(cum.shape[-1]):
        sym += u >= cum[..., j]
    return sym


def _categorical(u, probs) -> np.ndarray:
    """The inverse-CDF draws of `_inverse_cdf` as C-order int64."""
    return _inverse_cdf(u, probs).astype(np.int64)


def sample_state_path(chain: MarkovChain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a length-n state-index path started from the stationary law.

    One uniform per position: the first picks the start from pi, and the
    i-th picks the next state from row K[s[i-1]]. Every row's next state is
    drawn for every step at once, then the path follows its own row."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k = chain.k
    u = rng.random(n)
    # node i * k + s (state s at position i) points to the node that follows it
    nxt = (_categorical(u[1:, None], chain.K) + np.arange(k, n * k, k)[:, None]).ravel().tolist()
    node = int(_categorical(u[0], chain.pi))
    nodes = [node] + [node := nxt[node] for _ in range(n - 1)]
    return np.array(nodes, dtype=np.int64) % k
