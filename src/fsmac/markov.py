"""Finite-state Markov chains: stationary laws, matrix powers and the joint
distribution of the current state with its delayed observations."""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

__all__ = [
    "MarkovChain",
    "DelayedStateJoint",
    "stationary_distribution",
    "n_step_matrix",
    "delayed_state_joint",
    "sample_state_path",
]

_ROW_SUM_TOL = 1e-12
# positions per step of sample_state_path's walk over its jump tables (a
# power of 2): the walk takes n / _PATH_JUMP steps, and the path holds
# log2(_PATH_JUMP) + 1 tables of k * n entries
_PATH_JUMP = 16


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


def _steps(d, name: str):
    """d as a number of chain steps: a nonnegative integer, or inf."""
    if d == math.inf:
        return d
    if not (d >= 0 and float(d).is_integer()):
        raise ValueError(f"{name} must be a nonnegative integer or inf, got {d!r}")
    return int(d)


def n_step_matrix(chain: MarkovChain, d: float) -> np.ndarray:
    """d-step transition matrix K^d (K^0 is the identity). d may be inf: the
    chain is primitive, so K^d tends to K^inf = 1 pi, whose every row is the
    stationary law (Levin, Peres & Wilmer, Markov Chains and Mixing Times,
    Thm 4.9)."""
    d = _steps(d, "number of steps d")
    if d == math.inf:
        return np.tile(chain.pi, (chain.k, 1))
    return np.linalg.matrix_power(chain.K, d)


class DelayedStateJoint:
    """Joint law of (delayed state 1, delayed state 2, current state).

    ``table[a, b, c]`` is the stationary probability that the state seen by
    encoder 1 (lagging by d1 steps) is ``a``, the state seen by encoder 2
    (lagging by d2 <= d1 steps) is ``b``, and the current state is ``c``.
    ``pair[a, b]`` is the law of the two observed states: the table's
    marginal over ``c``, passed as it was built (pi(a) K^(d1-d2)[a, b] in
    `delayed_state_joint`), since the sum over ``c`` rounds differently.
    Either delay may be inf.
    """

    def __init__(self, chain: MarkovChain, d1: float, d2: float, table: np.ndarray,
                 pair: np.ndarray) -> None:
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
        if not (pair.shape == (k, k) and np.abs(table.sum(axis=2) - pair).max() <= _ROW_SUM_TOL):
            raise ValueError("pair must be the table's marginal over the current state")
        self.chain = chain
        self.d1 = d1
        self.d2 = d2
        self.table = table
        self.pair = pair

    @property
    def k(self) -> int:
        return self.chain.k


def delayed_state_joint(chain: MarkovChain, d1: float, d2: float) -> DelayedStateJoint:
    """Stationary joint law of the two delayed-state observations and the state.

    pair[a, b] = pi(a) * K^(d1-d2)[a, b] and
    table[a, b, c] = pair[a, b] * K^(d2)[b, c].
    Requires d1 >= d2 >= 0: encoder 1 sees the older state. Either delay may
    be inf. The gap d1 - d2 is 0 when the delays are equal, (inf, inf)
    included, so both encoders then see one state; it is inf when d1 alone
    is, so encoder 1's state is then independent of the other two.
    """
    d1, d2 = _steps(d1, "delay d1"), _steps(d2, "delay d2")
    if d2 > d1:
        raise ValueError(f"delay ordering violated: d1 >= d2 required, got d1={d1}, d2={d2}")
    pi = chain.pi
    pair = pi[:, None] * n_step_matrix(chain, 0 if d1 == d2 else d1 - d2)
    table = pair[:, :, None] * n_step_matrix(chain, d2)[None, :, :]
    return DelayedStateJoint(chain, d1, d2, table, pair)


def _by_content(fn):
    """fn(table, *args) memoized on the table's content (shape, type and
    bytes) and on args, so that a table changed in place never reads the
    values of its old content. The cache keeps a few entries and hands out
    read-only arrays, so that one caller cannot change them for the next."""

    @functools.lru_cache(maxsize=8)
    def cached(shape, dtype, data, *args):
        out = fn(np.frombuffer(data, dtype).reshape(shape), *args)
        for a in out if isinstance(out, tuple) else (out,):
            a.flags.writeable = False
        return out

    @functools.wraps(fn)
    def by_content(table, *args):
        return cached(table.shape, table.dtype.str, table.tobytes(), *args)

    by_content.cache_clear = cached.cache_clear
    return by_content


@_by_content
def _cumulative(probs) -> np.ndarray:
    """The thresholds of `_inverse_cdf` for probs: its cumulative masses
    over the last axis, less the last one."""
    return np.ascontiguousarray(np.cumsum(probs, axis=-1)[..., :-1])


def _inverse_cdf(u, cum, out=None) -> np.ndarray:
    """Inverse-CDF draws: for each uniform in u, the number of the
    thresholds cum (over its last axis, see `_cumulative`) that are <= u,
    so the last symbol also takes the rounding residue of the cumulative
    sum. u and the leading axes of cum broadcast; the draws are counted in
    the smallest unsigned type, in the broadcast C order, or into out, an
    array of the broadcast shape, with one comparison pass per threshold."""
    if cum.shape[-1] == 0:  # one symbol
        if out is None:
            out = np.empty(np.broadcast_shapes(np.shape(u), cum.shape[:-1]), np.uint8)
        out[...] = 0
        return out
    # a bool is one byte of 0 or 1, so comparisons count as uint8 in place
    if out is None:
        out = (u >= cum[..., 0]).view(np.uint8)
        if cum.shape[-1] > 255:
            out = out.astype(np.min_scalar_type(cum.shape[-1]))
    elif out.dtype == np.uint8:
        np.greater_equal(u, cum[..., 0], out=out.view(bool))
    else:
        out[...] = u >= cum[..., 0]
    for j in range(1, cum.shape[-1]):
        out += (u >= cum[..., j]).view(np.uint8)
    return out


def _categorical(u, probs) -> np.ndarray:
    """The inverse-CDF draws of `_inverse_cdf` for the probabilities probs,
    as C-order int64."""
    return _inverse_cdf(u, np.cumsum(probs, axis=-1)[..., :-1]).astype(np.int64)


def sample_state_path(chain: MarkovChain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a length-n state-index path started from the stationary law.

    One uniform per position: the first picks the start from pi, and the
    i-th picks the next state from row K[s[i-1]]. Every row's next state is
    drawn for every step at once; the path then follows its own rows. Node
    s * N + i (state s at position i, N being n rounded up to a multiple of
    _PATH_JUMP) points to the node after it, and squaring that table gives
    the node 2, 4, ..., _PATH_JUMP steps on. A walk takes the path's node at
    every _PATH_JUMP-th position, and halving jumps fill in the rest."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k, J = chain.k, _PATH_JUMP
    N = -(-n // J) * J
    u = rng.random(n)
    # succ[s, i] is the state after state s at position i, drawn with u[i + 1]
    succ = np.zeros((k, N), np.min_scalar_type(k - 1))
    _inverse_cdf(u[1:], _cumulative(chain.K)[:, None], succ[:, :n - 1])
    # the last position points back to the first: no position before N is
    # reached through it
    jumps = [(succ.astype(np.intp) * N + np.arange(1, N + 1) % N).ravel()]
    while 1 << (len(jumps) - 1) < J:
        jumps.append(jumps[-1][jumps[-1]])
    # the J-step table between nodes at multiples of J, as s * N / J + i / J
    coarse = (jumps.pop()[::J] // J).tolist()
    node = int(_inverse_cdf(u[0], _cumulative(chain.pi))) * (N // J)
    path = np.empty(N, dtype=np.int64)
    path[::J] = [node] + [node := coarse[node] for _ in range(N // J - 1)]
    path[::J] *= J
    for q in reversed(range(len(jumps))):
        h = 1 << q
        path[h::2 * h] = jumps[q][path[::2 * h]]
    return path[:n] // N
