"""Monte Carlo coding pipeline: super-alphabet codebooks indexed by delayed
state observations, channel simulation along a sampled state path, exhaustive
joint-typicality decoding, and the message-splitting layer that turns shared
message cells into a common message."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .markov import (
    MarkovChain, _by_content, _cumulative, _inverse_cdf, _steps, delayed_state_joint, sample_state_path,
)
from .pmf import DmcChannel, InputPolicy, JointPmf, assemble_joint
from .regions import ConferencingConfig

__all__ = [
    "Codebooks",
    "SplitMessages",
    "DecodeResult",
    "ErrorRateEstimate",
    "message_count",
    "generate_codebooks",
    "encode",
    "decode_joint_typicality",
    "estimate_error_rate",
    "split_messages",
    "merge_messages",
    "conferencing_counts",
    "conferencing_error_rate",
    "check_decoder_caps",
]

MAX_BLOCKLENGTH = 512
MAX_TRIPLETS = 1 << 16
_CHUNK_CELL_LIMIT = 8_000_000
# int64 entries of the cell counter's cell array and histogram per chunk
_BINCOUNT_ELEMENTS = 1 << 16
# candidate pairs (m1, m2) per m0 from which the decoder screens each m0's
# pairs before it counts them (fixed cost about 0.2-0.3 ms per m0) instead of
# counting every triplet on the grid. Both ways timed on a 2-core x86 box
# (numpy 2.4, OpenBLAS), gated-parity and full-support xor-BSC channels,
# n = 128..512, M0 = 1 and 4, M1 * M2 = 16..1024: the grid wins up to 64-256
# pairs, the most at small n and M0 = 1, and any value from 96 to 144 costs
# the same over those 108 cases
_MATMUL_MIN_PAIRS = 128
# bytes of gathered bit sets per position chunk in the screen
_SCREEN_BYTES = 1 << 21
# survivors x positions up to which the pairs that pass the screen are
# counted as a list rather than all pairs with matrix products.
# Measured crossover at n = 128..512 with 253 x 253 gated-parity books on a
# 2-core x86 box (numpy 2.4, OpenBLAS): 0.33M-0.65M entries (about 12.5 ns
# per entry against 4.5-8 ms of products over every pair)
_PAIR_LIST_MAX_ENTRIES = 1 << 19
# float64 uniforms per draw of a codebook table (512 KB): a larger table is
# drawn and counted in chunks, which give the same stream because
# Generator.random fills in C order
_DRAW_CHUNK = 1 << 16
FILL_SYMBOL = 0


def message_count(n: int, rate: float) -> int:
    """Number of messages for a rate: floor(2^(n*rate)), at least 1.

    A small additive guard keeps integer powers exact in floating point.
    """
    if rate < 0:
        raise ValueError("rates must be nonnegative")
    if n * rate >= 1024:
        raise ValueError(
            f"2^(n*rate) messages overflow a float: n={n}, rate={rate!r}, n*rate >= 1024"
        )
    return max(1, int(math.floor(2.0 ** (n * rate) + 1e-9)))


class Codebooks:
    """The three codeword arrays over delayed-state-indexed super-alphabets.

    t0[a, m0, i]          common-message symbol component for observed state a
    t1[u, a, m1, i]       encoder-1 component for auxiliary symbol u, state a
    t2[u, a, b, m2, i]    encoder-2 component for (u, state a, state b)

    Components are drawn i.i.d. from the policy conditionals, and each book
    is stored in the order of its draws, so its flat offset of message m at
    position i of component row r is r * M * n + m * n + i. Drawing again
    from a generator in the same state is bit-identical. Drawn books hold
    each symbol in the smallest unsigned type of its alphabet (one byte up
    to 256 symbols); hand-built ones may use any integer type.
    """

    def __init__(self, policy: InputPolicy, t0, t1, t2, n: int) -> None:
        k, nu = policy.pU.shape
        for name, book, lead in (("t0", t0, (k,)), ("t1", t1, (nu, k)), ("t2", t2, (nu, k, k))):
            if book.ndim != len(lead) + 2 or book.shape[:-2] != lead or book.shape[-1] != n:
                raise ValueError(
                    f"{name} must have shape {(*lead, 'M', n)}, got {book.shape}"
                )
        self.policy = policy
        self.t0 = t0
        self.t1 = t1
        self.t2 = t2
        self.n = int(n)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.t0.shape[-2], self.t1.shape[-2], self.t2.shape[-2]


def generate_codebooks(
    policy: InputPolicy, n: int, counts: tuple[int, int, int], rng: np.random.Generator
) -> Codebooks:
    """Random codebooks of (M0, M1, M2) messages, each component drawn from
    its policy conditional: t0, then t1, then t2, each component row (in
    the C order of its observed-state and auxiliary indices) as one (M, n)
    block of uniforms. They are drawn in chunks of at most _DRAW_CHUNK,
    whole rows or pieces of one, and counted by `_inverse_cdf` straight
    into the book, in the smallest unsigned type of its alphabet: uint8 up
    to 256 symbols, uint16 above."""
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    books = []
    for table, M in zip((policy.pU, policy.pX1, policy.pX2), counts):
        *rows, nx = table.shape
        cum = _cumulative(table).reshape(math.prod(rows), 1, nx - 1)
        book = np.empty((len(cum), M * n), np.min_scalar_type(nx - 1))
        per_draw = max(1, _DRAW_CHUNK // (M * n))  # rows
        span = min(M * n, _DRAW_CHUNK)  # uniforms per row
        for r in range(0, len(cum), per_draw):
            for j in range(0, M * n, span):
                out = book[r:r + per_draw, j:j + span]
                _inverse_cdf(rng.random(out.shape), cum[r:r + per_draw], out)
        books.append(book.reshape(*rows, M, n))
    return Codebooks(policy, *books, n)


def _by_message(book: np.ndarray, n: int) -> np.ndarray:
    """A read-only (M, ...) view of a book whose entry [m, r * M * n + i] is
    the symbol of message m at position i of component row r."""
    flat, M = book.ravel(), book.shape[-2]
    size = flat.itemsize
    view = np.ndarray((M, flat.size - (M - 1) * n), flat.dtype, flat, 0, (n * size, size))
    view.flags.writeable = False
    return view


def _observed(s: np.ndarray, d1: int, d2: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """d1 read as `delayed_state_joint` reads it (3.0 is 3), the positions
    i >= d1 at which both encoders observe a state, and the observations
    there, s[i - d1] (both encoders) and s[i - d2] (encoder 2), as views of
    s. Earlier positions carry the fill symbol and are never decoded."""
    if not 0 <= d2 <= d1 < math.inf:
        raise ValueError(f"the delays must satisfy 0 <= d2 <= d1 < inf, got d1={d1}, d2={d2}")
    d1, d2 = _steps(d1, "delay d1"), _steps(d2, "delay d2")
    m = max(len(s) - d1, 0)
    return d1, np.arange(d1, d1 + m), s[:m], s[d1 - d2:d1 - d2 + m]


def encode(
    books: Codebooks, m0: int, m1: int, m2: int, s: np.ndarray, d1: int, d2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Channel inputs for a message triplet along the state path s.

    The first d1 positions carry the fixed fill symbol; afterwards the
    common-message symbol selects the auxiliary value from the observed
    state, and each encoder indexes its codeword component with it.
    """
    M0, M1, M2 = books.sizes
    for name, m, M in (("m0", m0, M0), ("m1", m1, M1), ("m2", m2, M2)):
        if not 0 <= m < M:
            raise ValueError(f"{name}={m} out of range [0, {M})")
    n, k = books.n, books.policy.n_states
    if len(s) != n:
        raise ValueError("the state path must have the block length")
    d1, i, sd1, sd2 = _observed(s, d1, d2)
    x = np.empty((2, n), dtype=np.int64)
    x[:, :d1] = FILL_SYMBOL
    # flat offsets r * M * n + m * n + i into t0 (k, M0, n), t1 (nu, k, M1,
    # n) and t2 (nu, k, k, M2, n), r being the component row a, (u, a) or
    # (u, a, b); the books' symbols may be bytes, so u is cast to intp
    u = books.t0.ravel()[sd1 * (M0 * n) + (m0 * n + i)].astype(np.intp)
    row1 = u * k + sd1
    x[0, d1:] = books.t1.ravel()[row1 * (M1 * n) + (m1 * n + i)]
    x[1, d1:] = books.t2.ravel()[(row1 * k + sd2) * (M2 * n) + (m2 * n + i)]
    return x[0], x[1]


def _sample_outputs(channel, x1, x2, s, rng):
    """One output per position, drawn by `_inverse_cdf` from the channel
    row of (x1, x2, s), as int64."""
    u = rng.random(len(x1))
    *cells, ny = channel.table.shape
    cum = _cumulative(channel.table).reshape(math.prod(cells), ny - 1)
    return _inverse_cdf(u, cum[(x1 * channel.n_x2 + x2) * channel.n_states + s]).astype(np.int64)


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    triplet: tuple[int, int, int] | None
    n_typical: int


def check_decoder_caps(n: int, counts: tuple[int, int, int]) -> None:
    """Raise ValueError unless blocklength n and the codebook sizes
    (M0, M1, M2) fit the exhaustive decoder's caps."""
    if not 1 <= n <= MAX_BLOCKLENGTH:
        raise ValueError(
            f"blocklength {n} outside the exhaustive decoder's range [1, {MAX_BLOCKLENGTH}]"
        )
    n_triplets = math.prod(counts)
    if n_triplets > MAX_TRIPLETS:
        raise ValueError(
            f"{n_triplets} candidate triplets exceed the exhaustive-decoder cap {MAX_TRIPLETS}"
        )


def decode_joint_typicality(
    books: Codebooks,
    y: np.ndarray,
    s: np.ndarray,
    d1: int,
    d2: int,
    epsilon: float,
    joint: JointPmf,
) -> DecodeResult:
    """Exhaustive strong-typicality decoding against the model joint law.

    Every candidate triplet is reduced to input-alphabet sequences using the
    delayed states reconstructed from the full state path. A candidate is
    typical when, over positions at and after d1, its empirical distribution
    of (u, x1, x2, s, sd1, sd2, y) deviates from the model by at most epsilon
    on every positive-probability cell and puts no mass on null cells. A
    unique typical candidate is decoded; none or several is an error.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n = books.n
    check_decoder_caps(n, books.sizes)
    if len(y) != n or len(s) != n:
        raise ValueError("output and state sequences must have the block length")
    pol = books.policy
    nu, nx1, nx2 = pol.n_u, pol.n_x1, pol.n_x2
    k = pol.n_states
    ny = joint.table.shape[-1]
    if joint.table.shape != (nu, nx1, nx2, k, k, k, ny):
        raise ValueError(
            f"model joint shape {joint.table.shape} does not match the codebook "
            f"alphabets ({nu}, {nx1}, {nx2}, {k}, {k}, {k}, ...)"
        )
    # the block view the decoder reads: post-delay positions, observed
    # states, the context index of (s, sd1, sd2, y) and the pass bounds per
    # cell (u, context, x1, x2)
    d1, i, sd1, sd2 = _observed(s, d1, d2)
    if n - d1 <= 0:
        return DecodeResult(False, None, 0)
    ctx = ((s[d1:] * k + sd1) * k + sd2) * ny + y[d1:]
    lo, hi = _cell_bounds(joint.table, n - d1, epsilon)
    M0, M1, M2 = books.sizes
    if M1 * M2 >= _MATMUL_MIN_PAIRS:
        typical = _typical_screened(books, i, sd1, sd2, ctx, lo, hi)
    else:
        typical = _count_cells(books, _grid(M0, M1, M2), i, sd1, sd2, ctx, lo, hi)
    ids = np.flatnonzero(typical)
    if len(ids) == 1:
        m0, pair = divmod(int(ids[0]), M1 * M2)
        triplet = (m0, *divmod(pair, M2))
        return DecodeResult(True, triplet, 1)
    return DecodeResult(False, None, len(ids))


@functools.lru_cache(maxsize=8)
def _grid(M0: int, M1: int, M2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The np.ix_ grid of every candidate triplet, as read-only index arrays
    of shapes (M0, 1, 1), (1, M1, 1) and (1, 1, M2), built once per run."""
    grid = np.arange(M0)[:, None, None], np.arange(M1)[None, :, None], np.arange(M2)[None, None]
    for a in grid:
        a.flags.writeable = False
    return grid


@_by_content
def _cell_bounds(table, m_eff: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """`_pass_bounds` of the model joint table (u, x1, x2, s, sd1, sd2, y)
    in the decoder's cell layout (u, context, x1, x2), the context being the
    index of (s, sd1, sd2, y); contiguous, so that their flat views are
    free. Cached on the table's content, m_eff and epsilon, so a run
    computes them once and a changed table never reads stale ones."""
    nu, nx1, nx2 = table.shape[:3]
    return _pass_bounds(table.reshape(nu, nx1, nx2, -1).transpose(0, 3, 1, 2).copy(), m_eff, epsilon)


def _pass_bounds(p, m_eff: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """For each model probability in p, bounds [lo, hi] such that a count in
    0..m_eff passes the stated typicality test, |count / m_eff - p| <=
    epsilon where p > 0 and count / m_eff == 0 where p == 0, exactly when
    lo <= count <= hi. The passing counts are one interval (rounded division
    and subtraction are monotone) whose ends lie within about 1e-13 counts
    of the analytic edges m_eff * (p -+ epsilon), clamped to 0..m_eff (both
    0 for a null cell). So lo is a = ceil(lower edge - 1e-6) or a + 1,
    hi is b = floor(upper edge + 1e-6) or b - 1, and the test at a and at b
    decides which: O(1) per cell. If no count passes, lo > hi.
    """
    s = np.array([-1, 1]).reshape((2,) + (1,) * np.ndim(p))  # lower, upper edge
    w = np.where(p > 0, (s * p + epsilon) * m_eff, 0.0)
    e = s * np.floor(np.minimum(w, np.array([0, m_eff]).reshape(s.shape)) + 1e-6)
    ok = np.abs(e / m_eff - p) <= epsilon
    lo, hi = (e - s * ~ok).astype(np.int64)
    return lo, hi


def _count_cells(books, cands, i, sd1, sd2, ctx, lo, hi) -> np.ndarray:
    """Whether each candidate triplet is typical, over the block view and
    the (nu, contexts, nx1, nx2) pass bounds built by
    decode_joint_typicality. cands are three message-index arrays (m0, m1,
    m2) of one rank that broadcast against each other, such as the np.ix_
    grid of the books or one m0 with lists of m1 and m2; the mask has their
    broadcast shape.

    Symbols are gathered per index array: u once per m0, x1 once per
    (m0, m1) and x2 once per (m0, m2). Each candidate's cells
    ((u * n_ctx + ctx) * nx1 + x1) * nx2 + x2 are offset by its rank times
    the number of cells, so that one bincount counts a chunk of the first
    axis, and the counts are compared with their cells' pass bounds."""
    nu, n_ctx, nx1, nx2 = lo.shape
    k, n, n_cells = books.policy.n_states, books.n, lo.size
    M0, M1, M2 = books.sizes
    lo, hi = lo.ravel(), hi.ravel()
    t0, t1, t2 = books.t0.ravel(), books.t1.ravel(), books.t2.ravel()
    # flat offsets r * M * n + m * n + i into t0 (k, M0, n), t1 (nu, k, M1,
    # n) and t2 (nu, k, k, M2, n) less the message's term m * n and, for t1
    # and t2, the auxiliary symbol's term in r
    off0 = sd1 * (M0 * n) + i
    base1 = sd1 * (M1 * n) + i
    base2 = (sd1 * k + sd2) * (M2 * n) + i
    shape = np.broadcast(*cands).shape
    typical = np.empty(shape, dtype=bool)
    step = max(1, _BINCOUNT_ELEMENTS // (math.prod(shape[1:]) * max(len(i), n_cells)))
    for r in range(0, shape[0], step):
        # the chunk's rows of each index array, positions on a last axis
        m0, m1, m2 = (c[r:r + step, ..., None] if len(c) > 1 else c[..., None] for c in cands)
        # the books' symbols may be bytes: index arithmetic on them is in intp
        u = t0[m0 * n + off0].astype(np.intp)
        x1 = t1[m1 * n + (u * (k * M1 * n) + base1)]
        x2 = t2[m2 * n + (u * (k * k * M2 * n) + base2)]
        cells = ((u * n_ctx + ctx) * nx1 + x1) * nx2 + x2
        rows = cells.shape[:-1]
        n_rows = math.prod(rows)
        cells += np.arange(0, n_rows * n_cells, n_cells).reshape(*rows, 1)
        counts = np.bincount(cells.ravel(), minlength=n_rows * n_cells).reshape(n_rows, -1)
        typical[r:r + step] = ((counts >= lo) & (counts <= hi)).all(axis=1).reshape(rows)
    return typical


def _typical_screened(books, i, sd1, sd2, ctx, lo, hi) -> np.ndarray:
    """(M0, M1, M2) mask of the typical candidate triplets, over the block
    view and the (nu, contexts, nx1, nx2) pass bounds built by
    decode_joint_typicality.

    For a fixed m0 the auxiliary symbol is fixed at every position, so the
    positions split into groups g = (u, s, sd1, sd2, y), and each pair's
    counts are taken per group cell (g, x1, x2). Two cases need no count.
    Cells of an empty group count 0 for every pair, so an m0 that leaves a
    group empty whose cells reject a count of 0 has no typical candidate. A
    group whose cells all pass every count from 0 to its size passes for
    every pair. The positions of the other (active) groups are screened,
    then counted exactly for the pairs the screen keeps.

    A cell whose pass bounds have hi <= 0 (every null cell, and a positive
    one with m_eff * (p + epsilon) < 1) rejects any pair that puts one
    position into it, so `_screen` drops such pairs without counting. It
    drops only pairs the test rejects, so the mask is the same as counting
    every pair. Few survivors are counted as a list (`_count_cells`); when
    they are many, or no cell is forbidden, every pair is counted with
    group matrix products (`_count_groups`).
    """
    M0, M1, M2 = books.sizes
    nu, n_ctx, nx1, nx2 = lo.shape
    k, n = books.policy.n_states, books.n
    n_groups = nu * n_ctx
    t0, t1, t2 = (_by_message(t, n) for t in (books.t0, books.t1, books.t2))
    # the books' symbols may be bytes: index arithmetic on them is in intp
    u = t0[:, sd1 * (M0 * n) + i].astype(np.intp)  # (M0, m_eff)
    group = u * n_ctx + ctx
    size = np.bincount(
        (group + np.arange(M0)[:, None] * n_groups).ravel(), minlength=M0 * n_groups
    ).reshape(M0, n_groups)

    # pass bounds per (group, a, b) and what they imply for whole groups
    group_lo, group_hi = lo.reshape(n_groups, nx1, nx2), hi.reshape(n_groups, nx1, nx2)
    rejects_empty = (group_lo > 0).any(axis=(1, 2))
    live = ~(rejects_empty & (size == 0)).any(axis=1)
    active = (size > 0) & (rejects_empty | (group_hi.min(axis=(1, 2)) < size))
    typical = np.zeros((M0, M1, M2), dtype=bool)
    typical[live] = True

    # offsets into the (M, ...) views of t1 and t2: r * M * n + i for
    # component row r = (u, sd1) and (u, sd1, sd2)
    row1 = u * k + sd1
    off1 = row1 * (M1 * n) + i
    off2 = (row1 * k + sd2) * (M2 * n) + i
    for m0 in np.flatnonzero(live & active.any(axis=1)):
        groups = np.flatnonzero(active[m0])
        # positions of the active groups, ordered by group, with each one's
        # rank e among those groups; the order within a group does not
        # change its counts
        entry = np.full(n_groups, -1)
        entry[groups] = np.arange(groups.size)
        e = entry[group[m0]]
        order = np.argsort(e, kind="stable")[np.count_nonzero(e < 0):]
        e = e[order]
        pos1, pos2 = off1[m0, order], off2[m0, order]
        lo_g, hi_g = group_lo[groups], group_hi[groups]
        forbidden = hi_g[e] <= 0  # (positions, nx1, nx2)
        screened = np.flatnonzero(forbidden.any(axis=(1, 2)))
        if screened.size:
            keep = _screen(forbidden[screened], t1, t2, pos1[screened], pos2[screened])
            m1s, m2s = np.divmod(np.flatnonzero(keep), M2)  # 2-D nonzero is 10x slower
            if len(m1s) * len(e) <= _PAIR_LIST_MAX_ENTRIES:
                typical[m0] = False
                cands = (np.full(1, m0), m1s, m2s)
                typical[m0, m1s, m2s] = _count_cells(books, cands, i, sd1, sd2, ctx, lo, hi)
                continue
        typical[m0] = _count_groups(t1, t2, pos1, pos2, e, lo_g, hi_g)
    return typical


def _screen(forbidden, t1, t2, pos1, pos2) -> np.ndarray:
    """(M1, M2) mask of the pairs that put no position into a forbidden
    cell. forbidden is (positions, nx1, nx2), t1 and t2 are the books'
    (M, ...) views of `_by_message` and pos1, pos2 the positions' offsets
    in them.

    For each position j and x1 symbol a, the m2 whose x2 symbol makes
    (a, x2) forbidden at j are one bit set over m2; the sets that each m1's
    symbols select are or-ed over the positions. Bit operations only, no
    BLAS: the sets take M1 * M2 / 8 bytes, 1/32 of float32 hit counts,
    and the time does not depend on a BLAS build or its threads."""
    (n_pos, nx1, _), M1, M2 = forbidden.shape, len(t1), len(t2)
    rejected = np.zeros((M1, -(-M2 // 8)), dtype=np.uint8)
    # bytes per position: gathered bit sets, symbols and forbidden flags
    step = max(1, _SCREEN_BYTES // (rejected.size + 8 * (M1 + M2) + nx1 * M2))
    for j0 in range(0, n_pos, step):
        j = np.arange(j0, min(j0 + step, n_pos))
        x2 = t2[:, pos2[j]].T  # (positions, M2)
        # bits[j, a] holds the set over m2 of position j and symbol a
        hits = forbidden[j[:, None, None], np.arange(nx1)[:, None], x2[:, None]]
        bits = np.packbits(hits, axis=-1)
        picked = bits[j - j0, t1[:, pos1[j]]]  # (M1, positions, bytes)
        np.bitwise_or(rejected, np.bitwise_or.reduce(picked, axis=1), out=rejected)
    return np.unpackbits(rejected, axis=1, count=M2) == 0


def _onehot(t: np.ndarray, off: np.ndarray, rows: np.ndarray, n_rows: int, nx: int) -> np.ndarray:
    """(n_rows, nx * M) float32 one-hot of the codebook symbols t[:, off],
    the symbols of position off[j] in row rows[j]; other rows are zero."""
    sym = np.full((n_rows, t.shape[0]), nx, dtype=np.min_scalar_type(nx))
    sym[rows] = t[:, off].T
    onehot = sym[:, None, :] == np.arange(nx, dtype=sym.dtype)[:, None]
    return onehot.astype(np.float32).reshape(n_rows, -1)


def _count_groups(t1, t2, pos1, pos2, e, lo, hi) -> np.ndarray:
    """(M1, M2) mask of the pairs of rows of the (M, ...) book views t1 and
    t2 that pass the test on their group cells, pos1 and pos2 being the
    positions' offsets in them, e their group ranks (sorted) and lo, hi the
    (groups, nx1, nx2) pass bounds.

    Within group g the count of cell (a, b) for every pair is the product
    onehot(x1 == a)[:, g] @ onehot(x2 == b)[:, g].T; the products of all
    groups, zero-padded to the longest one, are one batched matmul. float32
    counts are exact: they are integers at most n <= 512."""
    M1, M2 = len(t1), len(t2)
    n_groups, nx1, nx2 = lo.shape
    # |count - mid| <= half, exact in float32, is lo <= count <= hi
    mid = ((lo + hi) / 2).astype(np.float32)[:, :, None, :, None]
    half = ((hi - lo) / 2).astype(np.float32)[:, :, None, :, None]
    starts = np.searchsorted(e, np.arange(n_groups + 1))
    width = int(np.diff(starts).max())
    row = e * width + np.arange(e.size) - starts[e]
    # float32 entries per group: the counts and the two one-hot operands
    per_group = nx1 * M1 * nx2 * M2 + width * (nx1 * M1 + nx2 * M2)
    step = max(1, _CHUNK_CELL_LIMIT // per_group)
    passed = np.ones((M1, M2), dtype=bool)
    for g_lo in range(0, n_groups, step):
        g = slice(g_lo, min(g_lo + step, n_groups))
        el = slice(starts[g.start], starts[g.stop])
        n_rows = (g.stop - g.start) * width
        r = row[el] - g.start * width
        a = _onehot(t1, pos1[el], r, n_rows, nx1).reshape(-1, width, nx1 * M1)
        b = _onehot(t2, pos2[el], r, n_rows, nx2).reshape(-1, width, nx2 * M2)
        counts = np.matmul(a.transpose(0, 2, 1), b).reshape(-1, nx1, M1, nx2, M2)
        counts -= mid[g]
        np.abs(counts, out=counts)
        counts -= half[g]
        passed &= counts.max(axis=(0, 1, 3)) <= 0
    return passed


@dataclass(frozen=True)
class ErrorRateEstimate:
    """Monte Carlo block error rate with its Wilson interval. The errors
    split by decoder outcome: `none` found no typical candidate, `several`
    found more than one, `wrong` found a unique one that was not sent."""

    p_e: float
    ci_low: float
    ci_high: float
    errors: int
    trials: int
    none: int
    several: int
    wrong: int


def _wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _run_trials(
    chain: MarkovChain,
    channel: DmcChannel,
    policy: InputPolicy,
    counts: tuple[int, int, int],
    n: int,
    d1: int,
    d2: int,
    epsilon: float,
    trials: int,
    seed: int,
    draw,
) -> ErrorRateEstimate:
    """Shared Monte Carlo loop over codebooks of sizes `counts`. Each trial
    derives an independent stream from (seed, trial); `draw(rng)` takes the
    sent triplet from it after the codebooks are drawn. A trial is an error
    unless the decoder returns exactly the sent triplet. A block decodes
    only positions at and after d1, so d1 must be finite and below n."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= d2 <= d1 < n:
        raise ValueError(f"delays must satisfy 0 <= d2 <= d1 < n, got d1={d1}, d2={d2}, n={n}")
    check_decoder_caps(n, counts)
    joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)

    def trial(rng):
        # one trial per call, so that its books, path, inputs and outputs
        # are freed before the next trial draws
        books = generate_codebooks(policy, n, counts, rng)
        sent = draw(rng)
        s = sample_state_path(chain, n, rng)
        x1, x2 = encode(books, *sent, s, d1, d2)
        yseq = _sample_outputs(channel, x1, x2, s, rng)
        return decode_joint_typicality(books, yseq, s, d1, d2, epsilon, joint), sent

    none = several = wrong = 0
    for t in range(trials):
        result, sent = trial(np.random.default_rng(np.random.SeedSequence(entropy=(seed, t))))
        if result.n_typical == 0:
            none += 1
        elif result.n_typical > 1:
            several += 1
        elif result.triplet != sent:
            wrong += 1
    errors = none + several + wrong
    lo, hi = _wilson_interval(errors, trials)
    return ErrorRateEstimate(errors / trials, lo, hi, errors, trials, none, several, wrong)


def _draw_index(rng: np.random.Generator, size: int) -> int:
    """A uniform message index; a message set of size one consumes no
    randomness, which keeps the streams of the two pipelines aligned."""
    return int(rng.integers(size)) if size > 1 else 0


def estimate_error_rate(
    chain: MarkovChain,
    channel: DmcChannel,
    policy: InputPolicy,
    rates: tuple[float, float, float],
    n: int,
    epsilon: float,
    trials: int,
    seed: int,
    d1: int = 0,
    d2: int = 0,
) -> ErrorRateEstimate:
    """Empirical block error rate of the common-message pipeline."""
    counts = tuple(message_count(n, r) for r in rates)

    def draw(rng):
        return tuple(_draw_index(rng, size) for size in counts)

    return _run_trials(chain, channel, policy, counts, n, d1, d2, epsilon, trials, seed, draw)


@dataclass(frozen=True)
class SplitMessages:
    """A private message pair recoded as (shared cells, within-cell indices).

    m0_prime is the pair of cell indices both encoders learn during the
    conference; m1_prime and m2_prime are the residual private indices.
    """

    m0_prime: tuple[int, int]
    m1_prime: int
    m2_prime: int
    n_cells1: int
    n_cells2: int
    idx_size1: int
    idx_size2: int


def _split_sizes(n: int, rates: tuple[float, float], conf: ConferencingConfig):
    """The split of each user's messages: their counts M_j, the cells
    ceil(M_j / idx_j) shared over the link and the in-cell sizes idx_j, the
    message count of the rate the link cannot carry, r_j - min(r_j, c_j)."""
    counts = tuple(message_count(n, r) for r in rates)
    sizes = tuple(message_count(n, r - min(r, c)) for r, c in zip(rates, (conf.c12, conf.c21)))
    cells = tuple(-(-M // idx) for M, idx in zip(counts, sizes))
    return counts, cells, sizes


def split_messages(
    m1: int,
    m2: int,
    rates: tuple[float, float],
    conf: ConferencingConfig,
    n: int,
) -> SplitMessages:
    """Split each private message into a cell (shared over the link) and an
    in-cell index; cell j of message m is m // idx_size, the index m % idx_size.
    The map (m1, m2) <-> (cells, indices) is a bijection."""
    counts, (cells1, cells2), (idx1, idx2) = _split_sizes(n, rates, conf)
    for name, m, M in (("m1", m1, counts[0]), ("m2", m2, counts[1])):
        if not 0 <= m < M:
            raise ValueError(f"{name}={m} out of range [0, {M})")
    return SplitMessages(
        m0_prime=(m1 // idx1, m2 // idx2),
        m1_prime=m1 % idx1,
        m2_prime=m2 % idx2,
        n_cells1=cells1,
        n_cells2=cells2,
        idx_size1=idx1,
        idx_size2=idx2,
    )


def merge_messages(sm: SplitMessages) -> tuple[int, int]:
    """Inverse of split_messages."""
    c1, c2 = sm.m0_prime
    return c1 * sm.idx_size1 + sm.m1_prime, c2 * sm.idx_size2 + sm.m2_prime


def conferencing_counts(
    n: int, rates: tuple[float, float], conf: ConferencingConfig
) -> tuple[int, int, int]:
    """Codebook sizes of the split-and-share pipeline: the common message
    ranges over pairs of shared cells, each private one over in-cell
    indices."""
    _, (cells1, cells2), (idx1, idx2) = _split_sizes(n, rates, conf)
    return cells1 * cells2, idx1, idx2


def conferencing_error_rate(
    chain: MarkovChain,
    channel: DmcChannel,
    policy: InputPolicy,
    rates: tuple[float, float],
    conf: ConferencingConfig,
    n: int,
    epsilon: float,
    trials: int,
    seed: int,
    d1: int = 0,
    d2: int = 0,
) -> ErrorRateEstimate:
    """Empirical error rate on (m1, m2) for the split-and-share pipeline.

    The shared cells form the common message. A decoded triplet maps back to
    the original pair one to one, so errors are counted on the triplet.
    """
    (M1, M2), (_, cells2), (idx1, idx2) = _split_sizes(n, rates, conf)  # once per run
    counts = conferencing_counts(n, rates, conf)

    def draw(rng):  # the split of split_messages, as the triplet it encodes
        m1, m2 = _draw_index(rng, M1), _draw_index(rng, M2)
        return (m1 // idx1 * cells2 + m2 // idx2, m1 % idx1, m2 % idx2)

    return _run_trials(chain, channel, policy, counts, n, d1, d2, epsilon, trials, seed, draw)
