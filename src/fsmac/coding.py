"""Monte Carlo coding pipeline: super-alphabet codebooks indexed by delayed
state observations, channel simulation along a sampled state path, exhaustive
joint-typicality decoding, and the message-splitting layer that turns shared
message cells into a common message."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import MarkovChain, delayed_state_joint, sample_state_path
from .pmf import DmcChannel, InputPolicy, JointPmf, assemble_joint
from .regions import ConferencingConfig

__all__ = [
    "Codebooks",
    "SplitMessages",
    "DecodeResult",
    "ErrorRateEstimate",
    "message_count",
    "generate_codebooks",
    "delayed_sequences",
    "encode",
    "candidate_sequences",
    "simulate_channel",
    "decode_joint_typicality",
    "estimate_error_rate",
    "split_messages",
    "merge_messages",
    "conferencing_error_rate",
]

MAX_BLOCKLENGTH = 512
MAX_TRIPLETS = 1 << 16
_CHUNK_CELL_LIMIT = 8_000_000
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

    t0[m0, i, a]          common-message symbol component for observed state a
    t1[m1, i, u, a]       encoder-1 component for auxiliary symbol u, state a
    t2[m2, i, u, a, b]    encoder-2 component for (u, state a, state b)

    Components are drawn i.i.d. from the policy conditionals; regeneration
    with the same seed is bit-identical.
    """

    def __init__(self, policy: InputPolicy, t0, t1, t2, n: int, seed) -> None:
        self.policy = policy
        self.t0 = t0
        self.t1 = t1
        self.t2 = t2
        self.n = int(n)
        self.seed = seed

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.t0.shape[0], self.t1.shape[0], self.t2.shape[0]


def _sample_rows(rng, probs, shape):
    """Categorical samples with the given row distribution, vectorized."""
    cum = np.cumsum(probs)
    u = rng.random(shape)
    return np.searchsorted(cum, u, side="right").astype(np.int64).clip(0, len(probs) - 1)


def _generate_codebooks_counts(
    policy: InputPolicy, n: int, counts: tuple[int, int, int], rng: np.random.Generator
) -> Codebooks:
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    k, nu = policy.n_states, policy.n_u
    if policy.n_u < 1 or policy.n_x1 < 1 or policy.n_x2 < 1:
        raise ValueError("alphabets must be nonempty")
    m0, m1, m2 = counts
    t0 = np.empty((m0, n, k), dtype=np.int64)
    for a in range(k):
        t0[:, :, a] = _sample_rows(rng, policy.pU[a], (m0, n))
    t1 = np.empty((m1, n, nu, k), dtype=np.int64)
    for u in range(nu):
        for a in range(k):
            t1[:, :, u, a] = _sample_rows(rng, policy.pX1[u, a], (m1, n))
    t2 = np.empty((m2, n, nu, k, k), dtype=np.int64)
    for u in range(nu):
        for a in range(k):
            for b in range(k):
                t2[:, :, u, a, b] = _sample_rows(rng, policy.pX2[u, a, b], (m2, n))
    return Codebooks(policy, t0, t1, t2, n, None)


def generate_codebooks(
    policy: InputPolicy, n: int, rates: tuple[float, float, float], seed
) -> Codebooks:
    """Random codebooks for message counts floor(2^(n*rate)) per book."""
    counts = tuple(message_count(n, r) for r in rates)
    rng = np.random.default_rng(seed)
    books = _generate_codebooks_counts(policy, n, counts, rng)
    books.seed = seed
    return books


def delayed_sequences(s: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Delayed views of a state path; positions before the delay hold 0 and
    are never consulted by the encoders or the decoder."""
    n = len(s)
    sd1 = np.zeros(n, dtype=np.int64)
    sd2 = np.zeros(n, dtype=np.int64)
    if d1 < n:
        sd1[d1:] = s[: n - d1]
    if d2 < n:
        sd2[d2:] = s[: n - d2]
    return sd1, sd2


def encode(
    books: Codebooks,
    m0: int,
    m1: int,
    m2: int,
    sd1: np.ndarray,
    sd2: np.ndarray,
    d1: int,
    d2: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Channel inputs for a message triplet given the delayed observations.

    The first d1 positions carry the fixed fill symbol; afterwards the
    common-message symbol selects the auxiliary value from the observed
    state, and each encoder indexes its codeword component with it.
    """
    M0, M1, M2 = books.sizes
    for name, m, M in (("m0", m0, M0), ("m1", m1, M1), ("m2", m2, M2)):
        if not 0 <= m < M:
            raise ValueError(f"{name}={m} out of range [0, {M})")
    n = books.n
    if len(sd1) != n or len(sd2) != n:
        raise ValueError("delayed state sequences must have the block length")
    x1 = np.full(n, FILL_SYMBOL, dtype=np.int64)
    x2 = np.full(n, FILL_SYMBOL, dtype=np.int64)
    if d1 < n:
        i = np.arange(d1, n)
        u = books.t0[m0, i, sd1[i]]
        x1[i] = books.t1[m1, i, u, sd1[i]]
        x2[i] = books.t2[m2, i, u, sd1[i], sd2[i]]
    return x1, x2


def candidate_sequences(
    books: Codebooks, m0: int, m1: int, m2: int, s: np.ndarray, d1: int, d2: int
):
    """(u, x1, x2) sequences a decoder reconstructs for one candidate triplet,
    restricted to positions at and after d1."""
    n = books.n
    i = np.arange(d1, n)
    sd1 = s[i - d1]
    sd2 = s[i - d2]
    u = books.t0[m0, i, sd1]
    x1 = books.t1[m1, i, u, sd1]
    x2 = books.t2[m2, i, u, sd1, sd2]
    return u, x1, x2


def simulate_channel(
    chain: MarkovChain, channel: DmcChannel, x1: np.ndarray, x2: np.ndarray, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a stationary state path and the outputs for given input sequences.

    The state process never depends on the inputs, so in a full pipeline the
    path is drawn first and the delayed observations feed the encoders; this
    operation bundles both draws for channels probed with fixed inputs.
    """
    if len(x1) != len(x2):
        raise ValueError("input sequences must have equal length")
    rng = np.random.default_rng(seed)
    n = len(x1)
    s = sample_state_path(chain, n, rng)
    y = _sample_outputs(channel, x1, x2, s, rng)
    return s, y


def _sample_outputs(channel, x1, x2, s, rng):
    probs = channel.table[x1, x2, s]
    cum = np.cumsum(probs, axis=1)
    u = rng.random(len(x1))
    y = (u[:, None] > cum).sum(axis=1)
    return np.minimum(y, channel.n_y - 1).astype(np.int64)


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    triplet: tuple[int, int, int] | None
    n_typical: int


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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = books.n
    if n > MAX_BLOCKLENGTH:
        raise ValueError(f"exhaustive decoding is capped at blocklength {MAX_BLOCKLENGTH}")
    if len(y) != n or len(s) != n:
        raise ValueError("output and state sequences must have the block length")
    M0, M1, M2 = books.sizes
    n_triplets = M0 * M1 * M2
    if n_triplets > MAX_TRIPLETS:
        raise ValueError(
            f"{n_triplets} candidate triplets exceed the exhaustive-decoder cap {MAX_TRIPLETS}"
        )
    pol = books.policy
    nu, nx1, nx2 = pol.n_u, pol.n_x1, pol.n_x2
    k = pol.n_states
    ny = joint.table.shape[-1]
    if joint.table.shape != (nu, nx1, nx2, k, k, k, ny):
        raise ValueError(
            f"model joint shape {joint.table.shape} does not match the codebook "
            f"alphabets ({nu}, {nx1}, {nx2}, {k}, {k}, {k}, ...)"
        )
    m_eff = n - d1
    if m_eff <= 0:
        return DecodeResult(False, None, 0)

    i = np.arange(d1, n)
    sd1 = s[i - d1]
    sd2 = s[i - d2]
    n_ctx = k * k * k * ny
    ctx = ((s[i] * k + sd1) * k + sd2) * ny + y[i]
    n_cells = nu * nx1 * nx2 * n_ctx
    p = joint.table.ravel()
    pos_mask = p > 0
    typical_ids: list[int] = []
    # bound both the candidate-cell array (chunk * M2 * m) and the histogram
    # table (chunk * M2 * n_cells) built per chunk of first-user messages
    per_pair = m_eff * max(M2, 1)
    per_hist = n_cells * max(M2, 1)
    pairs_per_chunk = max(1, _CHUNK_CELL_LIMIT // max(per_pair, per_hist))
    m1_ids = np.arange(M1)
    for i0 in range(M0):
        u0 = books.t0[i0, i, sd1]  # (m,)
        x2_i0 = books.t2[
            np.arange(M2)[:, None], i[None, :], u0[None, :], sd1[None, :], sd2[None, :]
        ]  # (M2, m)
        for m1_lo in range(0, M1, pairs_per_chunk):
            m1_hi = min(m1_lo + pairs_per_chunk, M1)
            c1 = m1_hi - m1_lo
            x1_chunk = books.t1[
                m1_ids[m1_lo:m1_hi, None], i[None, :], u0[None, :], sd1[None, :]
            ]  # (c1, m)
            a = (u0[None, None, :] * nx1 + x1_chunk[:, None, :]) * nx2 + x2_i0[None, :, :]
            cells = a * n_ctx + ctx[None, None, :]
            local = np.arange(c1 * M2).reshape(c1, M2, 1)
            flat = (local * n_cells + cells).ravel()
            counts = np.bincount(flat, minlength=c1 * M2 * n_cells).reshape(c1 * M2, n_cells)
            emp = counts / m_eff
            cond = np.where(pos_mask[None, :], np.abs(emp - p[None, :]) <= epsilon, emp == 0.0)
            for t in np.flatnonzero(cond.all(axis=1)):
                m1_idx = m1_lo + int(t) // M2
                m2_idx = int(t) % M2
                typical_ids.append((i0 * M1 + m1_idx) * M2 + m2_idx)
    if len(typical_ids) == 1:
        t = typical_ids[0]
        triplet = (t // (M1 * M2), (t // M2) % M1, t % M2)
        return DecodeResult(True, triplet, 1)
    return DecodeResult(False, None, len(typical_ids))


@dataclass(frozen=True)
class ErrorRateEstimate:
    p_e: float
    ci_low: float
    ci_high: float
    errors: int
    trials: int


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
    classify,
) -> ErrorRateEstimate:
    """Shared Monte Carlo loop. Each trial derives an independent stream from
    (seed, trial); message sets of size one consume no randomness, keeping
    streams aligned between the private-only and conferencing pipelines."""
    joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
    errors = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))
        books = _generate_codebooks_counts(policy, n, counts, rng)
        sent = tuple(
            int(rng.integers(size)) if size > 1 else 0 for size in counts
        )
        s = sample_state_path(chain, n, rng)
        sd1, sd2 = delayed_sequences(s, d1, d2)
        x1, x2 = encode(books, *sent, sd1, sd2, d1, d2)
        yseq = _sample_outputs(channel, x1, x2, s, rng)
        result = decode_joint_typicality(books, yseq, s, d1, d2, epsilon, joint)
        if classify(sent, result):
            errors += 1
    lo, hi = _wilson_interval(errors, trials)
    return ErrorRateEstimate(errors / trials, lo, hi, errors, trials)


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = tuple(message_count(n, r) for r in rates)

    def wrong(sent, result):
        return not (result.ok and result.triplet == sent)

    return _run_trials(chain, channel, policy, counts, n, d1, d2, epsilon, trials, seed, wrong)


@dataclass(frozen=True)
class SplitMessages:
    """A private message pair recoded as (shared cells, within-cell indices).

    m0_prime is the pair of cell indices both encoders learn during the
    conference; m1_prime and m2_prime are the residual private indices.
    """

    m0_prime: tuple[int, int]
    m1_prime: int
    m2_prime: int
    rt1: float
    rt2: float
    n_cells1: int
    n_cells2: int
    idx_size1: int
    idx_size2: int


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
    r1, r2 = rates
    M1 = message_count(n, r1)
    M2 = message_count(n, r2)
    if not 0 <= m1 < M1:
        raise ValueError(f"m1={m1} out of range [0, {M1})")
    if not 0 <= m2 < M2:
        raise ValueError(f"m2={m2} out of range [0, {M2})")
    rt1 = min(r1, conf.c12)
    rt2 = min(r2, conf.c21)
    idx1 = message_count(n, r1 - rt1)
    idx2 = message_count(n, r2 - rt2)
    cells1 = -(-M1 // idx1)
    cells2 = -(-M2 // idx2)
    return SplitMessages(
        m0_prime=(m1 // idx1, m2 // idx2),
        m1_prime=m1 % idx1,
        m2_prime=m2 % idx2,
        rt1=rt1,
        rt2=rt2,
        n_cells1=cells1,
        n_cells2=cells2,
        idx_size1=idx1,
        idx_size2=idx2,
    )


def merge_messages(sm: SplitMessages) -> tuple[int, int]:
    """Inverse of split_messages."""
    c1, c2 = sm.m0_prime
    return c1 * sm.idx_size1 + sm.m1_prime, c2 * sm.idx_size2 + sm.m2_prime


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

    The shared cells form the common message; decoding errors are counted on
    the reconstructed original pair.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    r1, r2 = rates
    M1 = message_count(n, r1)
    M2 = message_count(n, r2)
    probe = split_messages(0, 0, rates, conf, n)
    counts = (probe.n_cells1 * probe.n_cells2, probe.idx_size1, probe.idx_size2)

    def to_inner_triplet(m1: int, m2: int):
        sm = split_messages(m1, m2, rates, conf, n)
        c1, c2 = sm.m0_prime
        return (c1 * probe.n_cells2 + c2, sm.m1_prime, sm.m2_prime)

    joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
    errors = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))
        books = _generate_codebooks_counts(policy, n, counts, rng)
        m1 = int(rng.integers(M1)) if M1 > 1 else 0
        m2 = int(rng.integers(M2)) if M2 > 1 else 0
        sent = to_inner_triplet(m1, m2)
        s = sample_state_path(chain, n, rng)
        sd1, sd2 = delayed_sequences(s, d1, d2)
        x1, x2 = encode(books, *sent, sd1, sd2, d1, d2)
        yseq = _sample_outputs(channel, x1, x2, s, rng)
        result = decode_joint_typicality(books, yseq, s, d1, d2, epsilon, joint)
        if not result.ok:
            errors += 1
        else:
            d0, dm1, dm2 = result.triplet
            got = (
                (d0 // probe.n_cells2) * probe.idx_size1 + dm1,
                (d0 % probe.n_cells2) * probe.idx_size2 + dm2,
            )
            if got != (m1, m2):
                errors += 1
    lo, hi = _wilson_interval(errors, trials)
    return ErrorRateEstimate(errors / trials, lo, hi, errors, trials)
