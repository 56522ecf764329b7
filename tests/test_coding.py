import math

import numpy as np
import pytest

from fsmac import (
    Codebooks,
    ConferencingConfig,
    DmcChannel,
    InputPolicy,
    MarkovChain,
    assemble_joint,
    conferencing_error_rate,
    decode_joint_typicality,
    delayed_state_joint,
    encode,
    estimate_error_rate,
    generate_codebooks,
    merge_messages,
    message_count,
    sample_state_path,
    split_messages,
)
from fsmac import coding, markov


def two_state(g=0.1, b=0.1):
    return MarkovChain(["G", "B"], [[1 - b, b], [g, 1 - g]])


def single_state():
    return MarkovChain(["s"], [[1.0]])


def uniform_policy(k, nu=1, nx1=2, nx2=2):
    return InputPolicy(
        np.full((k, nu), 1.0 / nu),
        np.full((nu, k, nx1), 1.0 / nx1),
        np.full((nu, k, k, nx2), 1.0 / nx2),
    )


def point_mass_policy(k, nu=1):
    # u = 0 always, x1 = observed-state parity, x2 = 1
    pU = np.zeros((k, nu))
    pU[:, 0] = 1.0
    pX1 = np.zeros((nu, k, 2))
    for a in range(k):
        pX1[0, a, a % 2] = 1.0
    pX2 = np.zeros((nu, k, k, 2))
    pX2[..., 1] = 1.0
    return InputPolicy(pU, pX1, pX2)


def copy_pair_channel(k):
    t = np.zeros((2, 2, k, 4))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, :, 2 * x1 + x2] = 1.0
    return DmcChannel(t)


def uniform_noise_channel(k, ny=2):
    return DmcChannel(np.full((2, 2, k, ny), 1.0 / ny))


def xor_bsc_channel(k, crossovers):
    t = np.zeros((2, 2, k, 2))
    for s, p in enumerate(crossovers):
        for x1 in range(2):
            for x2 in range(2):
                t[x1, x2, s, (x1 + x2) % 2] = 1.0 - p
                t[x1, x2, s, (x1 + x2 + 1) % 2] = p
    return DmcChannel(t)


def gated_parity_channel():
    # state 0 passes x1 xor x2, state 1 outputs a fair coin
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, 0, (x1 + x2) % 2] = 1.0
    t[:, :, 1, :] = 0.5
    return DmcChannel(t)


class TestMessageCount:
    def test_floor_with_minimum_one(self):
        assert message_count(8, 0.0) == 1
        assert message_count(8, 0.5) == 16
        assert message_count(10, 0.33) == int(np.floor(2 ** 3.3))

    def test_integer_powers_exact(self):
        assert message_count(100, 0.1) == 2**10

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            message_count(8, -0.1)

    def test_overflowing_count_rejected_by_name(self):
        assert message_count(1023, 1.0) == 2**1023
        with pytest.raises(ValueError, match=r"n=512, rate=2\.0"):
            message_count(512, 2.0)
        with pytest.raises(ValueError, match=r"n=2048, rate=0\.75"):
            message_count(2048, 0.75)


class TestGenerateCodebooks:
    def test_shapes_and_sizes(self):
        policy = uniform_policy(2, nu=2)
        books = generate_codebooks(policy, 16, (4, 16, 16), np.random.default_rng(0))
        assert books.sizes == (4, 16, 16)
        assert books.t0.shape == (2, 4, 16)
        assert books.t1.shape == (2, 2, 16, 16)
        assert books.t2.shape == (2, 2, 2, 16, 16)

    def test_zero_rates_single_codeword(self):
        books = generate_codebooks(uniform_policy(2), 8, (1, 1, 1), np.random.default_rng(1))
        assert books.sizes == (1, 1, 1)

    def test_seed_reproducibility(self):
        p = uniform_policy(2, nu=2)
        a = generate_codebooks(p, 32, (9, 84, 84), np.random.default_rng(7))
        b = generate_codebooks(p, 32, (9, 84, 84), np.random.default_rng(7))
        assert np.array_equal(a.t0, b.t0)
        assert np.array_equal(a.t1, b.t1)
        assert np.array_equal(a.t2, b.t2)

    def test_point_mass_policy_constant_books(self):
        p = point_mass_policy(2)
        a = generate_codebooks(p, 16, (1, 16, 16), np.random.default_rng(3))
        b = generate_codebooks(p, 16, (1, 16, 16), np.random.default_rng(99))
        assert np.array_equal(a.t1, b.t1)  # degenerate sampling ignores the seed
        assert np.array_equal(a.t1[0, 0], np.zeros_like(a.t1[0, 0]))
        assert np.array_equal(a.t1[0, 1], np.ones_like(a.t1[0, 1]))

    def test_the_array_layout_is_the_stream_layout(self):
        # t0, t1 and t2, raveled in turn, are the inverse-CDF draws of one
        # rng.random(total) call cut into consecutive rows of M * n
        # uniforms, one per component row, t0's first; t2's 8 rows of
        # M2 * n uniforms take several draws of _DRAW_CHUNK
        rng = np.random.default_rng(20)
        k, nu, n, counts = 2, 2, 100, (3, 40, 90)
        policy = InputPolicy(
            _sparse_rows(rng, (k, nu), 0.3),
            _sparse_rows(rng, (nu, k, 3), 0.3),
            _sparse_rows(rng, (nu, k, k, 4), 0.3),
        )
        tables = (policy.pU, policy.pX1, policy.pX2)
        assert 8 * counts[2] * n > coding._DRAW_CHUNK
        books = generate_codebooks(policy, n, counts, np.random.default_rng(5))
        total = sum(t[..., 0].size * M * n for t, M in zip(tables, counts))
        u = np.random.default_rng(5).random(total).reshape(-1, n)
        refs, start = [], 0
        for table, M in zip(tables, counts):
            for row in table.reshape(-1, table.shape[-1]):
                refs.append(markov._inverse_cdf(u[start:start + M], np.cumsum(row)[:-1]).ravel())
                start += M
        got = np.concatenate([b.ravel() for b in (books.t0, books.t1, books.t2)])
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.concatenate(refs))

    def test_empirical_row_frequencies(self):
        # each codeword component is i.i.d. from its conditional row
        pU = np.array([[1.0], [1.0]])
        pX1 = np.array([[[0.3, 0.7], [0.8, 0.2]]])
        pX2 = np.full((1, 2, 2, 2), 0.5)
        policy = InputPolicy(pU, pX1, pX2)
        n = 10_000
        books = generate_codebooks(policy, n, (1, 1, 1), np.random.default_rng(5))
        for a in range(2):
            freq1 = (books.t1[0, a, 0, :] == 1).mean()
            p = pX1[0, a, 1]
            assert abs(freq1 - p) <= 3 * np.sqrt(p * (1 - p) / n)


class TestEncode:
    def test_all_fill_when_no_observation(self):
        books = generate_codebooks(uniform_policy(2), 8, (1, 2, 2), np.random.default_rng(0))
        x1, x2 = encode(books, 0, 0, 0, np.zeros(8, dtype=int), 8, 8)
        assert np.array_equal(x1, np.zeros(8, dtype=int))
        assert np.array_equal(x2, np.zeros(8, dtype=int))

    def test_single_state_collapse(self):
        books = generate_codebooks(uniform_policy(1), 12, (1, 8, 8), np.random.default_rng(2))
        x1, x2 = encode(books, 0, 2, 1, np.zeros(12, dtype=int), 0, 0)
        pos = np.arange(12)
        u = books.t0[0, 0, pos]
        assert np.array_equal(x1, books.t1[u, 0, 2, pos])
        assert np.array_equal(x2, books.t2[u, 0, 0, 1, pos])

    def test_manual_trace_two_states(self):
        # written-out codebooks, one message each, n = 3, delays (1, 0)
        policy = uniform_policy(2, nu=2)
        t0 = np.array([[[0, 1, 1]], [[1, 0, 1]]])          # t0[observed, 0, i]
        t1 = np.zeros((2, 2, 1, 3), dtype=np.int64)        # t1[u, observed, 0, i]
        t1[1, 1, 0, 1] = 1                                  # the one consulted cell at i=1
        t1[1, 0, 0, 2] = 1                                  # consulted at i=2
        t2 = np.zeros((2, 2, 2, 1, 3), dtype=np.int64)
        t2[1, 1, 0, 0, 1] = 1
        t2[1, 0, 1, 0, 2] = 0
        books = Codebooks(policy, t0, t1, t2, 3)
        x1, x2 = encode(books, 0, 0, 0, np.array([1, 0, 1]), 1, 0)
        # i=0: fill. i=1: observed=s[0]=1, u=t0[1,0,1]=0 -> x1=t1[0,1,0,1]=0,
        # x2=t2[0,1,0,0,1]=0. i=2: observed=s[1]=0, u=t0[0,0,2]=1 ->
        # x1=t1[1,0,0,2]=1, x2=t2[1,0,1,0,2]=0.
        assert np.array_equal(x1, [0, 0, 1])
        assert np.array_equal(x2, [0, 0, 0])

    @pytest.mark.parametrize("name,shape", [
        ("t0", (3, 2, 1)), ("t0", (2, 1)),                   # (M, n, k) layout; no state axis
        ("t1", (2, 2, 3, 1)), ("t1", (2, 2, 1, 4)),          # (M, n) swapped; wrong n
        ("t2", (2, 2, 2, 3, 1)), ("t2", (1, 2, 2, 1, 3)),    # (M, n) swapped; wrong |U|
    ])
    def test_book_shapes_checked(self, name, shape):
        # books must be (k, M0, n), (nu, k, M1, n) and (nu, k, k, M2, n); a
        # book in another layout would encode the wrong symbols
        policy = uniform_policy(2, nu=2)
        books = {"t0": np.zeros((2, 1, 3), int), "t1": np.zeros((2, 2, 1, 3), int),
                 "t2": np.zeros((2, 2, 2, 1, 3), int)}
        Codebooks(policy, *books.values(), 3)
        books[name] = np.zeros(shape, int)
        with pytest.raises(ValueError, match=name):
            Codebooks(policy, *books.values(), 3)

    def test_message_out_of_range(self):
        books = generate_codebooks(uniform_policy(2), 8, (1, 2, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="m1"):
            encode(books, 0, 99, 0, np.zeros(8, dtype=int), 1, 0)


def path_and_outputs(chain, channel, x1, x2, seed):
    """A stationary state path and the outputs for fixed input sequences."""
    rng = np.random.default_rng(seed)
    s = sample_state_path(chain, len(x1), rng)
    return s, coding._sample_outputs(channel, x1, x2, s, rng)


class TestSimulateChannel:
    def test_noiseless_copy(self):
        rng = np.random.default_rng(0)
        x1 = rng.integers(0, 2, 200)
        x2 = rng.integers(0, 2, 200)
        s, y = path_and_outputs(two_state(), copy_pair_channel(2), x1, x2, seed=4)
        assert np.array_equal(y, 2 * x1 + x2)
        assert set(np.unique(s)) <= {0, 1}

    def test_state_pair_frequencies(self):
        chain = two_state(0.2, 0.2)
        n = 100_000
        s, _ = path_and_outputs(
            chain, uniform_noise_channel(2), np.zeros(n, dtype=int), np.zeros(n, dtype=int), seed=8
        )
        pairs = np.zeros((2, 2))
        np.add.at(pairs, (s[:-1], s[1:]), 1.0)
        pairs /= n - 1
        target = chain.pi[:, None] * chain.K
        for a in range(2):
            for b in range(2):
                p = target[a, b]
                assert abs(pairs[a, b] - p) <= 3 * np.sqrt(p * (1 - p) / (n - 1))

    def test_fully_noisy_channel_no_information(self):
        rng = np.random.default_rng(1)
        x1 = rng.integers(0, 2, 50_000)
        _, y = path_and_outputs(
            single_state(), uniform_noise_channel(1), x1, np.zeros_like(x1), seed=2
        )
        # plug-in mutual information estimate, bits
        joint = np.zeros((2, 2))
        np.add.at(joint, (x1, y), 1.0)
        joint /= joint.sum()
        px = joint.sum(1, keepdims=True)
        py = joint.sum(0, keepdims=True)
        nz = joint > 0
        mi = (joint[nz] * np.log2(joint[nz] / (px @ py)[nz])).sum()
        assert mi < 5e-4

    def test_seed_determinism(self):
        x1 = np.zeros(64, dtype=int)
        a = path_and_outputs(two_state(), uniform_noise_channel(2), x1, x1, seed=11)
        b = path_and_outputs(two_state(), uniform_noise_channel(2), x1, x1, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _brute_force_typical(books, y, s, d1, d2, eps, joint):
    """(M0, M1, M2) mask of the candidates that pass the stated typicality
    test, recomputed one triplet, one position and one cell at a time:
    emp = count / m over the positions at and after d1, |emp - p| <= eps
    on positive cells and emp == 0 on null cells."""
    n = len(s)
    m_eff = n - d1
    cells = [(idx, float(p)) for idx, p in np.ndenumerate(joint.table)]
    typical = np.zeros(books.sizes, dtype=bool)
    for m0, m1, m2 in np.ndindex(*books.sizes):
        counts = {}
        for i in range(d1, n):
            a, b = s[i - d1], s[i - d2]
            u = books.t0[a, m0, i]
            x1, x2 = books.t1[u, a, m1, i], books.t2[u, a, b, m2, i]
            key = (u, x1, x2, s[i], a, b, y[i])
            counts[key] = counts.get(key, 0) + 1
        typical[m0, m1, m2] = all(
            abs(counts.get(idx, 0) / m_eff - p) <= eps if p > 0 else counts.get(idx, 0) == 0
            for idx, p in cells
        )
    return typical


def _decode_result(typical):
    """The DecodeResult a typicality mask decodes to."""
    ids = np.argwhere(typical)
    if len(ids) == 1:
        return coding.DecodeResult(True, tuple(int(m) for m in ids[0]), 1)
    return coding.DecodeResult(False, None, len(ids))


class TestDecodeJointTypicality:
    def _pipeline(self, chain, channel, policy, rates, n, d1, d2, seed, sent):
        rng = np.random.default_rng(seed)
        counts = tuple(message_count(n, r) for r in rates)
        books = generate_codebooks(policy, n, counts, rng)
        s = sample_state_path(chain, n, rng)
        x1, x2 = encode(books, *sent, s, d1, d2)
        y = coding._sample_outputs(channel, x1, x2, s, rng)
        joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
        return books, s, y, joint

    def test_noiseless_decodes_sent_triplet(self):
        chain, channel = two_state(), copy_pair_channel(2)
        policy = uniform_policy(2)
        sent = (0, 2, 1)
        books, s, y, joint = self._pipeline(
            chain, channel, policy, (0.0, 0.0625, 0.0625), 128, 2, 1, 5, sent
        )
        res = decode_joint_typicality(books, y, s, 2, 1, 0.15, joint)
        assert res.ok and res.triplet == sent

    def test_single_candidate_clean_channel(self):
        chain, channel = single_state(), copy_pair_channel(1)
        policy = uniform_policy(1)
        books, s, y, joint = self._pipeline(
            chain, channel, policy, (0.0, 0.0, 0.0), 128, 0, 0, 6, (0, 0, 0)
        )
        res = decode_joint_typicality(books, y, s, 0, 0, 0.2, joint)
        assert res.ok and res.triplet == (0, 0, 0)

    def test_exhaustive_oracle_agreement(self):
        chain, channel = two_state(), xor_bsc_channel(2, (0.1, 0.4))
        policy = uniform_policy(2, nu=2)
        n, d1, d2, eps = 8, 1, 0, 0.21
        books, s, y, joint = self._pipeline(
            chain, channel, policy, (0.125, 0.125, 0.125), n, d1, d2, 9, (1, 0, 1)
        )
        res = decode_joint_typicality(books, y, s, d1, d2, eps, joint)
        assert res == _decode_result(_brute_force_typical(books, y, s, d1, d2, eps, joint))

    def test_epsilon_validated(self):
        books = generate_codebooks(uniform_policy(1), 8, (1, 1, 1), np.random.default_rng(0))
        joint = assemble_joint(
            delayed_state_joint(single_state(), 0, 0), uniform_policy(1), copy_pair_channel(1)
        )
        z = np.zeros(8, dtype=int)
        with pytest.raises(ValueError, match="epsilon"):
            decode_joint_typicality(books, z, z, 0, 0, 0.0, joint)

    def test_triplet_cap_enforced(self):
        books = generate_codebooks(uniform_policy(1), 8, (1, 445, 445), np.random.default_rng(0))
        joint = assemble_joint(
            delayed_state_joint(single_state(), 0, 0), uniform_policy(1), copy_pair_channel(1)
        )
        z = np.zeros(8, dtype=int)
        with pytest.raises(ValueError, match="cap"):
            decode_joint_typicality(books, z, z, 0, 0, 0.05, joint)


class TestPassBoundCache:
    """The decoder computes its pass bounds once per (joint content, m_eff,
    epsilon): a second epsilon, a second n - d1 and a joint table changed
    in place each get fresh ones."""

    def test_each_new_key_computes_fresh_bounds(self, monkeypatch):
        calls = []
        pass_bounds = coding._pass_bounds

        def counted(p, m_eff, epsilon):
            calls.append((m_eff, epsilon))
            return pass_bounds(p, m_eff, epsilon)

        monkeypatch.setattr(coding, "_pass_bounds", counted)
        coding._cell_bounds.cache_clear()
        chain, channel, policy = two_state(), xor_bsc_channel(2, (0.1, 0.4)), uniform_policy(2, nu=2)
        n, d2, rng = 16, 0, np.random.default_rng(0)
        books = generate_codebooks(policy, n, (2, 2, 2), rng)
        s = sample_state_path(chain, n, rng)
        y = coding._sample_outputs(channel, *encode(books, 1, 0, 1, s, 1, d2), s, rng)
        joint = assemble_joint(delayed_state_joint(chain, 1, d2), policy, channel)
        other = assemble_joint(delayed_state_joint(two_state(0.4, 0.02), 1, d2), policy, channel)
        masks = []

        def decode(d1, eps):
            res = decode_joint_typicality(books, y, s, d1, d2, eps, joint)
            ref = _brute_force_typical(books, y, s, d1, d2, eps, joint)
            assert res == _decode_result(ref), (d1, eps)
            masks.append(ref)

        decode(1, 0.08)
        decode(1, 0.08)  # the same key: the cached bounds
        assert calls == [(15, 0.08)]
        decode(1, 0.12)
        decode(2, 0.12)
        assert calls == [(15, 0.08), (15, 0.12), (14, 0.12)]
        joint.table[...] = other.table  # the same object, another law
        decode(2, 0.12)
        assert calls == [(15, 0.08), (15, 0.12), (14, 0.12), (14, 0.12)]
        # each new key changes the decision, so stale bounds would show
        assert len({m.tobytes() for m in masks}) == 4
        lo, hi = coding._cell_bounds(joint.table, 14, 0.12)
        assert not (lo.flags.writeable or hi.flags.writeable)  # shared, so read-only


class TestTrialCallContract:
    """Each trial calls the module attributes sample_state_path, encode and
    decode_joint_typicality once each, in that order: perfbench's tracer
    wraps them and pairs each encode with the decode after it."""

    @pytest.mark.parametrize("pipeline", ["common", "conferencing"])
    def test_one_call_each_per_trial_in_order(self, monkeypatch, pipeline):
        log = []
        for name in ("sample_state_path", "encode", "decode_joint_typicality"):
            def counted(*args, _fn=getattr(coding, name), _name=name):
                result = _fn(*args)
                log.append((_name, args, result))
                return result

            monkeypatch.setattr(coding, name, counted)
        chain, channel = two_state(0.2, 0.1), xor_bsc_channel(2, (0.0, 0.2))
        policy, n, eps, trials = uniform_policy(2, nu=2), 16, 0.15, 7
        if pipeline == "common":
            est = estimate_error_rate(
                chain, channel, policy, (1 / 16, 1 / 16, 1 / 16), n, eps, trials, seed=5, d1=1
            )
        else:
            est = conferencing_error_rate(
                chain, channel, policy, (0.125, 0.125), ConferencingConfig(0.0625, 0.0), n, eps,
                trials, seed=8, d1=1, d2=1,
            )
        names = ["sample_state_path", "encode", "decode_joint_typicality"]
        assert [entry[0] for entry in log] == names * trials
        errors = 0
        for (_, _, s), (_, enc, _), (_, dec, result) in zip(*[iter(log)] * 3):
            books, m0, m1, m2, path = enc[:5]
            assert path is s and dec[2] is s and dec[0] is books  # one trial's arrays
            errors += result.triplet != (m0, m1, m2)
        assert errors == est.errors  # the outcomes the tracer sums


def _sparse_rows(rng, shape, zero_share):
    """Random distributions along the last axis, some entries set to zero."""
    w = rng.random(shape) * (rng.random(shape) >= zero_share)
    w[..., 0] += (w.sum(axis=-1) == 0)  # keep every row a distribution
    return w / w.sum(axis=-1, keepdims=True)


def _random_instance(rng, counts, nu=None, m_eff=None):
    """A random pipeline run: codebooks of the given sizes, a sent triplet,
    the state path and outputs, and the model joint law. nu fixes the
    auxiliary alphabet and m_eff the number of positions after d1."""
    k = int(rng.integers(1, 4))
    nu = int(rng.integers(1, 3)) if nu is None else nu
    nx1, nx2, ny = (int(v) for v in rng.integers(2, 4, size=3))
    d1 = int(rng.choice([0, 1, 3]))
    d2 = int(rng.integers(0, d1 + 1))
    n = int(rng.integers(2, 65))
    if m_eff is not None:
        d1 = n - m_eff
        d2 = int(rng.integers(0, d1 + 1))
    chain = MarkovChain([f"s{a}" for a in range(k)], _sparse_rows(rng, (k, k), 0.0))
    policy = InputPolicy(
        _sparse_rows(rng, (k, nu), 0.3),
        _sparse_rows(rng, (nu, k, nx1), 0.3),
        _sparse_rows(rng, (nu, k, k, nx2), 0.3),
    )
    if rng.random() < 0.4:  # noiseless: y is a function of (x1, x2, s)
        table = np.eye(ny)[rng.integers(0, ny, size=(nx1, nx2, k))]
    else:
        table = _sparse_rows(rng, (nx1, nx2, k, ny), 0.3)
    channel = DmcChannel(table)
    books = generate_codebooks(policy, n, counts, rng)
    sent = tuple(int(rng.integers(M)) for M in counts)
    s = sample_state_path(chain, n, rng)
    x1, x2 = encode(books, *sent, s, d1, d2)
    y = coding._sample_outputs(channel, x1, x2, s, rng)
    joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
    return books, y, s, d1, d2, joint


def _block_view(books, y, s, d1, d2, joint, eps):
    """The decoder's arguments (i, sd1, sd2, ctx, lo, hi), the pass bounds
    per cell (u, context, x1, x2), built as decode_joint_typicality builds
    them."""
    pol = books.policy
    k, ny = pol.n_states, joint.table.shape[-1]
    i, sd1, sd2 = coding._observed(s, d1, d2)
    ctx = ((s[i] * k + sd1) * k + sd2) * ny + y[i]
    p = joint.table.reshape(pol.n_u, pol.n_x1, pol.n_x2, -1).transpose(0, 3, 1, 2)
    return (i, sd1, sd2, ctx, *coding._pass_bounds(p, len(i), eps))


def _grid_mask(books, view):
    """The cell counter over every candidate triplet, as the decoder runs
    it below _MATMUL_MIN_PAIRS pairs."""
    grid = np.ix_(*(np.arange(M) for M in books.sizes))
    return coding._count_cells(books, grid, *view)


class TestDecoderKernels:
    """The cell counter against the brute-force test, and the screened
    path, which serves large books, against the counter on the grid."""

    @staticmethod
    def _decode_both(monkeypatch, books, y, s, d1, d2, eps, joint):
        results = []
        for threshold in (0, 1 << 30):  # screened for every size, then never
            monkeypatch.setattr(coding, "_MATMUL_MIN_PAIRS", threshold)
            results.append(decode_joint_typicality(books, y, s, d1, d2, eps, joint))
        return results

    def test_random_instances_agree(self, monkeypatch):
        rng = np.random.default_rng(2024)
        outcomes = {"unique": 0, "none": 0, "several": 0}
        for trial in range(240):
            counts = tuple(int(v) for v in rng.integers(1, 9, size=3))
            if trial % 6 == 0:
                counts = (counts[0], 1, counts[2])
            elif trial % 6 == 1:
                counts = (counts[0], counts[1], 1)
            books, y, s, d1, d2, joint = _random_instance(rng, counts)
            eps = float(rng.choice([0.02, 0.1, 0.25, 0.6]))
            fast, ref = self._decode_both(monkeypatch, books, y, s, d1, d2, eps, joint)
            assert fast == ref, (trial, counts, d1, d2, eps)
            if d1 < books.n:
                view = _block_view(books, y, s, d1, d2, joint, eps)
                masks = [coding._typical_screened(books, *view), _grid_mask(books, view)]
                assert np.array_equal(*masks), (trial, counts, d1, d2, eps)
            key = "unique" if ref.ok else ("none" if ref.n_typical == 0 else "several")
            outcomes[key] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_delay_beyond_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        books, y, s, _, _, joint = _random_instance(rng, (2, 3, 2))
        for d1 in (books.n, books.n + 3):
            for res in self._decode_both(monkeypatch, books, y, s, d1, 0, 0.1, joint):
                assert res == coding.DecodeResult(False, None, 0)

    @pytest.mark.parametrize("sizes", [(1, 8, 15), (1, 8, 16), (2, 16, 16), (1, 1, 200)])
    def test_both_sides_of_the_size_threshold(self, monkeypatch, sizes):
        # the default selection counts the grid below 128 pairs, screens from it
        rng = np.random.default_rng(sum(sizes))
        for _ in range(4):
            books, y, s, d1, d2, joint = _random_instance(rng, sizes)
            default = decode_joint_typicality(books, y, s, d1, d2, 0.25, joint)
            fast, ref = self._decode_both(monkeypatch, books, y, s, d1, d2, 0.25, joint)
            assert default == fast == ref

    def test_bincount_mask_matches_brute_force(self, monkeypatch):
        # the cell counter on the grid of every triplet and on candidate
        # lists, unsorted and with repeats: one m0 with lists of m1 and m2,
        # as the screened path passes its survivors, and lists of triplets
        rng = np.random.default_rng(31)
        default = coding._BINCOUNT_ELEMENTS
        mixed = 0
        for trial in range(36):
            M0 = 1 if trial % 3 == 0 else int(rng.integers(2, 6))
            counts = (M0, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            m_eff = 1 if trial % 4 == 0 else None  # d1 = n - 1: one decoded position
            books, y, s, d1, d2, joint = _random_instance(rng, counts, nu=2, m_eff=m_eff)
            eps = float(rng.choice([0.05, 0.15, 0.3, 0.6]))
            view = _block_view(books, y, s, d1, d2, joint, eps)
            ref = _brute_force_typical(books, y, s, d1, d2, eps, joint)
            length = 1 if trial % 2 else int(rng.integers(2, 3 * ref.size))
            m0 = np.full(1, rng.integers(M0))
            m1s, m2s = (rng.integers(M, size=length) for M in counts[1:])
            triplets = tuple(rng.integers(M, size=length) for M in counts)
            # one chunk of common messages, then chunks of one, then of two
            n_cells = joint.table.size
            per_m0 = counts[1] * counts[2] * max(len(view[0]), n_cells)
            for budget in (default, 1, 2 * per_m0):
                monkeypatch.setattr(coding, "_BINCOUNT_ELEMENTS", budget)
                key = (trial, counts, d1, d2, eps, length, budget)
                assert np.array_equal(_grid_mask(books, view), ref), key
                survivors = coding._count_cells(books, (m0, m1s, m2s), *view)
                assert np.array_equal(survivors, ref[m0, m1s, m2s]), key
                assert np.array_equal(coding._count_cells(books, triplets, *view), ref[triplets]), key
            mixed += 0 < ref.sum() < ref.size
        assert mixed >= 8

    def test_pass_bounds_match_the_stated_test(self):
        rng = np.random.default_rng(3)
        for m_eff in (1, 2, 7, 64, 255, 512):
            for eps in (1e-4, 0.49 / m_eff, 0.5 / m_eff, 1 / m_eff, 0.01, 0.07, 0.2, 1.5, 1e300):
                c = rng.integers(0, m_eff + 1, size=40)
                # probabilities at, just off and far from the band edges c/m +- eps
                edges = np.concatenate([c / m_eff + eps, c / m_eff - eps])
                p = np.concatenate([
                    edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0),
                    (c + 0.5) / m_eff, rng.random(40), [0.0, 1.0, eps, 2 * eps, 1e-300],
                ])
                p = p[(p >= 0) & (p <= 1)]
                lo, hi = coding._pass_bounds(p.reshape(-1, 1), m_eff, eps)
                assert lo.shape == hi.shape == (len(p), 1)
                counts = np.arange(m_eff + 1)
                emp = counts / m_eff
                for pj, lj, hj in zip(p, lo[:, 0], hi[:, 0]):
                    ok = np.abs(emp - pj) <= eps if pj > 0 else emp == 0.0
                    assert np.array_equal(ok, (counts >= lj) & (counts <= hj)), (m_eff, eps, pj)

    @pytest.mark.parametrize("counts", [(2, 3, 4), (2, 12, 12)])
    def test_symbol_arithmetic_past_one_byte(self, monkeypatch, counts):
        # |U| = k = 3 and |Y| = 5: 135 contexts, so the group and cell
        # indices (u * 135 + ctx, ...) exceed 255 while the books hold bytes;
        # 12 pairs are counted on the grid, 144 are screened, and their
        # survivors counted as a list and then every pair with products
        k, nu, nx1, nx2, ny = 3, 3, 2, 2, 5
        n, d1, d2, eps = 24, 1, 0, 0.15
        for seed in range(4):
            rng = np.random.default_rng(seed)
            chain = MarkovChain(["a", "b", "c"], _sparse_rows(rng, (k, k), 0.0))
            policy = InputPolicy(
                np.full((k, nu), 1 / nu),
                _sparse_rows(rng, (nu, k, nx1), 0.3),
                _sparse_rows(rng, (nu, k, k, nx2), 0.3),
            )
            channel = DmcChannel(np.eye(ny)[rng.integers(0, ny, size=(nx1, nx2, k))])
            books = generate_codebooks(policy, n, counts, rng)
            assert books.t0.dtype == books.t1.dtype == books.t2.dtype == np.uint8
            sent = tuple(int(rng.integers(M)) for M in counts)
            s = sample_state_path(chain, n, rng)
            x1, x2 = encode(books, *sent, s, d1, d2)
            y = coding._sample_outputs(channel, x1, x2, s, rng)
            joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
            view = _block_view(books, y, s, d1, d2, joint, eps)
            assert (books.t0[view[1], :, view[0]] == nu - 1).any()  # u * 135 > 255
            ref = _brute_force_typical(books, y, s, d1, d2, eps, joint)
            assert ref[sent], seed  # noiseless: the sent triplet is typical
            if counts[1] * counts[2] < coding._MATMUL_MIN_PAIRS:
                assert np.array_equal(_grid_mask(books, view), ref), seed
            else:
                for entries in (1 << 30, 0):  # a pair list, then products
                    monkeypatch.setattr(coding, "_PAIR_LIST_MAX_ENTRIES", entries)
                    assert np.array_equal(coding._typical_screened(books, *view), ref), seed
                monkeypatch.undo()
            assert decode_joint_typicality(books, y, s, d1, d2, eps, joint) == _decode_result(ref)

    # instances for the screened path, M1 * M2 >= 128, with
    # uniform inputs: (chain, channel, nu, counts, n, d1, d2, epsilon)
    PARITY, BSC = gated_parity_channel(), xor_bsc_channel(2, (0.1, 0.4))
    SCREENED = {
        # mostly state 0: every pair but the sent one, or none, is screened out
        "parity-few": (two_state(g=0.8, b=0.5), PARITY, 1, (1, 12, 12), 48, 1, 1, 0.07),
        # mostly state 1: a few parity positions, many survivors
        "parity-many": (two_state(g=0.02, b=0.3), PARITY, 1, (1, 16, 16), 40, 2, 1, 0.1),
        # nu = 2 and M0 > 1: a wrong common message changes every group
        "parity-nu2": (two_state(g=0.5, b=0.1), PARITY, 2, (3, 12, 12), 32, 1, 0, 0.15),
        # m_eff = 1: every positive cell with p + epsilon < 1 has hi == 0
        "single-position": (two_state(0.5, 0.5), BSC, 1, (2, 12, 12), 24, 23, 1, 0.975),
        # d1 = d2 = 0 and state 1 rare: its cells have p > epsilon but
        # m_eff * (p + epsilon) < 1, so no count passes (hi < 0): every pair
        # is screened out, the sent one too, which avoids every null cell
        "p-above-epsilon": (two_state(g=0.9, b=0.1), PARITY, 1, (1, 12, 12), 40, 0, 0, 0.005),
        # full support and m_eff * epsilon >= 1: no forbidden cell
        "no-forbidden": (two_state(), BSC, 1, (1, 12, 12), 40, 1, 1, 0.1),
    }

    @staticmethod
    def _screened_run(chain, channel, policy, counts, n, d1, d2, seed):
        rng = np.random.default_rng(seed)
        books = generate_codebooks(policy, n, counts, rng)
        sent = tuple(int(rng.integers(M)) for M in counts)
        s = sample_state_path(chain, n, rng)
        x1, x2 = encode(books, *sent, s, d1, d2)
        y = coding._sample_outputs(channel, x1, x2, s, rng)
        joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
        return books, y, s, joint

    @staticmethod
    def _screen_per_m0(monkeypatch, books, y, s, d1, d2, joint, eps):
        """For each m0, the screen on all post-delay positions, its forbidden
        cells taken from the pass bounds (hi <= 0) of each position's group,
        and the symbols from encode, against a position-by-position check;
        in one chunk of positions and in chunks of one."""
        view = _block_view(books, y, s, d1, d2, joint, eps)
        i, sd1, _, ctx, _, hi = view
        M0, M1, M2 = books.sizes
        pos = np.arange(len(i))  # the symbol arrays below are their own books
        keeps = []
        for m0 in range(M0):
            u = books.t0[sd1, m0, i]
            forbidden = hi[u, ctx] <= 0  # (positions, nx1, nx2)
            x1 = np.array([encode(books, m0, m1, 0, s, d1, d2)[0][d1:] for m1 in range(M1)])
            x2 = np.array([encode(books, m0, 0, m2, s, d1, d2)[1][d1:] for m2 in range(M2)])
            hit = forbidden[np.arange(len(i)), x1[:, None, :], x2[None, :, :]].any(axis=-1)
            for budget in (coding._SCREEN_BYTES, 1):
                monkeypatch.setattr(coding, "_SCREEN_BYTES", budget)
                keep = coding._screen(forbidden, x1, x2, pos, pos)
                monkeypatch.undo()
                assert np.array_equal(keep, ~hit)
            keeps.append(~hit)
        return np.array(keeps), view

    @pytest.mark.parametrize("case", list(SCREENED))
    def test_screened_matmul_matches_brute_force(self, monkeypatch, case):
        chain, channel, nu, counts, n, d1, d2, eps = self.SCREENED[case]
        policy = uniform_policy(2, nu=nu)
        calls = {"pairs": 0, "groups": 0}
        count_cells, count_groups = coding._count_cells, coding._count_groups

        def pairs(books, cands, *args):
            calls["pairs"] += cands[1].size > 0
            return count_cells(books, cands, *args)

        def groups(t1, t2, *args):
            calls["groups"] += 1
            return count_groups(t1, t2, *args)

        survivors = []
        for seed in range(4):
            books, y, s, joint = self._screened_run(chain, channel, policy, counts, n, d1, d2, seed)
            ref = _brute_force_typical(books, y, s, d1, d2, eps, joint)
            keeps, view = self._screen_per_m0(monkeypatch, books, y, s, d1, d2, joint, eps)
            # the screen never drops a pair the stated test accepts
            assert not (ref & ~keeps).any(), (case, seed)
            assert np.array_equal(_grid_mask(books, view), ref), (case, seed)
            # the survivors counted as a list, then every pair with
            # products, then in chunks of one pair and one position
            for entries, budget in ((1 << 30, None), (0, None), (1 << 30, 1)):
                monkeypatch.setattr(coding, "_count_cells", pairs)
                monkeypatch.setattr(coding, "_count_groups", groups)
                monkeypatch.setattr(coding, "_PAIR_LIST_MAX_ENTRIES", entries)
                if budget:
                    monkeypatch.setattr(coding, "_BINCOUNT_ELEMENTS", budget)
                    monkeypatch.setattr(coding, "_SCREEN_BYTES", budget)
                mask = coding._typical_screened(books, *view)
                monkeypatch.undo()
                assert np.array_equal(mask, ref), (case, seed, entries, budget)
            assert decode_joint_typicality(books, y, s, d1, d2, eps, joint) == _decode_result(ref)
            survivors += [int(k.sum()) for k in keeps]
        # each case reaches the regimes it was built for: no survivor, a
        # few, many, and no screen at all
        pairs_per_m0 = counts[1] * counts[2]
        if case == "no-forbidden":
            assert set(survivors) == {pairs_per_m0}
            assert calls["pairs"] == 0 < calls["groups"], calls
            return
        if case == "p-above-epsilon":
            # nothing is left to count: the cells with hi < 0 are screened
            assert set(survivors) == {0}
            assert calls == {"pairs": 0, "groups": 0}, calls
            return
        assert calls["pairs"] > 0 and calls["groups"] > 0, calls
        if case == "parity-few":
            assert 0 < min(survivors) and max(survivors) <= 4, survivors
        elif case == "parity-many":
            assert any(pairs_per_m0 // 8 <= v < pairs_per_m0 for v in survivors), survivors
        else:
            assert 0 in survivors and max(survivors) < pairs_per_m0, survivors


# The per-step samplers the trial used before it drew everything through
# markov._inverse_cdf; they are the oracles for the vectorized ones.


def _categorical(u, probs):
    """Inverse-CDF draws in plain numpy: for each uniform, the number of
    cumulative masses of its row of probs, less the last, at or below it."""
    return (u[..., None] >= np.cumsum(probs, axis=-1)[..., :-1]).sum(-1)


def _oracle_rows(rng, probs, shape):
    cum = np.cumsum(probs)
    u = rng.random(shape)
    return np.searchsorted(cum, u, side="right").astype(np.int64).clip(0, len(probs) - 1)


def _oracle_books(policy, n, counts, rng):
    k, nu = policy.n_states, policy.n_u
    m0, m1, m2 = counts
    t0 = np.empty((k, m0, n), dtype=np.int64)
    for a in range(k):
        t0[a] = _oracle_rows(rng, policy.pU[a], (m0, n))
    t1 = np.empty((nu, k, m1, n), dtype=np.int64)
    for u in range(nu):
        for a in range(k):
            t1[u, a] = _oracle_rows(rng, policy.pX1[u, a], (m1, n))
    t2 = np.empty((nu, k, k, m2, n), dtype=np.int64)
    for u in range(nu):
        for a in range(k):
            for b in range(k):
                t2[u, a, b] = _oracle_rows(rng, policy.pX2[u, a, b], (m2, n))
    return t0, t1, t2


def _oracle_path(chain, n, rng):
    pi = chain.pi
    cum_rows = np.cumsum(chain.K, axis=1)
    path = np.empty(n, dtype=np.int64)
    if n == 0:
        return path
    u = rng.random(n)
    path[0] = np.searchsorted(np.cumsum(pi), u[0], side="right")
    for i in range(1, n):
        path[i] = np.searchsorted(cum_rows[path[i - 1]], u[i], side="right")
    np.clip(path, 0, chain.k - 1, out=path)
    return path


def _oracle_outputs(channel, x1, x2, s, rng):
    probs = channel.table[x1, x2, s]
    cum = np.cumsum(probs, axis=1)
    u = rng.random(len(x1))
    y = (u[:, None] > cum).sum(axis=1)
    return np.minimum(y, channel.n_y - 1).astype(np.int64)


def _rows(rng, shape, quarter):
    """Random distributions along the last axis: multiples of 1/4 (exact
    cumulative sums, zeros in most rows) or sparse reals."""
    if quarter:
        return rng.multinomial(4, np.full(shape[-1], 1 / shape[-1]), size=shape[:-1]) / 4
    return _sparse_rows(rng, shape, 0.3)


def _check_chunked_draws(monkeypatch, chunk):
    """Books drawn with _DRAW_CHUNK set from `chunk` against the per-row
    oracle, on random tables of several rows."""
    rng = np.random.default_rng(19)
    for trial in range(6):
        k, nu = int(rng.integers(2, 4)), int(rng.integers(1, 3))  # several rows per table
        nx1, nx2 = (int(v) for v in rng.integers(1, 4, size=2))
        n = int(rng.integers(1, 12))
        counts = tuple(int(v) for v in rng.integers(1, 6, size=3))
        policy = InputPolicy(
            _sparse_rows(rng, (k, nu), 0.3),
            _sparse_rows(rng, (nu, k, nx1), 0.3),
            _sparse_rows(rng, (nu, k, k, nx2), 0.3),
        )
        size = max(counts) * n
        draw = {
            "1": 1, "7": 7, "M*n-1": max(size - 1, 1), "M*n+1": size + 1, "2*M*n+1": 2 * size + 1,
        }[chunk]
        monkeypatch.setattr(coding, "_DRAW_CHUNK", draw)
        seed = int(rng.integers(1 << 31))
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        books = generate_codebooks(policy, n, counts, ra)
        refs = _oracle_books(policy, n, counts, rb)
        for got, ref in zip((books.t0, books.t1, books.t2), refs):
            assert got.dtype == np.uint8, (chunk, trial)
            assert np.array_equal(got, ref), (chunk, trial)
        assert ra.random() == rb.random(), (chunk, trial)


class TestSamplersAgainstOracles:
    def test_trial_draws_match_per_step_samplers(self):
        rng = np.random.default_rng(77)
        for trial in range(240):
            quarter = trial % 3 == 0
            k = int(rng.integers(1, 5))
            nu = int(rng.integers(1, 3))
            nx1, nx2, ny = (int(v) for v in rng.integers(1, 4, size=3))
            n = int(rng.integers(1, 301))
            counts = tuple(int(v) for v in rng.integers(1, 21, size=3))
            while True:  # the chain must be irreducible and aperiodic
                try:
                    chain = MarkovChain([f"s{a}" for a in range(k)], _rows(rng, (k, k), quarter))
                    break
                except ValueError:
                    pass
            policy = InputPolicy(
                _rows(rng, (k, nu), quarter),
                _rows(rng, (nu, k, nx1), quarter),
                _rows(rng, (nu, k, k, nx2), quarter),
            )
            channel = DmcChannel(_rows(rng, (nx1, nx2, k, ny), quarter))
            d2 = int(rng.integers(0, 3))
            d1 = d2 + int(rng.integers(0, 3))
            seed = int(rng.integers(1 << 31))
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)

            # the trial's order: codebooks, sent triplet, state path, outputs
            books = generate_codebooks(policy, n, counts, ra)
            sent = tuple(int(ra.integers(M)) for M in counts)
            s = sample_state_path(chain, n, ra)
            x1, x2 = encode(books, *sent, s, d1, d2)
            y = coding._sample_outputs(channel, x1, x2, s, ra)

            t0, t1, t2 = _oracle_books(policy, n, counts, rb)
            assert tuple(int(rb.integers(M)) for M in counts) == sent
            s_ref = _oracle_path(chain, n, rb)
            y_ref = _oracle_outputs(channel, x1, x2, s_ref, rb)
            # the books hold one byte per symbol, the path and outputs int64
            for got, ref in zip((books.t0, books.t1, books.t2), (t0, t1, t2)):
                assert got.dtype == np.uint8, trial
                assert np.array_equal(got, ref), trial
            for got, ref in zip((s, y), (s_ref, y_ref)):
                assert got.dtype == ref.dtype == np.int64, trial
                assert np.array_equal(got, ref), trial
            assert ra.random() == rb.random(), trial

    @pytest.mark.parametrize("chunk", ["1", "7", "M*n-1", "M*n+1", "2*M*n+1"])
    def test_chunked_draws_keep_the_stream(self, monkeypatch, chunk):
        # chunks smaller than one row's block, not dividing it, holding one
        # row but not two, and two rows; M*n is the largest book's block
        _check_chunked_draws(monkeypatch, chunk)

    def test_large_alphabets(self):
        # 256 symbols of X1 still fit one byte, 257 take two; both through
        # the grid count and the screened path (which counts a pair list
        # here), against the stated test: a symbol times |X2| passes 255
        rng = np.random.default_rng(4)
        chain, n, sent, d1, d2, eps = two_state(), 40, (0, 2, 1), 1, 1, 0.2
        for nx, dtype in ((256, np.uint8), (257, np.uint16)):
            row = np.append(np.full(nx - 1, 0.5 / (nx - 1)), 0.5)  # the widest symbol half the time
            policy = InputPolicy(
                np.full((2, 1), 1.0), np.tile(row, (1, 2, 1)), np.full((1, 2, 2, 2), 0.5)
            )
            counts, seed = (1, 3, 2), int(rng.integers(1 << 31))
            books = generate_codebooks(policy, n, counts, np.random.default_rng(seed))
            assert (books.t0.dtype, books.t1.dtype) == (np.uint8, dtype)
            refs = _oracle_books(policy, n, counts, np.random.default_rng(seed))
            for got, ref in zip((books.t0, books.t1, books.t2), refs):
                assert np.array_equal(got, ref), nx
            assert books.t1.max() == nx - 1  # the widest symbol is drawn
            channel = DmcChannel(np.eye(2)[rng.integers(0, 2, size=(nx, 2, 2))])
            s = sample_state_path(chain, n, rng)
            x1, x2 = encode(books, *sent, s, d1, d2)
            y = coding._sample_outputs(channel, x1, x2, s, rng)
            joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
            ref = _brute_force_typical(books, y, s, d1, d2, eps, joint)
            assert ref[sent], nx
            view = _block_view(books, y, s, d1, d2, joint, eps)
            assert np.array_equal(_grid_mask(books, view), ref), nx
            assert np.array_equal(coding._typical_screened(books, *view), ref), nx


    @pytest.mark.parametrize("nx", [2, 3, 257])
    @pytest.mark.parametrize("layout", ["whole rows", "split rows"])
    def test_tables_past_the_draw_chunk(self, nx, layout):
        # tables of more than _DRAW_CHUNK uniforms at its shipped size: as
        # chunks of several whole rows (M * n <= _DRAW_CHUNK / 2), or with
        # every row split (M * n > _DRAW_CHUNK); 257 symbols take uint16 books
        rng = np.random.default_rng(nx)
        n = 512
        M = coding._DRAW_CHUNK // (2 * n) if layout == "whole rows" else coding._DRAW_CHUNK // n + 3
        policy = InputPolicy(
            _sparse_rows(rng, (2, 2), 0.3),
            _sparse_rows(rng, (2, 2, nx), 0.3),
            _sparse_rows(rng, (2, 2, 2, nx), 0.3),
        )
        counts = (3, M, M)
        assert M * n * 8 > coding._DRAW_CHUNK  # t2's 8 rows take several draws
        assert (2 * M * n <= coding._DRAW_CHUNK) == (layout == "whole rows")
        seed = int(rng.integers(1 << 31))
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        books = generate_codebooks(policy, n, counts, ra)
        refs = _oracle_books(policy, n, counts, rb)
        dtype = np.uint8 if nx <= 256 else np.uint16
        assert (books.t0.dtype, books.t1.dtype, books.t2.dtype) == (np.uint8, dtype, dtype)
        for got, ref in zip((books.t0, books.t1, books.t2), refs):
            assert np.array_equal(got, ref), (nx, layout)
        assert ra.random() == rb.random()

    @pytest.mark.parametrize("ny", [1, 2, 3, 257])
    def test_outputs_match_categorical(self, ny):
        # the channel rows' cumulative masses are cached per table: the
        # draws are the inverse-CDF draws of the gathered rows
        rng = np.random.default_rng(ny)
        k, nx1, nx2, n = 3, 2, 3, 400
        channel = DmcChannel(_sparse_rows(rng, (nx1, nx2, k, ny), 0.3))
        x1, x2, s = rng.integers(0, nx1, n), rng.integers(0, nx2, n), rng.integers(0, k, n)
        seed = int(rng.integers(1 << 31))
        y = coding._sample_outputs(channel, x1, x2, s, np.random.default_rng(seed))
        ref = _categorical(np.random.default_rng(seed).random(n), channel.table[x1, x2, s])
        assert y.dtype == np.int64
        assert np.array_equal(y, ref)
        assert ny == 1 or len(np.unique(y)) > 1

    @pytest.mark.parametrize("jump", [1, 2, 4, 64, None])
    def test_path_jumps_match_the_walk(self, monkeypatch, jump):
        # the path from its jump tables, for walks of every stride, against
        # the per-step walk; None keeps the shipped stride. The lengths
        # divide the stride, fall short of it and pass it
        if jump is not None:
            monkeypatch.setattr(markov, "_PATH_JUMP", jump)
        rng = np.random.default_rng(jump or 0)
        for k in (1, 2, 3, 5):
            K = _sparse_rows(rng, (k, k), 0.0)
            chain = MarkovChain([f"s{a}" for a in range(k)], K)
            for n in (1, 2, 5, 64, 130, 1000):
                seed = int(rng.integers(1 << 31))
                ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
                s = sample_state_path(chain, n, ra)
                assert s.dtype == np.int64
                assert np.array_equal(s, _oracle_path(chain, n, rb)), (jump, k, n)
                assert ra.random() == rb.random()


def _replay(chain, channel, policy, counts, n, d1, d2, eps, trials, seed, draw):
    """The Monte Carlo trial loop rebuilt from the per-step samplers and the
    brute-force decoder: (errors, none, several, wrong)."""
    joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
    none = several = wrong = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))
        books = Codebooks(policy, *_oracle_books(policy, n, counts, rng), n)
        sent = draw(rng)
        s = _oracle_path(chain, n, rng)
        x1, x2 = encode(books, *sent, s, d1, d2)
        y = _oracle_outputs(channel, x1, x2, s, rng)
        res = _decode_result(_brute_force_typical(books, y, s, d1, d2, eps, joint))
        none += res.n_typical == 0
        several += res.n_typical > 1
        wrong += res.ok and res.triplet != sent
    return none + several + wrong, none, several, wrong


def _uniform_index(rng, size):
    return int(rng.integers(size)) if size > 1 else 0


class TestTrialReplay:
    """Both error-rate pipelines against a replay of every trial from the
    per-step samplers and the brute-force decoder, outcome by outcome."""

    @staticmethod
    def _taxonomy(est):
        return est.errors, est.none, est.several, est.wrong

    @pytest.mark.parametrize("case", ["two-state", "three-state"])
    def test_common_message_pipeline(self, case):
        if case == "two-state":
            chain, channel = two_state(0.2, 0.1), xor_bsc_channel(2, (0.0, 0.2))
            policy, rates = uniform_policy(2, nu=2), (1 / 16, 1 / 16, 1 / 16)
            d1, d2 = 1, 0
        else:  # sparse policy rows and a noiseless channel: null cells
            chain = MarkovChain(
                ["a", "b", "c"], [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]
            )
            rng = np.random.default_rng(6)
            policy = InputPolicy(
                _sparse_rows(rng, (3, 2), 0.3), _sparse_rows(rng, (2, 3, 2), 0.3),
                _sparse_rows(rng, (2, 3, 3, 2), 0.3),
            )
            channel = DmcChannel(np.eye(2)[rng.integers(0, 2, size=(2, 2, 3))])
            rates, d1, d2 = (0.1, 0.1, 0.0), 2, 1
        n, eps, trials = 16, 0.15, 12
        counts = tuple(message_count(n, r) for r in rates)
        est = estimate_error_rate(
            chain, channel, policy, rates, n, eps, trials, seed=5, d1=d1, d2=d2
        )

        def draw(rng):
            return tuple(_uniform_index(rng, M) for M in counts)

        ref = _replay(chain, channel, policy, counts, n, d1, d2, eps, trials, 5, draw)
        assert self._taxonomy(est) == ref
        assert 0 < ref[0] < trials and ref[1] > 0 and ref[2] > 0

    @pytest.mark.parametrize("case", ["one-state", "one-position"])
    def test_edge_instances_in_small_draws(self, monkeypatch, case):
        # k = 1, and n = d1 + 1 (one decoded position), with every codebook
        # table drawn in chunks of 5 uniforms
        if case == "one-state":
            chain, channel = single_state(), xor_bsc_channel(1, (0.1,))
            rates, n, d1, d2, eps = (0.0, 1 / 16, 1 / 16), 48, 0, 0, 0.05
        else:
            chain, channel = two_state(0.2, 0.1), xor_bsc_channel(2, (0.0, 0.2))
            rates, n, d1, d2, eps = (0.5, 0.5, 0.5), 4, 3, 1, 0.95
        policy, trials = uniform_policy(chain.k, nu=2), 12
        counts = tuple(message_count(n, r) for r in rates)
        monkeypatch.setattr(coding, "_DRAW_CHUNK", 5)
        est = estimate_error_rate(
            chain, channel, policy, rates, n, eps, trials, seed=3, d1=d1, d2=d2
        )

        def draw(rng):
            return tuple(_uniform_index(rng, M) for M in counts)

        ref = _replay(chain, channel, policy, counts, n, d1, d2, eps, trials, 3, draw)
        assert self._taxonomy(est) == ref
        if case == "one-state":  # every outcome but a correct decode
            assert min(ref[1:]) > 0, ref
        else:  # one position cannot single out one of 64 candidates
            assert ref[1] > 0 and ref[2] > 0, ref

    def test_conferencing_pipeline(self):
        chain, channel = two_state(0.2, 0.1), xor_bsc_channel(2, (0.0, 0.2))
        policy, rates = uniform_policy(2, nu=2), (0.125, 0.125)
        conf = ConferencingConfig(0.0625, 0.0)
        n, d1, d2, eps, trials = 16, 1, 1, 0.15, 12
        est = conferencing_error_rate(
            chain, channel, policy, rates, conf, n, eps, trials, seed=8, d1=d1, d2=d2
        )
        M1, M2 = (message_count(n, r) for r in rates)

        def draw(rng):
            sm = split_messages(_uniform_index(rng, M1), _uniform_index(rng, M2), rates, conf, n)
            c1, c2 = sm.m0_prime
            return (c1 * sm.n_cells2 + c2, sm.m1_prime, sm.m2_prime)

        counts = coding.conferencing_counts(n, rates, conf)
        assert counts == (2, 2, 4)  # user 1 shares one bit of its message
        ref = _replay(chain, channel, policy, counts, n, d1, d2, eps, trials, 8, draw)
        assert self._taxonomy(est) == ref
        assert 0 < ref[0] < trials and min(ref[1:]) > 0


class TestDecoderCaps:
    def test_error_rates_reject_before_building_codebooks(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("codebooks were allocated")

        monkeypatch.setattr(coding, "generate_codebooks", fail)
        chain, channel, policy = two_state(), xor_bsc_channel(2, (0.1, 0.4)), uniform_policy(2)
        with pytest.raises(ValueError, match="cap"):
            estimate_error_rate(chain, channel, policy, (0.0, 0.5, 0.5), 64, 0.1, 1, seed=0)
        with pytest.raises(ValueError, match="cap"):
            conferencing_error_rate(
                chain, channel, policy, (0.5, 0.5), ConferencingConfig(0.1, 0.1), 64, 0.1, 1,
                seed=0,
            )
        with pytest.raises(ValueError, match="blocklength"):
            estimate_error_rate(chain, channel, policy, (0.0, 0.0, 0.0), 1024, 0.1, 1, seed=0)

    @pytest.mark.parametrize("d1,d2", [(8, 0), (9, 2), (math.inf, 0), (1, 2), (2, -1)])
    def test_error_rates_reject_a_block_within_the_delay(self, monkeypatch, d1, d2):
        # a block of n <= d1 decodes no position, so every trial would be an
        # error: n = 8, d1 = 8 read p_e = 1.0 from 5 trials, all `none`
        def fail(*args, **kwargs):
            raise AssertionError("codebooks were allocated")

        monkeypatch.setattr(coding, "generate_codebooks", fail)
        chain, channel, policy = two_state(), xor_bsc_channel(2, (0.1, 0.4)), uniform_policy(2)
        with pytest.raises(ValueError, match=f"d1={d1}"):
            estimate_error_rate(chain, channel, policy, (0.0, 0.0, 0.0), 8, 0.1, 5, seed=0,
                                d1=d1, d2=d2)
        with pytest.raises(ValueError, match=f"d1={d1}"):
            conferencing_error_rate(chain, channel, policy, (0.0, 0.0), ConferencingConfig(),
                                    8, 0.1, 5, seed=0, d1=d1, d2=d2)

    def test_split_counts_are_the_conferencing_books(self):
        # 2^(64*0.25) messages per user; c = 0.125 shares 2^8 cells of each
        counts = coding.conferencing_counts(64, (0.25, 0.25), ConferencingConfig(0.125, 0.125))
        assert counts == (2**16, 2**8, 2**8)
        coding.check_decoder_caps(512, (1, 2**8, 2**8))
        with pytest.raises(ValueError, match="cap"):
            coding.check_decoder_caps(64, counts)


class TestEstimateErrorRate:
    def test_zero_rates_noiseless(self):
        est = estimate_error_rate(
            two_state(), copy_pair_channel(2), uniform_policy(2),
            (0.0, 0.0, 0.0), 128, 0.15, 30, seed=0, d1=1, d2=0,
        )
        assert est.p_e == 0.0
        assert est.ci_low == 0.0

    def test_fully_noisy_positive_rate(self):
        est = estimate_error_rate(
            single_state(), uniform_noise_channel(1), uniform_policy(1),
            (0.0, 2 / 32, 2 / 32), 32, 0.05, 50, seed=1,
        )
        assert est.p_e >= 0.9

    def test_seed_determinism(self):
        args = (
            two_state(), xor_bsc_channel(2, (0.1, 0.45)), uniform_policy(2),
            (0.0, 1 / 64, 1 / 64), 64, 0.05, 30,
        )
        a = estimate_error_rate(*args, seed=3, d1=2, d2=2)
        b = estimate_error_rate(*args, seed=3, d1=2, d2=2)
        assert a == b

    def test_error_taxonomy_sums_to_errors(self):
        args = (two_state(), xor_bsc_channel(2, (0.1, 0.45)), uniform_policy(2))
        common = estimate_error_rate(
            *args, (0.0, 2 / 32, 2 / 32), 32, 0.08, 40, seed=2, d1=1, d2=0
        )
        conf = conferencing_error_rate(
            *args, (2 / 32, 2 / 32), ConferencingConfig(0.03, 0.0), 32, 0.08, 40, seed=2,
            d1=1, d2=0,
        )
        for est in (common, conf):
            assert est.errors > 0
            assert est.none + est.several + est.wrong == est.errors

    def test_wilson_interval_brackets(self):
        est = estimate_error_rate(
            single_state(), uniform_noise_channel(1), uniform_policy(1),
            (0.0, 1 / 16, 0.0), 16, 0.08, 60, seed=5,
        )
        assert 0.0 <= est.ci_low <= est.p_e <= est.ci_high <= 1.0


class TestSplitMessages:
    def test_full_sharing(self):
        conf = ConferencingConfig(1.0, 1.0)
        sm = split_messages(5, 3, (0.5, 0.25), conf, 8)  # counts 16 and 4
        assert sm.m1_prime == 0 and sm.m2_prime == 0
        assert sm.m0_prime == (5, 3)
        assert (sm.n_cells1, sm.n_cells2) == (16, 4)

    def test_zero_links_identity(self):
        conf = ConferencingConfig(0.0, 0.0)
        sm = split_messages(5, 3, (0.5, 0.25), conf, 8)
        assert sm.m0_prime == (0, 0)
        assert (sm.m1_prime, sm.m2_prime) == (5, 3)

    def test_cells_and_roundtrip_256(self):
        conf = ConferencingConfig(1.0, 0.0)
        for m1 in range(256):
            sm = split_messages(m1, 0, (2.0, 0.0), conf, 4)
            assert sm.n_cells1 == 16 and sm.idx_size1 == 16
            assert merge_messages(sm) == (m1, 0)

    def test_exhaustive_bijection_small_blocks(self):
        for n in range(1, 7):
            for r1, r2 in [(0.5, 0.3), (1.0, 0.0), (0.7, 0.7), (0.9, 0.2)]:
                for c12, c21 in [(0.0, 0.0), (0.3, 0.6), (2.0, 2.0), (0.5, 0.0)]:
                    conf = ConferencingConfig(c12, c21)
                    M1 = message_count(n, r1)
                    M2 = message_count(n, r2)
                    seen = set()
                    for m1 in range(M1):
                        for m2 in range(M2):
                            sm = split_messages(m1, m2, (r1, r2), conf, n)
                            key = (sm.m0_prime, sm.m1_prime, sm.m2_prime)
                            assert key not in seen
                            seen.add(key)
                            assert merge_messages(sm) == (m1, m2)
                    assert len(seen) == M1 * M2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="m1"):
            split_messages(16, 0, (0.5, 0.0), ConferencingConfig(), 8)


class TestConferencingErrorRate:
    def test_zero_links_match_private_pipeline(self):
        chain, channel = two_state(), xor_bsc_channel(2, (0.1, 0.45))
        policy = uniform_policy(2)
        kwargs = dict(n=64, epsilon=0.05, trials=40, seed=7, d1=2, d2=1)
        direct = estimate_error_rate(
            chain, channel, policy, (0.0, 2 / 64, 2 / 64), **kwargs
        )
        viaconf = conferencing_error_rate(
            chain, channel, policy, (2 / 64, 2 / 64), ConferencingConfig(0.0, 0.0), **kwargs
        )
        assert direct == viaconf

    def test_full_sharing_decodes_cells(self):
        # generous links turn both messages into the common part; the inputs
        # must follow the auxiliary symbol for that part to be decodable
        chain, channel = single_state(), copy_pair_channel(1)
        pU = np.array([[0.5, 0.5]])
        pX1 = np.zeros((2, 1, 2))
        pX1[0, 0, 0] = pX1[1, 0, 1] = 1.0  # x1 = u
        pX2 = np.zeros((2, 1, 1, 2))
        pX2[0, 0, 0, 0] = pX2[1, 0, 0, 1] = 1.0  # x2 = u
        policy = InputPolicy(pU, pX1, pX2)
        est = conferencing_error_rate(
            chain, channel, policy, (2 / 128, 2 / 128),
            ConferencingConfig(1.0, 1.0), n=128, epsilon=0.2, trials=20, seed=9,
        )
        assert est.p_e == 0.0

    def test_seed_determinism(self):
        chain, channel = two_state(), xor_bsc_channel(2, (0.2, 0.4))
        args = (chain, channel, uniform_policy(2), (1 / 64, 1 / 64), ConferencingConfig(0.5, 0.0))
        a = conferencing_error_rate(*args, n=64, epsilon=0.06, trials=25, seed=13, d1=1, d2=1)
        b = conferencing_error_rate(*args, n=64, epsilon=0.06, trials=25, seed=13, d1=1, d2=1)
        assert a == b

    def test_error_decay_inside_region_with_active_split(self):
        # quaternary inputs carry (shared bit, private bit); the good state
        # reveals (shared, private1, private2) and the bad state is noise.
        # Small links make the split genuinely active (several cells per
        # message) and the decay direction must persist.
        from fsmac import assemble_joint, best_weighted_point, conferencing_bounds

        pi_good, rho = 0.052, 0.1
        rows = np.array([pi_good, 1 - pi_good])
        chain = MarkovChain(["G", "B"], rho * np.eye(2) + (1 - rho) * rows[None, :])
        ny = 8
        table = np.zeros((4, 4, 2, ny))
        for x1 in range(4):
            for x2 in range(4):
                u_bit, b1 = divmod(x1, 2)
                _, b2 = divmod(x2, 2)
                table[x1, x2, 0, (u_bit * 2 + b1) * 2 + b2] = 1.0
                table[x1, x2, 1, :] = 1.0 / ny
        channel = DmcChannel(table)
        pU = np.full((2, 2), 0.5)
        pX1 = np.zeros((2, 2, 4))
        pX2 = np.zeros((2, 2, 2, 4))
        for u in range(2):
            pX1[u, :, 2 * u] = pX1[u, :, 2 * u + 1] = 0.5
            pX2[u, :, :, 2 * u] = pX2[u, :, :, 2 * u + 1] = 0.5
        policy = InputPolicy(pU, pX1, pX2)
        conf = ConferencingConfig(0.01, 0.01)
        bounds = conferencing_bounds(
            assemble_joint(delayed_state_joint(chain, 1, 1), policy, channel), conf
        )
        r = 0.8 * best_weighted_point(bounds, 1.0, 1.0)[0] / 2
        probe = split_messages(0, 0, (r, r), conf, 128)
        assert probe.n_cells1 > 1 and probe.idx_size1 > 1  # split is nontrivial
        pes = []
        for n in (64, 128):
            est = conferencing_error_rate(
                chain, channel, policy, (r, r), conf, n, epsilon=0.05,
                trials=200, seed=17, d1=1, d2=1,
            )
            pes.append(est.p_e)
        assert pes[0] > pes[1]
