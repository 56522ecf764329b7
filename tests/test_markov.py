import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from fsmac import (
    DelayedStateJoint,
    MarkovChain,
    delayed_state_joint,
    mixing_horizon,
    n_step_matrix,
    stationary_distribution,
)
from fsmac import markov
from fsmac.markov import _categorical, sample_state_path

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def two_state(g=0.1, b=0.1):
    return MarkovChain(["G", "B"], [[1 - b, b], [g, 1 - g]])


def random_chain(k, seed):
    rng = np.random.default_rng(seed)
    K = rng.random((k, k)) + 0.05
    K /= K.sum(axis=1, keepdims=True)
    return MarkovChain([f"s{i}" for i in range(k)], K)


class TestStationaryDistribution:
    def test_two_state_symmetric(self):
        pi = stationary_distribution(two_state())
        assert np.abs(pi - np.array([0.5, 0.5])).max() <= 1e-12

    def test_two_state_general(self):
        g, b = 0.3, 0.05
        pi = stationary_distribution(two_state(g, b))
        expect = np.array([g / (g + b), b / (g + b)])
        assert np.abs(pi - expect).max() <= 1e-12

    def test_uniform_chain_is_uniform(self):
        k = 4
        chain = MarkovChain([f"s{i}" for i in range(k)], np.full((k, k), 1.0 / k))
        pi = stationary_distribution(chain)
        assert np.abs(pi - 1.0 / k).max() <= 1e-12

    def test_matches_power_iteration(self):
        chain = random_chain(3, seed=7)
        pi = stationary_distribution(chain)
        # oracle: long power iteration from the uniform start
        v = np.full(3, 1.0 / 3.0)
        P1000 = np.linalg.matrix_power(chain.K, 1000)
        oracle = v @ P1000
        assert np.abs(pi - oracle).max() <= 1e-10

    def test_fixed_point_and_normalization(self):
        for seed in range(5):
            chain = random_chain(4, seed)
            pi = stationary_distribution(chain)
            assert abs(pi.sum() - 1.0) <= 1e-12
            assert np.abs(pi @ chain.K - pi).max() <= 1e-12


class TestNStepMatrix:
    def test_zero_steps_is_identity(self):
        assert np.array_equal(n_step_matrix(two_state(), 0), np.eye(2))

    def test_two_steps_hand_product(self):
        # [[.9,.1],[.1,.9]]^2 worked out by hand
        K2 = n_step_matrix(two_state(), 2)
        assert np.abs(K2 - np.array([[0.82, 0.18], [0.18, 0.82]])).max() <= 1e-12

    def test_long_horizon_converges_to_pi(self):
        K200 = n_step_matrix(two_state(), 200)
        assert np.abs(K200 - 0.5).max() <= 1e-9

    def test_semigroup_property(self):
        for seed in range(5):
            chain = random_chain(3, seed)
            for a, b in [(0, 3), (1, 1), (2, 5), (4, 4)]:
                lhs = n_step_matrix(chain, a + b)
                rhs = n_step_matrix(chain, a) @ n_step_matrix(chain, b)
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_rows_remain_stochastic(self):
        chain = random_chain(4, 3)
        for d in (1, 7, 60):
            assert np.abs(n_step_matrix(chain, d).sum(axis=1) - 1.0).max() <= 1e-12

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            n_step_matrix(two_state(), -1)


class TestDelayedStateJoint:
    def test_equal_delays_collapse(self):
        dsj = delayed_state_joint(two_state(), 3, 3)
        off_diag = dsj.marginal_pair()[~np.eye(2, dtype=bool)]
        assert np.abs(off_diag).max() == 0.0

    def test_direct_product_cell(self):
        # d1=2, d2=0: entry (G, G, G) = pi(G) * K^2[G, G] * I[G, G]
        dsj = delayed_state_joint(two_state(), 2, 0)
        assert abs(dsj.table[0, 0, 0] - 0.5 * 0.82) <= 1e-12
        # d2=0 forces the second observation to equal the current state
        mism = dsj.table.sum() - np.trace(dsj.table.sum(axis=0))
        assert abs(mism) <= 1e-12

    def test_pair_marginal_is_stationary(self):
        for seed, (d1, d2) in [(0, (4, 1)), (1, (2, 2)), (2, (6, 0))]:
            chain = random_chain(3, seed)
            dsj = delayed_state_joint(chain, d1, d2)
            assert np.abs(dsj.table.sum(axis=(1, 2)) - chain.pi).max() <= 1e-12
            assert np.abs(dsj.table.sum(axis=(0, 1)) - chain.pi).max() <= 1e-12

    def test_total_mass(self):
        for seed in range(4):
            chain = random_chain(4, seed)
            dsj = delayed_state_joint(chain, 5, 2)
            assert abs(dsj.table.sum() - 1.0) <= 1e-12

    def test_huge_first_delay_decouples(self):
        dsj = delayed_state_joint(two_state(), 500, 1)
        pi1 = dsj.table.sum(axis=(1, 2))
        rest = dsj.table.sum(axis=0)
        product = pi1[:, None, None] * rest[None, :, :]
        assert np.abs(dsj.table - product).max() < 1e-8

    def test_delay_ordering_enforced(self):
        with pytest.raises(ValueError, match="d1 >= d2"):
            delayed_state_joint(two_state(), 1, 2)


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MarkovChain(["a", "b"], [[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovChain(["a", "b"], [[0.9, 0.2], [0.5, 0.5]])

    def test_rejects_reducible(self):
        with pytest.raises(ValueError, match="irreducible"):
            MarkovChain(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_periodic(self):
        with pytest.raises(ValueError, match="irreducible"):
            MarkovChain(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_nan_entries(self):
        # NaN fails every comparison, so each check must be one it fails
        nan = float("nan")
        with pytest.raises(ValueError, match="nonnegative"):
            MarkovChain(["G", "B"], [[nan, 1.0], [0.1, 0.9]])
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovChain(["G", "B"], [[0.5, 0.5], [0.1, 0.9 + 1e-9]])
        chain = two_state()
        table = delayed_state_joint(chain, 1, 0).table.copy()
        table[0, 0, 0] = nan
        with pytest.raises(ValueError, match="nonnegative"):
            DelayedStateJoint(chain, 1, 0, table)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarkovChain(["a", "b", "c"], np.eye(2))


def test_mixing_horizon_two_state():
    chain = two_state()
    d = mixing_horizon(chain, tol=1e-9)
    # second eigenvalue is 0.8, so TV decays like 0.8^d
    P = n_step_matrix(chain, d)
    assert 0.5 * np.abs(P - 0.5).sum(axis=1).max() < 1e-9
    P_prev = n_step_matrix(chain, d - 1)
    assert 0.5 * np.abs(P_prev - 0.5).sum(axis=1).max() >= 1e-9


def _linear_horizon(chain, tol, max_steps):
    """The horizon by one product of K per step, or None past max_steps:
    the oracle for mixing_horizon's squaring and bisection."""
    pi = chain.pi
    P = np.eye(chain.k)
    for d in range(max_steps + 1):
        if 0.5 * np.abs(P - pi).sum(axis=1).max() < tol:
            return d
        P = P @ chain.K
    return None


def _horizon_or_none(chain, tol, max_steps):
    try:
        return mixing_horizon(chain, tol, max_steps)
    except RuntimeError:
        return None


class TestMixingHorizon:
    def test_shipped_chains_match_the_linear_scan(self):
        chains = [yaml.safe_load(p.read_text()).get("chain") for p in CONFIGS]
        chains = [MarkovChain(c["states"], c["transition"]) for c in chains if c]
        assert len(chains) >= 4
        for chain in chains:
            assert mixing_horizon(chain, 1e-9) == _linear_horizon(chain, 1e-9, 100_000)

    def test_seeded_chains_match_the_linear_scan(self):
        # horizons up to a few thousand steps: beyond that the scan's own
        # rounding, one product per step, reaches a tolerance of 1e-9 and the
        # two methods can part by a step or more
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(150):
            k = int(rng.integers(1, 6))
            K = rng.random((k, k)) ** rng.choice([1, 4, 12])  # sparse and slow ones too
            try:
                chain = MarkovChain([f"s{a}" for a in range(k)], K / K.sum(axis=1, keepdims=True))
            except ValueError:  # not irreducible and aperiodic
                continue
            for tol in (1e-6, 1e-9):
                d = _linear_horizon(chain, tol, 3000)
                if d is None:
                    continue
                checked += 1
                assert mixing_horizon(chain, tol) == d
                # the step cap: the horizon itself passes, one step less does not
                assert _horizon_or_none(chain, tol, d) == d
                if d > 0:
                    assert _horizon_or_none(chain, tol, d - 1) is None
        assert checked >= 150

    def test_slow_chain_rejected_quickly(self):
        chain = two_state(1e-6, 1e-6)  # horizon about 1e7 steps at 1e-9
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="did not mix"):
            mixing_horizon(chain, 1e-9)
        assert time.perf_counter() - start < 0.1


class TestCategorical:
    def test_tie_takes_the_next_symbol(self):
        probs = np.array([0.25, 0.25, 0.5])  # cumulative 0.25, 0.5, 1.0 exactly
        u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, np.nextafter(1.0, 0.0)])
        assert np.array_equal(_categorical(u, probs), [0, 0, 1, 2, 2])

    def test_zero_mass_symbols_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5])
        assert np.array_equal(_categorical(np.array([0.0, 0.5]), probs), [1, 3])

    def test_last_symbol_takes_the_rounding_residue(self):
        probs = np.array([0.09] * 10 + [0.1])
        total = np.cumsum(probs)[-1]
        assert total < np.nextafter(total, 1.0) < 1.0  # the sum rounds below 1
        u = np.array([np.nextafter(total, 0.0), total, np.nextafter(total, 1.0)])
        assert np.array_equal(_categorical(u, probs), [10, 10, 10])

    def test_broadcasts_over_rows(self):
        K = np.array([[1.0, 0.0], [0.0, 1.0]])
        sym = _categorical(np.array([0.1, 0.9])[:, None], K)
        assert sym.dtype == np.int64
        assert np.array_equal(sym, [[0, 1], [0, 1]])
