import math

import numpy as np
import pytest

from fsmac import (
    DelayedStateJoint,
    MarkovChain,
    delayed_state_joint,
    n_step_matrix,
    stationary_distribution,
)
from fsmac import markov
from fsmac.markov import _cumulative, _inverse_cdf, sample_state_path


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

    def test_infinite_steps_give_pi_in_every_row(self):
        # a chain too slow for any finite power to reach pi within 1e-9 too
        chains = [two_state(), two_state(1e-6, 1e-6), random_chain(4, 5)]
        for chain in chains:
            P = n_step_matrix(chain, math.inf)
            assert P.shape == (chain.k, chain.k)
            assert all(np.array_equal(row, chain.pi) for row in P)


class TestDelayedStateJoint:
    def test_equal_delays_collapse(self):
        dsj = delayed_state_joint(two_state(), 3, 3)
        off_diag = dsj.pair[~np.eye(2, dtype=bool)]
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
        with pytest.raises(ValueError, match="d1 >= d2"):
            delayed_state_joint(two_state(), 95, math.inf)

    @pytest.mark.parametrize("delays,name", [
        ((2.5, 0), "delay d1"), ((math.nan, 0), "delay d1"), ((3, math.nan), "delay d2"),
        ((1.5,), "number of steps d"),
    ], ids=["d1-fraction", "d1-nan", "d2-nan", "steps-fraction"])
    def test_fractional_or_nan_delay_named(self, delays, name):
        # matrix_power used to raise a TypeError that named no delay
        call = delayed_state_joint if len(delays) == 2 else n_step_matrix
        with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer or inf"):
            call(two_state(), *delays)

    def test_pair_is_the_product_it_was_built_from(self):
        for d1, d2 in [(3, 1), (2, 2), (math.inf, 2), (math.inf, math.inf)]:
            chain = random_chain(3, 4)
            dsj = delayed_state_joint(chain, d1, d2)
            gap = 0 if d1 == d2 else d1 - d2
            assert np.array_equal(dsj.pair, chain.pi[:, None] * n_step_matrix(chain, gap))
            assert np.abs(dsj.table.sum(axis=2) - dsj.pair).max() <= 1e-15

    def test_both_delays_infinite_match_large_equal_delays(self):
        for chain in (two_state(), random_chain(3, 1), random_chain(4, 2)):
            exact = delayed_state_joint(chain, math.inf, math.inf)
            assert exact.d1 == exact.d2 == math.inf
            # both encoders see one state, drawn independently of the present
            assert np.array_equal(exact.pair, np.diag(chain.pi))
            far = delayed_state_joint(chain, 400, 400)
            assert np.abs(exact.table - far.table).max() <= 1e-12

    def test_infinite_first_delay_matches_a_large_one(self):
        # the tables differ by pi(a) (K^398 - 1 pi)[a, b] K^2[b, c], so by at
        # most K^398's distance from pi; the slow chain keeps that distance
        # far above rounding (0.98^398, about 3e-4)
        chains = [two_state(), random_chain(3, 3), two_state(0.01, 0.01)]
        for chain in chains:
            exact = delayed_state_joint(chain, math.inf, 2)
            far = delayed_state_joint(chain, 400, 2)
            dist = np.abs(n_step_matrix(chain, 398) - chain.pi).max()
            assert np.abs(exact.table - far.table).max() <= dist + 1e-15
            # encoder 1's state is independent of the other two
            rest = exact.table.sum(axis=0)
            assert np.abs(exact.table - chain.pi[:, None, None] * rest[None]).max() <= 1e-15


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

    def test_primitivity_matches_the_power_loop(self):
        # the oracle: the chain is primitive when any Boolean power up to k^2 is positive
        def loop(K):
            reach = step = K > 0
            for _ in range(K.shape[0] ** 2):
                if reach.all():
                    return True
                reach = reach @ step
            return False

        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(1500):
            k = int(rng.integers(1, 7))
            K = (rng.random((k, k)) < rng.uniform(0.1, 0.6)).astype(float)
            seen.add(loop(K))
            assert markov._is_primitive(K) == loop(K)
        assert seen == {True, False}

    @pytest.mark.parametrize("k", range(2, 9))
    def test_wielandt_matrix_accepted_its_cycle_rejected(self, k):
        # Wielandt's matrix, the cycle 0 -> 1 -> ... -> k-1 -> 0 plus the
        # edge k-1 -> 1, first turns positive at the power (k - 1)^2 + 1; the
        # cycle alone is periodic
        cycle = np.roll(np.eye(k), 1, axis=1)
        wielandt = cycle.copy()
        wielandt[-1, 1] = 1.0
        assert not np.linalg.matrix_power(wielandt > 0, (k - 1) ** 2).all()
        assert markov._is_primitive(wielandt) and not markov._is_primitive(cycle)
        names = [f"s{i}" for i in range(k)]
        MarkovChain(names, wielandt / wielandt.sum(1, keepdims=True))
        with pytest.raises(ValueError, match="irreducible"):
            MarkovChain(names, cycle)

    def test_rejects_nan_entries(self):
        # NaN fails every comparison, so each check must be one it fails
        nan = float("nan")
        with pytest.raises(ValueError, match="nonnegative"):
            MarkovChain(["G", "B"], [[nan, 1.0], [0.1, 0.9]])
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovChain(["G", "B"], [[0.5, 0.5], [0.1, 0.9 + 1e-9]])
        chain = two_state()
        dsj = delayed_state_joint(chain, 1, 0)
        table = dsj.table.copy()
        table[0, 0, 0] = nan
        with pytest.raises(ValueError, match="nonnegative"):
            DelayedStateJoint(chain, 1, 0, table, dsj.pair)

    def test_rejects_a_pair_off_the_table(self):
        chain = two_state()
        dsj = delayed_state_joint(chain, 2, 1)
        with pytest.raises(ValueError, match="pair"):
            DelayedStateJoint(chain, 2, 1, dsj.table, dsj.pair + [[0.0, 1e-9], [0.0, -1e-9]])
        with pytest.raises(ValueError, match="pair"):
            DelayedStateJoint(chain, 2, 1, dsj.table, dsj.pair[:1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarkovChain(["a", "b", "c"], np.eye(2))


class TestCategorical:
    """The inverse-CDF draws of the samplers, on the thresholds they use."""

    def test_tie_takes_the_next_symbol(self):
        probs = np.array([0.25, 0.25, 0.5])  # cumulative 0.25, 0.5, 1.0 exactly
        u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, np.nextafter(1.0, 0.0)])
        assert np.array_equal(_inverse_cdf(u, _cumulative(probs)), [0, 0, 1, 2, 2])

    def test_zero_mass_symbols_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5])
        assert np.array_equal(_inverse_cdf(np.array([0.0, 0.5]), _cumulative(probs)), [1, 3])

    def test_last_symbol_takes_the_rounding_residue(self):
        probs = np.array([0.09] * 10 + [0.1])
        total = np.cumsum(probs)[-1]
        assert total < np.nextafter(total, 1.0) < 1.0  # the sum rounds below 1
        u = np.array([np.nextafter(total, 0.0), total, np.nextafter(total, 1.0)])
        assert np.array_equal(_inverse_cdf(u, _cumulative(probs)), [10, 10, 10])

    def test_broadcasts_over_rows(self):
        K = np.array([[1.0, 0.0], [0.0, 1.0]])
        sym = _inverse_cdf(np.array([0.1, 0.9])[:, None], _cumulative(K))
        assert sym.dtype == np.uint8  # counted in the smallest unsigned type
        assert np.array_equal(sym, [[0, 1], [0, 1]])
