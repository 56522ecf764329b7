import numpy as np
import pytest

from fsmac import (
    DmcChannel,
    InputPolicy,
    JointPmf,
    MarkovChain,
    assemble_joint,
    conditional_mutual_information,
    delayed_state_joint,
)
from fsmac.pmf import check_compatible


def two_state(g=0.1, b=0.1):
    return MarkovChain(["G", "B"], [[1 - b, b], [g, 1 - g]])


def uniform_policy(k, nu=2, nx1=2, nx2=2):
    return InputPolicy(
        np.full((k, nu), 1.0 / nu),
        np.full((nu, k, nx1), 1.0 / nx1),
        np.full((nu, k, k, nx2), 1.0 / nx2),
    )


def random_policy(k, nu, nx1, nx2, rng):
    def rows(shape, m):
        flat = rng.dirichlet(np.ones(m), size=int(np.prod(shape)))
        return flat.reshape(*shape, m)

    return InputPolicy(rows((k,), nu), rows((nu, k), nx1), rows((nu, k, k), nx2))


def identity_channel_y_equals_x1(k):
    # Y copies X1 and ignores X2 and the state
    t = np.zeros((2, 2, k, 2))
    for x1 in range(2):
        t[x1, :, :, x1] = 1.0
    return DmcChannel(t)


def pair_channel(k):
    # noiseless Y = (X1, X2) over a 4-letter output
    t = np.zeros((2, 2, k, 4))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, :, 2 * x1 + x2] = 1.0
    return DmcChannel(t)


def bsc_by_state(k, crossovers):
    # Y = X1 xor noise(state); X2 ignored
    t = np.zeros((2, 2, k, 2))
    for s, p in enumerate(crossovers):
        for x1 in range(2):
            t[x1, :, s, x1] = 1.0 - p
            t[x1, :, s, 1 - x1] = p
    return DmcChannel(t)


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


class TestAssembleJoint:
    def test_uniform_product(self):
        chain = two_state()
        dsj = delayed_state_joint(chain, 0, 0)
        joint = assemble_joint(dsj, uniform_policy(2), pair_channel(2))
        assert abs(joint.table.sum() - 1.0) <= 1e-12
        got_states = joint.marginal(["Sd1", "Sd2", "S"]).table
        assert np.abs(got_states - dsj.table).max() <= 1e-12
        # uniform inputs: each (u, x1, x2) combination carries equal mass
        m = joint.marginal(["U", "X1", "X2"]).table
        assert np.abs(m - 1.0 / 8).max() <= 1e-12

    def test_deterministic_noiseless_composition(self):
        chain = two_state()
        dsj = delayed_state_joint(chain, 1, 0)
        # point-mass policy: u = 0, x1 = observed-state parity, x2 = 0
        pU = np.zeros((2, 1))
        pU[:, 0] = 1.0
        pX1 = np.zeros((1, 2, 2))
        pX1[0, 0, 0] = 1.0
        pX1[0, 1, 1] = 1.0
        pX2 = np.zeros((1, 2, 2, 2))
        pX2[..., 0] = 1.0
        policy = InputPolicy(pU, pX1, pX2)
        joint = assemble_joint(dsj, policy, identity_channel_y_equals_x1(2))
        # Y == X1 exactly: the (X1, Y) marginal is diagonal
        m = joint.marginal(["X1", "Y"]).table
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        # H(Y | X1) = 0 via I(X1;Y) = H(Y)
        i_xy = conditional_mutual_information(joint, ["X1"], ["Y"], [])
        py = joint.marginal(["Y"]).table
        h_y = -(py[py > 0] * np.log2(py[py > 0])).sum()
        assert abs(i_xy - h_y) <= 1e-12

    def test_state_marginal_reproduced_by_direct_summation(self):
        chain = two_state()
        dsj = delayed_state_joint(chain, 2, 1)
        rng = np.random.default_rng(11)
        joint = assemble_joint(dsj, random_policy(2, 2, 2, 2, rng), bsc_by_state(2, [0.0, 0.5]))
        assert abs(joint.table.sum() - 1.0) <= 1e-12
        # oracle: direct summation over the other four axes
        direct = joint.table.sum(axis=(0, 1, 2, 6))  # leaves (S, Sd1, Sd2)
        direct = np.moveaxis(direct, 0, 2)  # -> (Sd1, Sd2, S)
        assert np.abs(direct - dsj.table).max() <= 1e-12

    def test_alphabet_mismatch_named(self):
        chain = two_state()
        dsj = delayed_state_joint(chain, 0, 0)
        bad_channel = DmcChannel(np.full((3, 2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="X1"):
            assemble_joint(dsj, uniform_policy(2), bad_channel)


class TestConditionalMutualInformation:
    def test_independent_variables(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        joint = JointPmf(["A", "B"], p)
        assert conditional_mutual_information(joint, ["A"], ["B"], []) == 0.0

    def test_copy_channel_one_bit(self):
        p = np.zeros((2, 2))
        p[0, 0] = p[1, 1] = 0.5
        joint = JointPmf(["A", "B"], p)
        assert abs(conditional_mutual_information(joint, ["A"], ["B"], []) - 1.0) <= 1e-12

    def test_bsc_matches_binary_entropy(self):
        eps = 0.11
        p = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.5 * eps, 0.5 * (1 - eps)]])
        joint = JointPmf(["X", "Y"], p)
        got = conditional_mutual_information(joint, ["X"], ["Y"], [])
        assert abs(got - (1.0 - binary_entropy(eps))) <= 1e-3

    def test_chain_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = rng.dirichlet(np.ones(2 * 2 * 3 * 2)).reshape(2, 2, 3, 2)
            joint = JointPmf(["A", "B", "Y", "C"], t)
            lhs = conditional_mutual_information(joint, ["A", "B"], ["Y"], ["C"])
            rhs = conditional_mutual_information(joint, ["A"], ["Y"], ["C"])
            rhs += conditional_mutual_information(joint, ["B"], ["Y"], ["A", "C"])
            assert abs(lhs - rhs) <= 1e-10

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        t = rng.dirichlet(np.ones(3 * 2 * 2)).reshape(3, 2, 2)
        joint = JointPmf(["A", "B", "C"], t)
        permuted = JointPmf(["A", "B", "C"], t[[2, 0, 1], :, :])
        a = conditional_mutual_information(joint, ["A"], ["B"], ["C"])
        b = conditional_mutual_information(permuted, ["A"], ["B"], ["C"])
        assert abs(a - b) <= 1e-12

    def test_overlapping_sets_rejected(self):
        joint = JointPmf(["A", "B"], np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="disjoint"):
            conditional_mutual_information(joint, ["A"], ["A"], [])

    def test_unknown_variable_rejected(self):
        joint = JointPmf(["A", "B"], np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="unknown"):
            conditional_mutual_information(joint, ["A"], ["Z"], [])


class TestFactorizationMarkovRelations:
    def assemble_random(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        g = float(rng.uniform(0.05, 0.5))
        b = float(rng.uniform(0.05, 0.5))
        chain = MarkovChain(
            [f"s{i}" for i in range(k)],
            np.full((k, k), 1.0 / k) * 0.5 + 0.5 * np.eye(k),
        ) if k > 2 else two_state(g, b)
        d2 = int(rng.integers(0, 3))
        d1 = d2 + int(rng.integers(0, 3))
        nu = int(rng.integers(1, 3))
        policy = random_policy(chain.k, nu, 2, 2, rng)
        ch_table = rng.dirichlet(np.ones(2), size=(2, 2, chain.k))
        return assemble_joint(delayed_state_joint(chain, d1, d2), policy, DmcChannel(ch_table))

    def test_forced_by_factorization(self):
        cmi = conditional_mutual_information
        for seed in range(8):
            joint = self.assemble_random(seed)
            assert cmi(joint, ["U"], ["S", "Sd2"], ["Sd1"]) <= 1e-9
            assert cmi(joint, ["X1"], ["S", "Sd2"], ["Sd1", "U"]) <= 1e-9
            assert cmi(joint, ["X2"], ["X1", "S"], ["Sd1", "Sd2", "U"]) <= 1e-9

    def test_hand_built_violation_detected(self):
        # X1 copies the current state: I(X1; S | Sd1) is a conditional entropy
        p_sd1 = np.array([0.5, 0.5])
        p_s_given = np.array([[0.75, 0.25], [0.25, 0.75]])
        t = np.zeros((2, 2, 2))  # (X1, S, Sd1)
        for a in range(2):
            for s in range(2):
                t[s, s, a] = p_sd1[a] * p_s_given[a, s]
        joint = JointPmf(["X1", "S", "Sd1"], t)
        assert conditional_mutual_information(joint, ["X1"], ["S"], ["Sd1"]) > 0.01


class TestTypeValidation:
    def test_joint_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            JointPmf(["A"], np.array([0.5, 0.4]))

    def test_policy_slice_validation_names_slice(self):
        pU = np.array([[0.9, 0.2], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"pU slice \(0,\)"):
            InputPolicy(pU, np.full((2, 2, 2), 0.5), np.full((2, 2, 2, 2), 0.5))

    def test_policy_cardinality_ceiling(self):
        k, nu = 1, 2 * 2 * 1 + 3  # one above the cap for binary inputs
        with pytest.raises(ValueError, match="ceiling"):
            InputPolicy(
                np.full((k, nu), 1.0 / nu),
                np.full((nu, k, 2), 0.5),
                np.full((nu, k, k, 2), 0.5),
            )

    def test_nan_entries_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="nonnegative"):
            JointPmf(["A"], np.array([nan, 1.0]))
        pX1 = np.full((2, 2, 2), 0.5)
        pX1[1, 0, 1] = nan
        with pytest.raises(ValueError, match="pX1 entries"):
            InputPolicy(np.full((2, 2), 0.5), pX1, np.full((2, 2, 2, 2), 0.5))
        t = np.full((2, 2, 2, 2), 0.5)
        t[0, 1, 1, 0] = nan
        with pytest.raises(ValueError, match="channel table entries"):
            DmcChannel(t)

    def test_compatibility_checked_before_assembly(self):
        one_state = DmcChannel(np.full((2, 2, 1, 2), 0.5))
        with pytest.raises(ValueError, match="channel table has 1 states"):
            check_compatible(2, uniform_policy(2), one_state)
        with pytest.raises(ValueError, match="policy has 1 states"):
            check_compatible(2, uniform_policy(1), DmcChannel(np.full((2, 2, 2, 2), 0.5)))
        three_x2 = DmcChannel(np.full((2, 3, 2, 2), 0.5))
        with pytest.raises(ValueError, match="pX1, pX2 have 2, 2 input symbols"):
            check_compatible(2, uniform_policy(2), three_x2)

    def test_channel_slice_validation(self):
        t = np.full((2, 2, 2, 2), 0.5)
        t[1, 1, 1] = [0.7, 0.7]
        with pytest.raises(ValueError, match="channel table"):
            DmcChannel(t)
