import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsmac import (
    ConferencingConfig,
    DmcChannel,
    InputPolicy,
    MarkovChain,
    RateBounds,
    SearchConfig,
    assemble_joint,
    best_weighted_point,
    common_message_bounds,
    conditional_mutual_information,
    conferencing_bounds,
    delayed_state_joint,
    inner_bound_search,
    polytope_vertices,
    search_weighted,
)
from fsmac.config import load_config
from fsmac.pmf import JointPmf
from fsmac.regions import SearchResult, _common_caps, _simplex_grid, _weighted_values

SHIPPED_DISCRETE = Path(__file__).resolve().parent.parent / "configs" / "region_discrete.yaml"


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


def pair_channel(k):
    t = np.zeros((2, 2, k, 4))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, :, 2 * x1 + x2] = 1.0
    return DmcChannel(t)


def noise_channel(k, ny=2):
    return DmcChannel(np.full((2, 2, k, ny), 1.0 / ny))


def state_bsc_channel(k=2, crossovers=(0.0, 0.5)):
    # Y = X1 xor X2 xor noise(state)
    t = np.zeros((2, 2, k, 2))
    for s, p in enumerate(crossovers):
        for x1 in range(2):
            for x2 in range(2):
                t[x1, x2, s, (x1 + x2) % 2] = 1.0 - p
                t[x1, x2, s, (x1 + x2 + 1) % 2] = p
    return DmcChannel(t)


class TestCommonMessageBounds:
    def test_noiseless_bit_pipes(self):
        joint = assemble_joint(
            delayed_state_joint(two_state(), 1, 0), uniform_policy(2), pair_channel(2)
        )
        b = common_message_bounds(joint)
        assert abs(b.b1 - 1.0) <= 1e-12
        assert abs(b.b2 - 1.0) <= 1e-12
        assert abs(b.b12 - 2.0) <= 1e-12
        assert abs(b.bsum - 2.0) <= 1e-12

    def test_completely_noisy_channel(self):
        joint = assemble_joint(
            delayed_state_joint(two_state(), 1, 0), uniform_policy(2), noise_channel(2)
        )
        b = common_message_bounds(joint)
        assert max(b.b1, b.b2, b.b12, b.bsum) <= 1e-12

    def test_matches_direct_mi_evaluation(self):
        # oracle: recompute each bound by explicit enumeration over the joint
        rng = np.random.default_rng(3)
        pU = rng.dirichlet(np.ones(2), size=2)
        pX1 = rng.dirichlet(np.ones(2), size=(2, 2))
        pX2 = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        policy = InputPolicy(pU, pX1, pX2)
        joint = assemble_joint(
            delayed_state_joint(two_state(), 1, 1), policy, state_bsc_channel()
        )
        b = common_message_bounds(joint)

        def mi_direct(A, B, C):
            # oracle: sum of p(abc) log2[p(abc) p(c) / (p(ac) p(bc))] over cells
            m = joint.marginal(A + B + C)
            names = list(m.variables)
            mAC = m.marginal(A + C)
            mBC = m.marginal(B + C)
            mC = m.marginal(C) if C else None
            posAC = [names.index(v) for v in mAC.variables]
            posBC = [names.index(v) for v in mBC.variables]
            posC = [names.index(v) for v in mC.variables] if C else []
            total = 0.0
            it = np.nditer(m.table, flags=["multi_index"])
            for val in it:
                p = float(val)
                if p == 0.0:
                    continue
                idx = it.multi_index
                pac = mAC.table[tuple(idx[i] for i in posAC)]
                pbc = mBC.table[tuple(idx[i] for i in posBC)]
                pc = mC.table[tuple(idx[i] for i in posC)] if C else 1.0
                total += p * np.log2(p * pc / (pac * pbc))
            return total

        cond = ["S", "Sd1", "Sd2"]
        assert abs(b.b1 - mi_direct(["X1"], ["Y"], ["X2", "U"] + cond)) <= 1e-9
        assert abs(b.b2 - mi_direct(["X2"], ["Y"], ["X1", "U"] + cond)) <= 1e-9
        assert abs(b.b12 - mi_direct(["X1", "X2"], ["Y"], ["U"] + cond)) <= 1e-9
        assert abs(b.bsum - mi_direct(["X1", "X2"], ["Y"], cond)) <= 1e-9


class TestConferencingBounds:
    def test_zero_links_equal_common(self):
        joint = assemble_joint(
            delayed_state_joint(two_state(), 2, 1), uniform_policy(2, nu=2), state_bsc_channel()
        )
        base = common_message_bounds(joint)
        conf = conferencing_bounds(joint, ConferencingConfig(0.0, 0.0))
        assert conf == base

    def test_additivity_of_link_capacities(self):
        joint = assemble_joint(
            delayed_state_joint(two_state(), 2, 1), uniform_policy(2, nu=2), state_bsc_channel()
        )
        zero = conferencing_bounds(joint, ConferencingConfig(0.0, 0.0))
        shifted = conferencing_bounds(joint, ConferencingConfig(0.1, 0.3))
        assert abs(shifted.b1 - zero.b1 - 0.1) <= 1e-12
        assert abs(shifted.b2 - zero.b2 - 0.3) <= 1e-12
        assert abs(shifted.b12 - zero.b12 - 0.4) <= 1e-12
        assert shifted.bsum == zero.bsum

    def test_infinite_links_leave_only_sum(self):
        joint = assemble_joint(
            delayed_state_joint(two_state(), 1, 0), uniform_policy(2), pair_channel(2)
        )
        b = conferencing_bounds(joint, ConferencingConfig(float("inf"), float("inf")))
        verts = polytope_vertices(b)
        for p in verts:
            assert p.r1 + p.r2 <= b.bsum + 1e-12
        assert any(abs(p.r1 + p.r2 - b.bsum) <= 1e-12 for p in verts if p.r1 + p.r2 > 0)


class TestPolytopeVertices:
    def test_square(self):
        verts = polytope_vertices(RateBounds(1.0, 1.0, 2.0, 2.0))
        got = [(p.r1, p.r2) for p in verts]
        assert got == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_pentagon(self):
        verts = polytope_vertices(RateBounds(1.0, 1.0, 1.5, 2.0))
        got = [(p.r1, p.r2) for p in verts]
        assert got == [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)]

    def test_degenerate_zero_region(self):
        verts = polytope_vertices(RateBounds(0.0, 0.0, 0.0, 0.0))
        assert [(p.r1, p.r2) for p in verts] == [(0.0, 0.0)]

    def test_matches_grid_hull(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            b1, b2 = rng.uniform(0.1, 2.0, 2)
            cap = float(rng.uniform(0.1, b1 + b2 + 0.5))
            bounds = RateBounds(b1, b2, min(cap, b1 + b2), cap + rng.uniform(0, 1))
            verts = polytope_vertices(bounds)
            # oracle: feasibility of all grid points, hull extent along rays
            g = np.linspace(0, max(b1, b2), 2000)
            X, Y = g[:, None], g[None, :]
            feas = (X <= b1 + 1e-12) & (Y <= b2 + 1e-12) & (X + Y <= bounds.sum_cap() + 1e-12)
            # the feasible y of each x are a prefix of the grid and the
            # weights are >= 0, so each row's maximum sits at its last one
            rows = feas.any(axis=1)
            x_best, y_best = g[rows], g[feas.sum(axis=1)[rows] - 1]
            for p in verts:
                assert p.r1 <= b1 + 1e-9 and p.r2 <= b2 + 1e-9
                assert p.r1 + p.r2 <= bounds.sum_cap() + 1e-9
            # every feasible grid point is inside the vertex hull: compare supports
            for mu in ([1, 0], [0, 1], [1, 1], [0.3, 0.9], [2, 0.5]):
                grid_best = (mu[0] * x_best + mu[1] * y_best).max()
                vert_best = max(mu[0] * p.r1 + mu[1] * p.r2 for p in verts)
                assert vert_best >= grid_best - 1e-3
                assert vert_best <= grid_best + 1e-3 + 2 * max(mu) * g[1]

    def test_common_mode_r0_projection(self):
        # a common-message slice at total rate r0 is the region whose bsum is
        # lowered by r0, as gaussian.solve_weighted scores it
        bounds = RateBounds(1.0, 1.0, 2.0, 1.6 - 0.4)
        verts = polytope_vertices(bounds)
        assert abs(max(p.r1 + p.r2 for p in verts) - 1.2) <= 1e-12
        assert abs(best_weighted_point(bounds, 1.0, 1.0)[0] - 1.2) <= 1e-12


class TestBestWeightedPoint:
    def test_requires_positive_weight(self):
        with pytest.raises(ValueError):
            best_weighted_point(RateBounds(1, 1, 2, 2), 0.0, 0.0)

    @pytest.mark.parametrize("mu1,mu2", [
        (float("inf"), 1.0), (1.0, float("inf")), (float("nan"), 1.0), (-0.5, 1.0), (0.0, 0.0),
    ])
    def test_one_weight_check(self, mu1, mu2):
        # an infinite weight used to pass and come back as value NaN at (0, 0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            best_weighted_point(RateBounds(1, 1, 2, 2), mu1, mu2)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SearchConfig(mu1=mu1, mu2=mu2)

    def test_tie_break_prefers_larger_r1(self):
        value, p = best_weighted_point(RateBounds(1.0, 1.0, 1.0, 1.0), 1.0, 1.0)
        assert value == 1.0
        assert (p.r1, p.r2) == (1.0, 0.0)

    def test_unbounded_rates(self):
        # an unbounded rate under an unbounded cap leaves the other its whole box
        inf = math.inf
        value, p = best_weighted_point(RateBounds(inf, 1.0, inf, inf), 1.0, 1.0)
        assert (value, p.r1, p.r2) == (inf, inf, 1.0)
        value, p = best_weighted_point(RateBounds(1.0, inf, inf, inf), 1.0, 2.0)
        assert (value, p.r1, p.r2) == (inf, 1.0, inf)
        # a zero weight scores nothing on its unbounded rate
        value, p = best_weighted_point(RateBounds(0.5, inf, inf, inf), 1.0, 0.0)
        assert (value, p.r1, p.r2) == (0.5, 0.5, inf)

    def test_matches_the_best_vertex(self):
        # the greedy fill against the vertices of the polytope, with ties
        # broken toward larger (r1, r2)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            b1, b2 = rng.uniform(0, 2, 2) * (rng.random(2) > 0.1)
            b12 = min(rng.uniform(0, 3), b1 + b2)
            bounds = RateBounds(b1, b2, b12, rng.uniform(0, 3))
            mu1, mu2 = rng.choice([0.0, 0.5, 1.0, rng.random()], 2)
            if mu1 + mu2 == 0:
                continue
            value, p = best_weighted_point(bounds, mu1, mu2)
            best = max(mu1 * v.r1 + mu2 * v.r2 for v in polytope_vertices(bounds))
            assert abs(value - best) <= 1e-12
            assert p.r1 <= bounds.b1 and p.r2 <= bounds.b2
            assert p.r1 + p.r2 <= bounds.sum_cap() + 1e-12


class TestInnerBoundSearch:
    def test_noiseless_known_optimum(self):
        res = inner_bound_search(
            single_state(),
            0,
            0,
            pair_channel(1),
            ConferencingConfig(0.0, 0.0),
            SearchConfig(u_size=1, grid_levels=3, restarts=1, seed=0, mu1=1.0, mu2=1.0),
        )
        assert abs(res.value - 2.0) <= 1e-9
        assert np.abs(res.policy.pX1 - 0.5).max() <= 1e-12

    def test_coarse_grid_within_fine_grid_oracle(self):
        # adder-like channel: Y = X1 + X2 over {0, 1, 2}, single state
        t = np.zeros((2, 2, 1, 3))
        for x1 in range(2):
            for x2 in range(2):
                t[x1, x2, 0, x1 + x2] = 1.0
        chan = DmcChannel(t)
        conf = ConferencingConfig(0.0, 0.0)
        res = inner_bound_search(
            single_state(), 0, 0, chan, conf,
            SearchConfig(u_size=1, grid_levels=5, restarts=3, seed=1, mu1=1.0, mu2=1.0),
        )
        # oracle: exhaustive fine grid over the two input rows, scored as one
        # (a, b) batch; the argmax and a sample of points are checked on the
        # assembled joint law
        dsj = delayed_state_joint(single_state(), 0, 0)
        grid = np.linspace(0.0, 1.0, 101)
        rows = np.stack([grid, 1 - grid], axis=-1)
        # batch column 101·a + b holds the pair (a, b)
        pX1 = np.repeat(rows, 101, axis=0).T[None, None]  # axes (u, s, x1, batch)
        pX2 = np.tile(rows, (101, 1)).T[None, None, None]  # axes (u, s, s, x2, batch)
        caps = _common_caps(dsj.table, chan.table, np.ones((1, 1, 1)), pX1, pX2)
        values = _weighted_values(caps, conf, 1.0, 1.0).reshape(101, 101)
        best = values.max()
        picks = [np.unravel_index(values.argmax(), values.shape)]
        picks += [tuple(ab) for ab in np.random.default_rng(0).integers(0, 101, size=(20, 2))]
        for a, b in picks:
            policy = InputPolicy(np.array([[1.0]]), rows[a][None, None], rows[b][None, None, None])
            bounds = conferencing_bounds(assemble_joint(dsj, policy, chan), conf)
            assert abs(best_weighted_point(bounds, 1.0, 1.0)[0] - values[a, b]) <= 1e-12
        assert res.value <= best + 1e-12
        assert res.value >= best - 0.02

    def test_value_reproducible_from_returned_policy(self):
        conf = ConferencingConfig(0.2, 0.1)
        res = inner_bound_search(
            two_state(), 1, 0, state_bsc_channel(), conf,
            SearchConfig(u_size=2, grid_levels=3, restarts=2, seed=5, mu1=0.7, mu2=1.0),
        )
        dsj = delayed_state_joint(two_state(), 1, 0)
        bounds = conferencing_bounds(assemble_joint(dsj, res.policy, state_bsc_channel()), conf)
        value, point = best_weighted_point(bounds, 0.7, 1.0)
        assert value == res.value
        assert (point.r1, point.r2) == (res.point.r1, res.point.r2)

    def test_monotone_in_link_capacity(self):
        cfg = SearchConfig(u_size=2, grid_levels=3, restarts=2, seed=3, mu1=1.0, mu2=1.0)
        v0 = inner_bound_search(
            two_state(), 1, 1, state_bsc_channel(), ConferencingConfig(0.0, 0.0), cfg
        ).value
        v3 = inner_bound_search(
            two_state(), 1, 1, state_bsc_channel(), ConferencingConfig(0.3, 0.3), cfg
        ).value
        assert v3 >= v0 - 1e-12

    def test_seed_determinism(self):
        cfg = SearchConfig(u_size=2, grid_levels=3, restarts=3, seed=11, mu1=1.0, mu2=0.5)
        a = inner_bound_search(
            two_state(), 1, 0, state_bsc_channel(), ConferencingConfig(0.1, 0.0), cfg
        )
        b = inner_bound_search(
            two_state(), 1, 0, state_bsc_channel(), ConferencingConfig(0.1, 0.0), cfg
        )
        assert a.value == b.value
        assert np.array_equal(a.policy.pU, b.policy.pU)
        assert np.array_equal(a.policy.pX1, b.policy.pX1)
        assert np.array_equal(a.policy.pX2, b.policy.pX2)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            inner_bound_search(
                two_state(), 1, 0, state_bsc_channel(), ConferencingConfig(),
                SearchConfig(restarts=0),
            )

    def test_long_delay_reduces_to_decoupled_observation(self):
        # with a huge first delay, encoder 1's observation decouples from
        # (second observation, state); the searched bound then matches the
        # infinite delay, whose first observation is exactly independent
        cfg = SearchConfig(u_size=1, grid_levels=5, restarts=2, seed=2, mu1=1.0, mu2=1.0)
        chan = state_bsc_channel(2, (0.05, 0.45))
        chain = two_state()
        conf = ConferencingConfig(0.0, 0.0)
        d2 = 0
        v_far = inner_bound_search(chain, 500, d2, chan, conf, cfg).value
        v_decoupled = inner_bound_search(chain, math.inf, d2, chan, conf, cfg).value
        assert abs(v_far - v_decoupled) <= 0.01

        # knowing the state earlier can only help
        v_near = inner_bound_search(chain, 0, 0, chan, conf, cfg).value
        assert v_near >= v_far - 0.01

    def test_value_nondecreasing_under_grid_refinement(self):
        # nested grids (5 refines 3) on a fixed instance and seed
        conf = ConferencingConfig(0.1, 0.1)
        values = []
        for levels in (3, 5):
            cfg = SearchConfig(
                u_size=1, grid_levels=levels, restarts=2, seed=6, mu1=1.0, mu2=1.0
            )
            values.append(
                inner_bound_search(two_state(), 1, 1, state_bsc_channel(), conf, cfg).value
            )
        assert values[1] >= values[0] - 1e-12

    def test_state_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="states"):
            inner_bound_search(
                two_state(), 1, 0, pair_channel(1), ConferencingConfig(),
                SearchConfig(u_size=1, grid_levels=2, restarts=1),
            )


def test_rate_bounds_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        RateBounds(-0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="b12"):
        RateBounds(0.5, 0.5, 1.5, 2.0)


def test_conferencing_config_validation():
    with pytest.raises(ValueError):
        ConferencingConfig(-1.0, 0.0)
    assert ConferencingConfig(float("inf"), 0.0).c12 == float("inf")


# -- the batched evaluator and search against their per-candidate references --


def random_instance(rng, max_k=3, max_u=3, max_x=3, max_y=3):
    """(state law, channel, u_size) with k states, 1 to max_x inputs per
    alphabet, 2 to max_y outputs, and d1 >= d2; a quarter of the state laws
    have d1 = inf, so encoder 1's observation is independent of the others,
    and half the channels are deterministic (W entries 0 or 1)."""
    k = int(rng.integers(1, max_k + 1))
    n_u = int(rng.integers(1, max_u + 1))
    nx1, nx2 = (int(v) for v in rng.integers(1, max_x + 1, size=2))
    ny = int(rng.integers(2, max_y + 1))
    # a floor on every transition keeps the chain primitive
    chain = MarkovChain([f"s{i}" for i in range(k)], 0.9 * rng.dirichlet(np.ones(k), size=k) + 0.1 / k)
    d2 = int(rng.integers(0, 3))
    d1 = d2 + int(rng.integers(0, 3))
    if rng.random() < 0.25:
        d1 = math.inf
    dsj = delayed_state_joint(chain, d1, d2)
    if rng.random() < 0.5:
        table = np.eye(ny)[rng.integers(0, ny, size=(nx1, nx2, k))]
    else:
        table = rng.dirichlet(np.ones(ny), size=(nx1, nx2, k))
    # InputPolicy's ceiling on |U|; it is at least 3, so only max_u > 3 meets it
    return dsj, DmcChannel(table), min(n_u, nx1 * nx2 * k**3 + 2)


def random_rows(rng, shape, quarter):
    """Conditional rows over the last axis; quarter-rounded rows often hold zeros."""
    if quarter:
        return rng.multinomial(4, np.full(shape[-1], 1.0 / shape[-1]), size=shape[:-1]) / 4.0
    return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])


WEIGHTS = [(1.0, 1.0), (1.0, 0.25), (0.25, 1.0), (0.0, 1.0), (1.0, 0.0)]


def cmi_bounds(joint, conf=ConferencingConfig()):
    """The oracle: each cap as a conditional mutual information of the joint
    law, the links added to the first three."""
    cond = ["S", "Sd1", "Sd2"]
    cmi = conditional_mutual_information
    return RateBounds(
        b1=cmi(joint, ["X1"], ["Y"], ["X2", "U"] + cond) + conf.c12,
        b2=cmi(joint, ["X2"], ["Y"], ["X1", "U"] + cond) + conf.c21,
        b12=cmi(joint, ["X1", "X2"], ["Y"], ["U"] + cond) + conf.c12 + conf.c21,
        bsum=cmi(joint, ["X1", "X2"], ["Y"], cond),
    )


class TestBatchedEvaluator:
    def test_caps_and_values_match_reference(self):
        # |Y| up to 9 and alphabets up to 4, so some sums add 8 or more terms,
        # where numpy's own reductions would switch to pairwise summation
        rng = np.random.default_rng(20)
        inf = float("inf")
        for _ in range(200):
            dsj, chan, n_u = random_instance(rng, max_u=4, max_x=4, max_y=9)
            k = dsj.k
            shapes = [(k, n_u), (n_u, k, chan.n_x1), (n_u, k, k, chan.n_x2)]
            # each factor with its batch axis last
            factors = [np.stack([random_rows(rng, s, quarter=i % 2 == 1) for i in range(4)], axis=-1)
                       for s in shapes]
            # the search passes a factor the batch shares with a batch axis of 1
            shared = int(rng.integers(0, 4))
            if shared < 3:
                factors[shared] = factors[shared][..., :1]
            caps = _common_caps(dsj.table, chan.table, *factors)
            assert caps.shape == (4, 4)
            # a policy's caps, bit for bit, whatever the batch's size and its
            # position in it: alone, and shuffled among repeats of the others
            full = [np.broadcast_to(f, f.shape[:-1] + (4,)) for f in factors]
            for cols in [[i] for i in range(4)] + [list(rng.integers(0, 4, size=int(rng.integers(2, 12))))]:
                got = _common_caps(dsj.table, chan.table, *(f[..., cols] for f in full))
                assert np.array_equal(got, caps[:, cols])
            conf = ConferencingConfig(*(float(v) for v in rng.choice([0.0, 0.3, inf], size=2)))
            mu1, mu2 = WEIGHTS[rng.integers(0, len(WEIGHTS))]
            for i in range(4):
                policy = InputPolicy(*(f[..., min(i, f.shape[-1] - 1)] for f in factors))
                joint = assemble_joint(dsj, policy, chan)
                ref = cmi_bounds(joint)
                assert np.abs(caps[:, i] - [ref.b1, ref.b2, ref.b12, ref.bsum]).max() <= 1e-12
                for c in (conf, ConferencingConfig(inf, inf)):
                    want = best_weighted_point(cmi_bounds(joint, c), mu1, mu2)[0]
                    got = _weighted_values(caps[:, i:i + 1], c, mu1, mu2)[0]
                    assert abs(got - want) <= 1e-12

    def test_bounds_match_the_cmi_oracle(self):
        # conferencing_bounds and common_message_bounds against cmi_bounds on
        # random instances with k = 1, deterministic channels, d1 = inf and
        # unbounded links among them (infinite caps compared by equality);
        # each joint law also in a permuted variable order and with an extra
        # variable, which is summed out
        rng = np.random.default_rng(22)
        inf = math.inf
        seen = np.zeros(4, dtype=bool)
        for _ in range(60):
            dsj, chan, n_u = random_instance(rng, max_u=4, max_x=4, max_y=9)
            shapes = [(dsj.k, n_u), (n_u, dsj.k, chan.n_x1), (n_u, dsj.k, dsj.k, chan.n_x2)]
            policy = InputPolicy(*(random_rows(rng, s, quarter=rng.random() < 0.5) for s in shapes))
            joint = assemble_joint(dsj, policy, chan)
            conf = ConferencingConfig(*(float(v) for v in rng.choice([0.0, 0.3, inf], size=2)))
            seen |= [dsj.k == 1, np.isin(chan.table, (0.0, 1.0)).all(), dsj.d1 == inf,
                     inf in (conf.c12, conf.c21)]
            perm = rng.permutation(7)
            variants = [joint, JointPmf([joint.variables[i] for i in perm], joint.table.transpose(perm)),
                        JointPmf(joint.variables + ("V",), joint.table[..., None] * rng.dirichlet(np.ones(3)))]
            for law in variants:
                for got, want in ((conferencing_bounds(law, conf), cmi_bounds(joint, conf)),
                                  (common_message_bounds(law), cmi_bounds(joint))):
                    for name in ("b1", "b2", "b12", "bsum"):
                        g, w = getattr(got, name), getattr(want, name)
                        assert (g == w) if math.isinf(w) else abs(g - w) <= 1e-12, (name, g, w)
        assert seen.all()

    def test_per_column_weights(self):
        rng = np.random.default_rng(21)
        caps = np.sort(rng.uniform(0.0, 2.0, size=(4, 10)), axis=0)
        mu1, mu2 = np.array(WEIGHTS * 2).T
        got = _weighted_values(caps, ConferencingConfig(0.2, 0.1), mu1, mu2)
        for j in range(10):
            one = _weighted_values(caps[:, j:j + 1], ConferencingConfig(0.2, 0.1), mu1[j], mu2[j])
            assert got[j] == one[0]


def reference_search(chain, d1, d2, channel, conf, config):
    """The per-candidate search: every candidate policy is built, assembled into
    its full joint law and scored through four conditional mutual informations
    (`cmi_bounds`); the returned policy is reported through `conferencing_bounds`,
    as the search reports it."""
    k = chain.k
    n_u = config.u_size
    dsj = delayed_state_joint(chain, d1, d2)
    row_specs = [("pU", (a,), n_u) for a in range(k)]
    row_specs += [("pX1", (u, a), channel.n_x1) for u in range(n_u) for a in range(k)]
    row_specs += [("pX2", (u, a, b), channel.n_x2)
                  for u in range(n_u) for a in range(k) for b in range(k)]

    def make_policy(rows):
        arrays = {"pU": np.empty((k, n_u)), "pX1": np.empty((n_u, k, channel.n_x1)),
                  "pX2": np.empty((n_u, k, k, channel.n_x2))}
        for (name, idx, _size), row in zip(row_specs, rows):
            arrays[name][idx] = row
        return InputPolicy(arrays["pU"], arrays["pX1"], arrays["pX2"])

    def evaluate(rows):
        bounds = cmi_bounds(assemble_joint(dsj, make_policy(rows), channel), conf)
        return best_weighted_point(bounds, config.mu1, config.mu2)[0]

    grids = {size: _simplex_grid(size, config.grid_levels) for _, _, size in row_specs}
    visited = 0
    best_val = -np.inf
    best_rows = None
    for restart in range(config.restarts):
        if restart == 0:
            rows = [np.full(size, 1.0 / size) for _, _, size in row_specs]
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, restart)))
            rows = [rng.dirichlet(np.ones(size)) for _, _, size in row_specs]
        cur_val = evaluate(rows)
        visited += 1
        for _ in range(config.max_passes):
            improved = False
            for row_i in range(len(rows)):
                keep = rows[row_i]
                for cand in grids[row_specs[row_i][2]]:
                    rows[row_i] = cand
                    val = evaluate(rows)
                    visited += 1
                    if val > cur_val + 1e-12:
                        cur_val = val
                        keep = cand
                        improved = True
                rows[row_i] = keep
            if not improved:
                break
        if cur_val > best_val + 1e-12:
            best_val = cur_val
            best_rows = [np.array(r) for r in rows]
    policy = make_policy(best_rows)
    bounds = conferencing_bounds(assemble_joint(dsj, policy, channel), conf)
    value, point = best_weighted_point(bounds, config.mu1, config.mu2)
    return SearchResult(value=value, policy=policy, point=point, bounds=bounds, visited=visited)


def assert_same_search(got, want):
    assert got.visited == want.visited
    assert got.value == want.value
    for name in ("pU", "pX1", "pX2"):
        assert np.array_equal(getattr(got.policy, name), getattr(want.policy, name))


def assert_same_directions(results, args, configs):
    """Each direction of one `search_weighted` call against its own reference search."""
    assert len(results) == len(configs)
    for cfg, got in zip(configs, results):
        assert_same_search(got, reference_search(*args, cfg))


class TestSearchAgainstReference:
    def test_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            dsj, chan, n_u = random_instance(rng, max_k=2, max_u=2)
            conf = ConferencingConfig(*(float(v) for v in rng.choice([0.0, 0.2, float("inf")], size=2)))
            mu1, mu2 = WEIGHTS[rng.integers(0, len(WEIGHTS))]
            cfg = SearchConfig(u_size=n_u, grid_levels=int(rng.integers(2, 5)), restarts=3,
                               seed=int(rng.integers(0, 100)), mu1=mu1, mu2=mu2, max_passes=2)
            args = (dsj.chain, dsj.d1, dsj.d2, chan, conf, cfg)
            assert_same_search(inner_bound_search(*args), reference_search(*args))

    def test_restart_ties_keep_the_earliest(self):
        # region_discrete.yaml's instance at a finer grid: restarts 0, 1 and 3
        # end at one value up to the last bits, so without the restart margin
        # rounding noise would pick the policy returned
        chain = MarkovChain(["G", "B"], [[0.9, 0.1], [0.1, 0.9]])
        chan = DmcChannel([
            [[[1.0, 0.0], [0.65, 0.35]], [[0.0, 1.0], [0.35, 0.65]]],
            [[[0.0, 1.0], [0.35, 0.65]], [[1.0, 0.0], [0.65, 0.35]]],
        ])
        cfg = SearchConfig(u_size=2, grid_levels=5, restarts=4, seed=10, max_passes=2)
        args = (chain, 2, 1, chan, ConferencingConfig(0.2, 0.1), cfg)
        assert_same_search(inner_bound_search(*args), reference_search(*args))

    def test_shipped_region_discrete(self):
        # every weight direction in one lockstep call, as the runner makes it
        obj = load_config(str(SHIPPED_DISCRETE)).objects
        assert len(obj["searches"]) == 3
        args = (obj["chain"], obj["d1"], obj["d2"], obj["channel"], obj["conf"])
        assert_same_directions(search_weighted(*args, obj["searches"]), args, obj["searches"])

    def test_restarts_stop_at_different_passes(self):
        chain, chan, conf = two_state(), state_bsc_channel(), ConferencingConfig(0.2, 0.1)
        budget = dict(u_size=2, grid_levels=3, seed=2, mu1=1.0, mu2=0.5, max_passes=3)
        # restart r's evaluations: 1 for its start, 42 per pass over its rows
        visited = [inner_bound_search(chain, 1, 0, chan, conf, SearchConfig(restarts=r, **budget)).visited
                   for r in range(1, 5)]
        passes = (np.diff([0] + visited) - 1) // 42
        assert list(passes) == [1, 2, 3, 2]
        args = (chain, 1, 0, chan, conf, SearchConfig(restarts=4, **budget))
        assert_same_search(inner_bound_search(*args), reference_search(*args))

    def test_smallest_budget(self):
        cfg = SearchConfig(u_size=2, grid_levels=2, restarts=1, seed=4, max_passes=1)
        args = (two_state(), 1, 1, state_bsc_channel(), ConferencingConfig(0.1, 0.0), cfg)
        assert_same_search(inner_bound_search(*args), reference_search(*args))

    def test_single_state_deterministic_channel_infinite_links(self):
        # Y = X1 + X2 over {0, 1, 2}, one state, d1 = d2, unbounded links
        t = np.zeros((2, 2, 1, 3))
        for x1 in range(2):
            for x2 in range(2):
                t[x1, x2, 0, x1 + x2] = 1.0
        inf = float("inf")
        for mu1, mu2 in WEIGHTS:
            cfg = SearchConfig(u_size=2, grid_levels=3, restarts=3, seed=7, mu1=mu1, mu2=mu2)
            args = (single_state(), 1, 1, DmcChannel(t), ConferencingConfig(inf, inf), cfg)
            assert_same_search(inner_bound_search(*args), reference_search(*args))

    def test_restart_groups_split_by_the_batch_budget(self, monkeypatch):
        import fsmac.regions as regions

        # one trajectory's largest row batch: 5 grid points of 2·2·2·2³·2 q entries
        monkeypatch.setattr(regions, "_CAPS_BATCH_ELEMENTS", 2 * 5 * 128)
        cfg = SearchConfig(u_size=2, grid_levels=5, restarts=5, seed=3, mu1=1.0, mu2=0.25, max_passes=2)
        args = (two_state(), 2, 1, state_bsc_channel(), ConferencingConfig(0.2, 0.1), cfg)
        calls = []
        caps = regions._common_caps

        def counted(states, w, pU, pX1, pX2):
            calls.append(pU.shape[-1])  # policies in the batch
            return caps(states, w, pU, pX1, pX2)

        monkeypatch.setattr(regions, "_common_caps", counted)
        got = inner_bound_search(*args)
        # groups of 2, 2 and 1 restarts, each starting with one batch of its
        # starts; a row step scores 5 candidates for each live restart
        assert [n for n in calls if n % 5] == [2, 2, 1]
        assert max(calls) == 10
        assert_same_search(got, reference_search(*args))

    def test_groups_split_across_directions(self, monkeypatch):
        import fsmac.regions as regions

        # 4 trajectories per group: 3 directions × 3 restarts run as
        # (d0 r0-r2, d1 r0), (d1 r1-r2, d2 r0-r1) and (d2 r2)
        monkeypatch.setattr(regions, "_CAPS_BATCH_ELEMENTS", 4 * 5 * 128)
        calls = []
        caps = regions._common_caps

        def counted(states, w, pU, pX1, pX2):
            calls.append(pU.shape[-1])
            return caps(states, w, pU, pX1, pX2)

        monkeypatch.setattr(regions, "_common_caps", counted)
        configs = [SearchConfig(u_size=2, grid_levels=5, restarts=3, seed=3, mu1=mu1, mu2=mu2,
                                max_passes=2) for mu1, mu2 in ((1.0, 0.25), (1.0, 1.0), (0.0, 1.0))]
        args = (two_state(), 2, 1, state_bsc_channel(), ConferencingConfig(0.2, 0.1))
        results = search_weighted(*args, configs)
        assert [n for n in calls if n % 5] == [4, 4, 1]
        monkeypatch.setattr(regions, "_common_caps", caps)
        assert_same_directions(results, args, configs)

    def test_random_instances_every_direction(self):
        # 2-5 directions per call, drawn from WEIGHTS with repeats
        rng = np.random.default_rng(9)
        seen_repeat = seen_axis = False
        for _ in range(12):
            dsj, chan, n_u = random_instance(rng, max_k=2, max_u=2)
            conf = ConferencingConfig(*(float(v) for v in rng.choice([0.0, 0.2, float("inf")], size=2)))
            weights = [WEIGHTS[i] for i in rng.integers(0, len(WEIGHTS), size=int(rng.integers(2, 6)))]
            seen_repeat |= len(set(weights)) < len(weights)
            seen_axis |= any(0.0 in w for w in weights)
            budget = dict(u_size=n_u, grid_levels=int(rng.integers(2, 5)), restarts=int(rng.integers(1, 4)),
                          seed=int(rng.integers(0, 100)), max_passes=2)
            configs = [SearchConfig(mu1=mu1, mu2=mu2, **budget) for mu1, mu2 in weights]
            args = (dsj.chain, dsj.d1, dsj.d2, chan, conf)
            assert_same_directions(search_weighted(*args, configs), args, configs)
        assert seen_repeat and seen_axis

    def test_edge_instances_in_one_call(self):
        # Y = X1 + X2 over {0, 1, 2}: one state, d1 = d2, a deterministic
        # channel and unbounded links, at |U| = 1 and 2; every weight of
        # WEIGHTS in one call, then a one-weight list
        t = np.zeros((2, 2, 1, 3))
        for x1 in range(2):
            for x2 in range(2):
                t[x1, x2, 0, x1 + x2] = 1.0
        inf = float("inf")
        args = (single_state(), 1, 1, DmcChannel(t), ConferencingConfig(inf, inf))
        for u_size in (1, 2):
            configs = [SearchConfig(u_size=u_size, grid_levels=3, restarts=3, seed=7, mu1=mu1, mu2=mu2)
                       for mu1, mu2 in WEIGHTS]
            assert_same_directions(search_weighted(*args, configs), args, configs)
            assert_same_directions(search_weighted(*args, configs[:1]), args, configs[:1])

    def test_configs_must_agree_but_for_weights(self):
        base = SearchConfig(u_size=1, grid_levels=2, restarts=1, seed=0)
        args = (two_state(), 1, 0, state_bsc_channel(), ConferencingConfig())
        for other in (replace(base, seed=1), replace(base, restarts=2), replace(base, u_size=2),
                      replace(base, grid_levels=3), replace(base, max_passes=2)):
            with pytest.raises(ValueError, match="agree"):
                search_weighted(*args, [base, replace(other, mu1=0.5)])
        assert search_weighted(*args, []) == []
        assert len(search_weighted(*args, [base, replace(base, mu1=0.0)])) == 2
