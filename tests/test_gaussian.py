import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fsmac import (
    Allocation,
    ConferencingConfig,
    FeasibilityError,
    GaussianMacSpec,
    MarkovChain,
    SolverConfig,
    feasible,
    maximize_weighted_rate,
    n_step_matrix,
    rate_bounds_gaussian,
    solve_weighted,
    trace_boundary,
)
from fsmac import gaussian
from fsmac.config import _parse_solver, load_config
from fsmac.experiments import run_region_gaussian, run_sweep_sumrate
from fsmac.gaussian import _Barrier, _bounds, _thetas
from fsmac.regions import RateBounds, best_weighted_point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_state(g=0.1, b=0.1):
    return MarkovChain(["G", "B"], [[1 - b, b], [g, 1 - g]])


def single_state():
    return MarkovChain(["s"], [[1.0]])


def scalar_spec(g1=1.0, g2=1.0, p1=10.0, p2=10.0, convention="real"):
    return GaussianMacSpec(single_state(), [[g1]], [[g2]], p1, p2, 0, 0, convention)


def reference_spec():
    # two-state instance: powers 10/10, per-state power gains 1 and 0.01
    # (amplitudes 1 and 0.1), switching probability 0.1, both delays 2
    gains = [[1.0], [0.1]]
    return GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, 2, 2, "real")


def three_state_spec():
    # three states, two subchannels, distinct delays: every weight table differs
    chain = MarkovChain(["a", "b", "c"], [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.3, 0.6]])
    gains1 = [[1.0, 0.5], [0.3, 0.9], [0.2, 0.1]]
    gains2 = [[0.7, 0.2], [1.1, 0.4], [0.5, 0.5]]
    return GaussianMacSpec(chain, gains1, gains2, 5.0, 8.0, 3, 1, "complex")


NO_LINKS = ConferencingConfig()
THREE_LINKS = ConferencingConfig(0.2, 0.1)  # the links three_state_spec is solved at


def random_feasible_alloc(spec, rng):
    k, n = spec.k, spec.n_sub
    w2 = spec.state_weights()[0]
    P1 = rng.random((k, n))
    P1 *= rng.uniform(0.2, 1.0) * spec.pbar1 / max((spec.chain.pi[:, None] * P1).sum(), 1e-12)
    P2 = rng.random((k, k, n))
    P2 *= rng.uniform(0.2, 1.0) * spec.pbar2 / max((w2[:, :, None] * P2).sum(), 1e-12)
    return Allocation(P1, rng.random((k, n)) * P1, P2, rng.random((k, k, n)) * P2)


def seeded_start(seed, i):
    """An interior start drawn from SeedSequence((seed, i)), for the `start`
    argument of gaussian._solve: half of every budget spread over the cells
    at random weights, each cell's power split at random into private and
    common parts, and kappa at a random share of its cone. The solve ends
    where the even start's does from every such start: that is why one start
    serves."""
    def draw(bar):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        o, x = bar.o, []
        for w, pbar in zip((bar.B[0, o[0]:o[1]], bar.B[1, o[2]:o[3]]), bar.pbar):
            u, f = rng.uniform(0.2, 1.0, len(w)), rng.uniform(0.2, 0.8, len(w))
            P = 0.5 * pbar * u / (w * u).sum()
            x += [f * P, (1.0 - f) * P]
        i1, i2, _ = bar.cone
        kappa = rng.uniform(0.2, 0.8, len(i1)) * np.sqrt(x[1][i1 - o[1]] * x[3][i2 - o[3]])
        return np.concatenate([*x, kappa])

    return draw


def lp_value(spec, conf, alloc, mu1, mu2):
    value, _ = best_weighted_point(rate_bounds_gaussian(spec, alloc, conf), mu1, mu2)
    return value


class TestSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("gains1", [[float("nan")], [0.1]]), ("gains2", [[1.0], [float("inf")]]),
        ("gains1", [[-1.0], [0.1]]), ("pbar1", float("inf")), ("pbar2", float("nan")),
        ("pbar2", -1.0),
    ])
    def test_nonfinite_or_negative_input_rejected(self, field, value):
        args = dict(gains1=[[1.0], [0.1]], gains2=[[1.0], [0.1]], pbar1=10.0, pbar2=10.0)
        args[field] = value
        with pytest.raises(ValueError, match=field):
            GaussianMacSpec(two_state(), d1=1, d2=0, **args)


    def test_delay_ordering_rejected(self):
        gains = [[1.0], [0.1]]
        with pytest.raises(ValueError, match="d1 >= d2"):
            GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, 1, 2)
        with pytest.raises(ValueError, match="d1 >= d2"):
            GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, 5, math.inf)


class TestInfiniteDelay:
    LINKS = ConferencingConfig(0.3, 0.0)

    @staticmethod
    def spec(d1, d2):
        gains = [[1.0], [0.1]]
        return GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, d1, d2)

    def test_weights_are_the_exact_limit(self):
        exact = self.spec(math.inf, 2)
        assert (exact.d1, exact.d2) == (math.inf, 2)
        w2, w3 = exact.state_weights()
        pi = exact.chain.pi
        assert np.array_equal(w2, pi[:, None] * pi[None, :])
        assert np.abs(w3 - pi[:, None, None] * w3.sum(axis=0)[None]).max() <= 1e-15
        # (400, 2) is off the limit by K^398's distance from pi, here rounding
        tol = np.abs(n_step_matrix(exact.chain, 398) - pi).max() + 1e-15
        w2_far, w3_far = self.spec(400, 2).state_weights()
        assert np.abs(w2 - w2_far).max() <= tol and np.abs(w3 - w3_far).max() <= tol

    @pytest.mark.parametrize("d2", [2, math.inf])
    def test_solves_like_a_long_finite_delay(self, d2):
        cfg = SolverConfig(max_steps=4800)
        spec = self.spec(math.inf, d2)
        res = maximize_weighted_rate(spec, self.LINKS, 1.0, 1.0, cfg)
        far = maximize_weighted_rate(self.spec(400, 400 if d2 == math.inf else d2), self.LINKS,
                                     1.0, 1.0, cfg)
        assert res.flag == "converged" and feasible(spec, res.alloc)
        assert abs(res.value - far.value) <= 1e-9


class TestRateBounds:
    def test_zero_power_gives_offsets_only(self):
        b = rate_bounds_gaussian(scalar_spec(), Allocation.zeros(1, 1), ConferencingConfig(0.4, 0.7))
        assert (b.b1, b.b2, b.b12, b.bsum) == (0.4, 0.7, 1.1, 0.0)

    def test_full_correlation_kills_cross_term(self):
        spec = reference_spec()
        P1 = np.array([[12.0], [8.0]])
        P2 = np.zeros((2, 2, 1))
        P2[0, 0, 0], P2[1, 1, 0] = 9.0, 11.0
        alloc = Allocation(P1, P1.copy(), P2, P2.copy())
        b = rate_bounds_gaussian(spec, alloc, NO_LINKS)
        w3 = spec.state_weights()[1]
        g2 = spec.gains1[None, None, :, 0] ** 2
        expect = (
            w3 * 0.5 * np.log2(1.0 + g2 * (P1[:, None, 0, None] + P2[:, :, None, 0]))
        ).sum()
        assert abs(b.bsum - expect) <= 1e-12
        assert abs(b.bsum - b.b12) <= 1e-12  # same argument when gamma = P

    def test_scalar_closed_form(self):
        spec = scalar_spec()
        alloc = Allocation([[10.0]], [[0.0]], [[[10.0]]], [[[0.0]]])
        b = rate_bounds_gaussian(spec, alloc, NO_LINKS)
        assert abs(b.bsum - 0.5 * math.log2(41.0)) <= 1e-12
        assert abs(0.5 * math.log2(41.0) - 2.679) <= 1e-3

    def test_infeasible_alloc_raises(self):
        spec = scalar_spec()
        bad = Allocation([[10.0]], [[10.1]], [[[10.0]]], [[[0.0]]])
        with pytest.raises(FeasibilityError, match="gamma1"):
            rate_bounds_gaussian(spec, bad, NO_LINKS)

    def test_complex_convention_doubles(self):
        alloc = Allocation([[10.0]], [[0.0]], [[[10.0]]], [[[0.0]]])
        real = rate_bounds_gaussian(scalar_spec(), alloc, NO_LINKS)
        cplx = rate_bounds_gaussian(scalar_spec(convention="complex"), alloc, NO_LINKS)
        assert abs(cplx.bsum - 2 * real.bsum) <= 1e-12


def per_cell_bounds(spec, alloc, c12, c21):
    """The four caps summed cell by cell in plain Python."""
    _, w3 = spec.state_weights()
    wA = spec.chain.pi[:, None] * n_step_matrix(spec.chain, spec.d1)  # pi(a1) K^d1[a1, s]
    L, k, n_sub = spec.log_factor, spec.k, spec.n_sub
    G1, G2 = spec.gains1, spec.gains2
    b1 = b2 = b12 = bsum = 0.0
    for a1 in range(k):
        for s_ in range(k):
            for n in range(n_sub):
                b1 += wA[a1, s_] * L * math.log2(1 + G1[s_, n] ** 2 * alloc.gamma1[a1, n])
        for a2 in range(k):
            for s_ in range(k):
                for n in range(n_sub):
                    g1, g2 = alloc.gamma1[a1, n], alloc.gamma2[a1, a2, n]
                    p1, p2 = alloc.P1[a1, n], alloc.P2[a1, a2, n]
                    h1, h2 = G1[s_, n], G2[s_, n]
                    w = w3[a1, a2, s_] * L
                    b2 += w * math.log2(1 + h2**2 * g2)
                    b12 += w * math.log2(1 + h1**2 * g1 + h2**2 * g2)
                    cross = 2 * h1 * h2 * math.sqrt((p1 - g1) * (p2 - g2))
                    bsum += w * math.log2(1 + h1**2 * p1 + h2**2 * p2 + cross)
    return b1 + c12, b2 + c21, b12 + c12 + c21, bsum


class TestBoundsKernel:
    def test_bounds_match_per_cell_reference(self):
        rng = np.random.default_rng(17)
        for spec, conf in ((reference_spec(), ConferencingConfig(0.3, 0.1)),
                           (three_state_spec(), THREE_LINKS)):
            allocs = [random_feasible_alloc(spec, rng) for _ in range(6)]
            c12, c21 = conf.c12, conf.c21
            b = _bounds(spec, (c12, c21, c12 + c21, 0.0), *(np.array(x) for x in zip(*(
                (a.gamma1, a.P1 - a.gamma1, a.gamma2, a.P2 - a.gamma2) for a in allocs
            ))))
            for t, alloc in enumerate(allocs):
                ref = per_cell_bounds(spec, alloc, c12, c21)
                single = rate_bounds_gaussian(spec, alloc, conf)
                for i, name in enumerate(("b1", "b2", "b12", "bsum")):
                    assert abs(b[i, t] - ref[i]) <= 1e-12
                    assert abs(getattr(single, name) - ref[i]) <= 1e-12

    def test_gradients_match_central_differences(self):
        # the barrier of the kappa form: finite and infinite links, a common
        # rate, and an encoder with no power, at several values of t
        inf = float("inf")
        problems = np.array([(0.6, 0.8, 0.2, 0.1, 0.0), (1.0, 0.3, inf, 0.1, 0.4),
                             (0.0, 1.0, 0.5, inf, 0.0)])
        for spec in (three_state_spec(), GaussianMacSpec(
                two_state(), [[1.0, 0.4], [0.1, 0.8]], [[0.6, 0.3], [0.9, 0.2]],
                0.0, 6.0, 1, 0, "real")):
            # each problem from the even start and two seeded ones
            bar = _Barrier(spec, np.repeat(problems, 3, axis=0))
            starts = [gaussian._even_start(bar), *(seeded_start(3, i)(bar) for i in (1, 2))]
            Z = bar.start(np.tile(starts, (len(problems), 1)))
            rows, t = np.arange(len(Z)), np.resize([1.0, 30.0, 7.0], len(Z))
            g, H = bar.derivatives(Z, rows, t)

            def f(points):
                return bar.ladder(points, np.zeros_like(points), rows, t)[0][:, 0]

            for v in range(Z.shape[1]):
                h = 1e-6 * np.maximum(np.abs(Z[:, v]), 1e-3)
                step = np.zeros_like(Z)
                step[:, v] = h
                live = bar.rlive[:, v - Z.shape[1]] if v >= Z.shape[1] - 2 else np.ones(len(Z), bool)
                numeric = (f(Z + step) - f(Z - step)) / (2 * h)
                assert np.allclose(g[live, v], numeric[live], rtol=1e-6, atol=1e-6)
                numeric = (bar.derivatives(Z + step, rows, t)[0]
                           - bar.derivatives(Z - step, rows, t)[0]) / (2 * h[:, None])
                assert np.allclose(H[live, v], numeric[live], rtol=1e-5, atol=1e-5)


class TestFeasible:
    def test_zero_alloc(self):
        assert feasible(scalar_spec(), Allocation.zeros(1, 1))

    def test_gamma_box_violation_reports_cell(self):
        spec = reference_spec()
        alloc = Allocation.zeros(2, 1)
        alloc.gamma1[1, 0] = 0.1
        report = feasible(spec, alloc)
        assert not report
        assert "gamma1" in report.violation and "(1, 0)" in report.violation

    def test_budget_met_with_equality(self):
        spec = reference_spec()
        P1 = np.full((2, 1), 10.0)  # pi-weighted sum exactly 10
        P2 = np.zeros((2, 2, 1))
        P2[0, 0, 0] = P2[1, 1, 0] = 10.0
        assert feasible(spec, Allocation(P1, 0 * P1, P2, 0 * P2))

    def test_budget_violation_reports_encoder(self):
        spec = scalar_spec()
        report = feasible(spec, Allocation([[10.5]], [[0.0]], [[[1.0]]], [[[0.0]]]))
        assert not report and "encoder-1" in report.violation


class TestMaximizeWeightedRate:
    def test_single_user_full_power(self):
        res = maximize_weighted_rate(scalar_spec(), NO_LINKS, 1.0, 0.0)
        assert abs(res.value - 0.5 * math.log2(11.0)) <= 1e-6
        assert abs(0.5 * math.log2(11.0) - 1.730) <= 1e-3
        assert abs(res.alloc.gamma1[0, 0] - 10.0) <= 1e-6

    def test_zero_budgets(self):
        spec = GaussianMacSpec(single_state(), [[1.0]], [[1.0]], 0.0, 0.0, 0, 0, "real")
        res = maximize_weighted_rate(spec, NO_LINKS, 1.0, 1.0)
        assert res.value == 0.0

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            maximize_weighted_rate(scalar_spec(), NO_LINKS, 0.0, 0.0)

    def test_non_finite_weights_rejected(self):
        # an infinite weight used to solve to a NaN value
        for mu1, mu2 in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="finite"):
                solve_weighted(scalar_spec(), [(1.0, 1.0, 0.0, 0.0, 0.0), (mu1, mu2, 0.0, 0.0, 0.0)])

    def test_solver_matches_grid_oracle(self):
        # refined dense grid over (gamma1, gamma2) at pinned full power;
        # full power is optimal because every cap is nondecreasing in P
        rng = np.random.default_rng(123)
        for trial in range(5):
            g1, g2 = rng.uniform(0.3, 1.8, 2)
            p1, p2 = rng.uniform(1.0, 15.0, 2)
            c12 = float(rng.choice([0.0, 0.4]))
            c21 = float(rng.choice([0.0, 0.8]))
            mu1, mu2 = rng.uniform(0.1, 1.0, 2)
            spec = scalar_spec(g1, g2, p1, p2)
            res = maximize_weighted_rate(spec, ConferencingConfig(c12, c21), mu1, mu2)
            oracle = _grid_oracle(g1, g2, p1, p2, c12, c21, mu1, mu2)
            assert abs(res.value - oracle) <= 1e-3

    def test_deterministic_in_seed(self):
        spec, conf = reference_spec(), ConferencingConfig(0.3, 0.1)
        cfg = SolverConfig(max_steps=1440)
        a = maximize_weighted_rate(spec, conf, 0.6, 1.0, cfg)
        b = maximize_weighted_rate(spec, conf, 0.6, 1.0, cfg)
        assert a.value == b.value
        assert np.array_equal(a.alloc.P2, b.alloc.P2)
        assert a.flag in ("converged", "budget-exhausted")

    def test_monotone_in_budgets_and_links(self):
        cfg = SolverConfig(max_steps=2250)
        base = dict(p1=4.0, p2=4.0, c12=0.1, c21=0.1)
        val0 = maximize_weighted_rate(
            scalar_spec(1, 1, base["p1"], base["p2"]),
            ConferencingConfig(base["c12"], base["c21"]), 1, 1, cfg,
        ).value
        for bump in ("p1", "p2", "c12", "c21"):
            kw = dict(base)
            kw[bump] = kw[bump] + 2.0
            val = maximize_weighted_rate(
                scalar_spec(1, 1, kw["p1"], kw["p2"]), ConferencingConfig(kw["c12"], kw["c21"]),
                1, 1, cfg,
            ).value
            assert val >= val0 - 1e-6


def _grid_oracle(g1, g2, p1, p2, c12, c21, mu1, mu2, n=1001, r0=0.0):
    def value(gam1, gam2):
        b1 = 0.5 * np.log2(1 + g1 * g1 * gam1) + c12
        b2 = 0.5 * np.log2(1 + g2 * g2 * gam2) + c21
        b12 = 0.5 * np.log2(1 + g1 * g1 * gam1 + g2 * g2 * gam2) + c12 + c21
        bs = 0.5 * np.log2(
            1 + g1 * g1 * p1 + g2 * g2 * p2 + 2 * g1 * g2 * np.sqrt((p1 - gam1) * (p2 - gam2))
        ) - r0
        cap = np.minimum(b12, bs)
        if mu1 >= mu2:
            return np.minimum(
                np.minimum(mu1 * b1 + mu2 * b2, (mu1 - mu2) * b1 + mu2 * cap), mu1 * cap
            )
        return np.minimum(
            np.minimum(mu1 * b1 + mu2 * b2, (mu2 - mu1) * b2 + mu1 * cap), mu2 * cap
        )

    x = np.linspace(0, p1, n)
    y = np.linspace(0, p2, n)
    V = value(x[:, None], y[None, :])
    i, j = np.unravel_index(np.argmax(V), V.shape)
    lo1, hi1 = max(x[i] - p1 / (n - 1), 0), min(x[i] + p1 / (n - 1), p1)
    lo2, hi2 = max(y[j] - p2 / (n - 1), 0), min(y[j] + p2 / (n - 1), p2)
    V2 = value(np.linspace(lo1, hi1, n)[:, None], np.linspace(lo2, hi2, n)[None, :])
    return max(V.max(), V2.max())


class TestConcavityAndScaling:
    def test_concavity_certificate(self):
        spec, conf = reference_spec(), ConferencingConfig(0.2, 0.5)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_feasible_alloc(spec, rng)
            b = random_feasible_alloc(spec, rng)
            lam = rng.uniform(0.05, 0.95)
            blend = Allocation(
                lam * a.P1 + (1 - lam) * b.P1,
                lam * a.gamma1 + (1 - lam) * b.gamma1,
                lam * a.P2 + (1 - lam) * b.P2,
                lam * a.gamma2 + (1 - lam) * b.gamma2,
            )
            va = lp_value(spec, conf, a, 0.8, 1.0)
            vb = lp_value(spec, conf, b, 0.8, 1.0)
            vm = lp_value(spec, conf, blend, 0.8, 1.0)
            assert vm >= lam * va + (1 - lam) * vb - 1e-9

    def test_gain_power_scaling_invariance(self):
        rng = np.random.default_rng(21)
        spec, conf = reference_spec(), ConferencingConfig(0.1, 0.3)
        alloc = random_feasible_alloc(spec, rng)
        alpha = 3.7
        scaled_spec = GaussianMacSpec(
            two_state(),
            alpha * spec.gains1,
            alpha * spec.gains2,
            spec.pbar1 / alpha**2,
            spec.pbar2 / alpha**2,
            2,
            2,
            "real",
        )
        scaled = Allocation(
            alloc.P1 / alpha**2, alloc.gamma1 / alpha**2,
            alloc.P2 / alpha**2, alloc.gamma2 / alpha**2,
        )
        b0 = rate_bounds_gaussian(spec, alloc, conf)
        b1 = rate_bounds_gaussian(scaled_spec, scaled, conf)
        for name in ("b1", "b2", "b12", "bsum"):
            assert abs(getattr(b0, name) - getattr(b1, name)) <= 1e-9


class TestTraceBoundary:
    def test_infinite_links_trace_on_total_line(self):
        inf = float("inf")
        points = trace_boundary(reference_spec(), ConferencingConfig(inf, inf), 6,
                                SolverConfig(max_steps=3600))
        values = [p.point.r1 + p.point.r2 for p in points]
        assert max(values) - min(values) <= 2e-3
        assert abs(max(values) - 1.498077) <= 0.01

    def test_symmetric_spec_symmetric_boundary(self):
        # even direction count: mirrored weight pairs, no exact diagonal whose
        # vertex tie-break would deliberately pick the r1-heavy corner
        pts = trace_boundary(reference_spec(), ConferencingConfig(0.3, 0.3), 6,
                             SolverConfig(max_steps=3600))
        got = sorted((p.point.r1, p.point.r2) for p in pts)
        mirrored = sorted((b, a) for a, b in got)
        for (a1, a2), (b1, b2) in zip(got, mirrored):
            assert abs(a1 - b1) <= 5e-3 and abs(a2 - b2) <= 5e-3

    def test_requires_two_directions(self):
        with pytest.raises(ValueError):
            trace_boundary(reference_spec(), NO_LINKS, 1)


def mixed_problems():
    """40 problems differing in weights, links and common rate."""
    inf = float("inf")
    return [
        (*mu, c12, c21, r0)
        for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (math.cos(1.2), math.sin(1.2)), (1.0, 1.0))
        for c12, c21 in ((0.0, 0.0), (0.3, 0.1), (inf, inf), (0.9, 0.0))
        for r0 in (0.0, 0.3)
    ]


class TestBatchedSolver:
    CFG = SolverConfig(max_steps=540)

    # each case: a spec and the links it is solved at
    @pytest.mark.parametrize("spec", [(reference_spec(), ConferencingConfig(0.3, 0.1)),
                                      (three_state_spec(), THREE_LINKS)])
    def test_trace_points_equal_solo_solves(self, spec):
        spec, conf = spec
        points = trace_boundary(spec, conf, 5, self.CFG)
        assert len(points) >= 2
        for p in points:
            solo = maximize_weighted_rate(spec, conf, math.cos(p.theta), math.sin(p.theta),
                                          self.CFG)
            assert (solo.value, solo.point, solo.flag) == (p.value, p.point, p.flag)

    def test_common_message_points_equal_solo_solves(self):
        # the r0 slice of the common-message region: no link offsets, and the
        # total cap lowered by r0
        spec = reference_spec()
        problems = [(math.cos(t), math.sin(t), 0.0, 0.0, 0.3) for t in _thetas(4)]
        for problem, res in zip(problems, solve_weighted(spec, problems, self.CFG)):
            solo, = solve_weighted(spec, [problem], self.CFG)
            assert (solo.value, solo.point, solo.flag) == (res.value, res.point, res.flag)

    @pytest.mark.parametrize("spec,config", [
        (reference_spec(), CFG),
        (three_state_spec(), CFG),
        (scalar_spec(p1=0.0, p2=10.0), CFG),
        (scalar_spec(), SolverConfig(max_steps=540)),
    ])
    def test_mixed_batch_equals_solo_solves(self, spec, config):
        # problems differing in weights, links and common rate share one
        # batched solve; every result must be exactly the problem's own solve
        problems = mixed_problems()
        batch = solve_weighted(spec, problems, config)
        assert len(batch) == len(problems)
        for problem, got in zip(problems, batch):
            solo, = solve_weighted(spec, [problem], config)
            assert (got.value, got.point, got.flag) == (solo.value, solo.point, solo.flag)
            for name in ("P1", "gamma1", "P2", "gamma2"):
                assert np.array_equal(getattr(got.alloc, name), getattr(solo.alloc, name))

    @pytest.mark.parametrize("bad", [
        (0.0, 0.0, 0.0, 0.0, 0.0), (-0.1, 1.0, 0.0, 0.0, 0.0), (float("nan"), 1.0, 0.0, 0.0, 0.0),
        (1.0, 1.0, 0.0, 0.0, -0.1), (1.0, 1.0, -0.2, 0.0, 0.0),
    ])
    def test_bad_problem_rejected_before_solving(self, monkeypatch, bad):
        def unreachable(*args):
            raise AssertionError("the solver ran before the problems were checked")

        monkeypatch.setattr(gaussian, "_solve", unreachable)
        with pytest.raises(ValueError):
            solve_weighted(reference_spec(), [(1.0, 0.0, 0.0, 0.0, 0.0), bad], self.CFG)

    def test_empty_problem_list(self):
        assert solve_weighted(reference_spec(), [], self.CFG) == []

    def test_unbounded_links(self):
        spec, conf = reference_spec(), ConferencingConfig(float("inf"), float("inf"))
        for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            res = maximize_weighted_rate(spec, conf, *mu, self.CFG)
            assert math.isfinite(res.value)
            # only the total cap binds: each single-user value is the sum-rate ceiling
            assert abs(res.point.r1 + res.point.r2 - 1.498077) <= 0.01
        for p in trace_boundary(spec, conf, 4, self.CFG):
            assert math.isfinite(p.value)

    def test_zero_power_encoder(self):
        # encoder 1 silent: it contributes only its link, encoder 2 gets the
        # point-to-point capacity
        spec, conf = scalar_spec(p1=0.0, p2=10.0), ConferencingConfig(0.2, 0.1)
        r1 = maximize_weighted_rate(spec, conf, 1.0, 0.0, self.CFG)
        r2 = maximize_weighted_rate(spec, conf, 0.0, 1.0, self.CFG)
        assert abs(r1.value - 0.2) <= 1e-12
        assert abs(r2.value - 0.5 * math.log2(11.0)) <= 1e-9
        assert np.all(r2.alloc.P1 == 0.0)
        for p in trace_boundary(spec, conf, 3, self.CFG):
            assert math.isfinite(p.value)

    def test_two_states_two_subchannels(self):
        spec = GaussianMacSpec(
            two_state(), [[1.0, 0.4], [0.1, 0.8]], [[0.6, 0.3], [0.9, 0.2]],
            4.0, 6.0, 1, 0, "real",
        )
        conf = ConferencingConfig(0.1, 0.2)
        for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            res = maximize_weighted_rate(spec, conf, *mu, self.CFG)
            assert feasible(spec, res.alloc)
            b = rate_bounds_gaussian(spec, res.alloc, conf)
            # the reported value is the LP value at the reported allocation
            assert abs(res.value - lp_value(spec, conf, res.alloc, *mu)) <= 1e-12
            assert res.point.r1 <= b.b1 + 1e-12 and res.point.r2 <= b.b2 + 1e-12
        pts = trace_boundary(spec, conf, 4, self.CFG)
        assert [p.point.r1 for p in pts] == sorted((p.point.r1 for p in pts), reverse=True)

    def test_symmetric_problem_ends_symmetric(self):
        # one state, equal budgets and gains, mu1 = mu2: the barrier's centre
        # is unique and swap-symmetric, so both encoders end with one
        # allocation, and the value is the free optimum's. A budget or gain
        # 1e-9 above the other's moves the value by less than 1e-6.
        cfg = SolverConfig(max_steps=3600)
        spec, conf = scalar_spec(), ConferencingConfig(0.2, 0.2)
        near = [scalar_spec(p2=10.0 + 1e-9), scalar_spec(g2=1.0 + 1e-9)]
        sym = maximize_weighted_rate(spec, conf, 1.0, 1.0, cfg)
        assert _is_symmetric(sym.alloc)
        assert abs(sym.value - _grid_oracle(1, 1, 10, 10, 0.2, 0.2, 1, 1)) <= 1e-3
        for free in (maximize_weighted_rate(s, conf, 1.0, 1.0, cfg) for s in near):
            assert abs(sym.value - free.value) <= 1e-6
        # from one asymmetric seeded start alone, the solve ends symmetric too
        problem = (1.0, 1.0, 0.2, 0.2, 0.0)
        seeded = seeded_start(5, 1)(_Barrier(spec, np.array([problem])))
        assert seeded[0] != seeded[2] and seeded[1] != seeded[3]  # gamma, delta
        again, = gaussian._solve(spec, [problem], cfg, seeded_start(5, 1))
        assert _is_symmetric(again.alloc)
        assert abs(again.value - sym.value) <= 1e-9

    def test_unequal_weights_not_tied(self):
        # unequal weights make the optimum asymmetric: one shared allocation
        # reaches only 2.1477 of about 2.208 bits here
        res = maximize_weighted_rate(scalar_spec(), ConferencingConfig(0.3, 0.3), 1.0, 0.6,
                                     SolverConfig(max_steps=7200))
        assert not _is_tied(res.alloc)
        assert abs(res.value - _grid_oracle(1, 1, 10, 10, 0.3, 0.3, 1.0, 0.6)) <= 1e-3

    def test_two_state_spec_not_tied(self):
        # a symmetric two-state spec: the encoders' cell layouts differ, so
        # the rows are neither tied nor rejected
        spec, conf = reference_spec(), ConferencingConfig(0.2, 0.2)
        res = maximize_weighted_rate(spec, conf, 1.0, 1.0, self.CFG)
        assert feasible(spec, res.alloc)
        assert abs(res.value - lp_value(spec, conf, res.alloc, 1.0, 1.0)) <= 1e-12
        # a tie would make encoder 1's cells equal the first ones of encoder 2's
        m1 = res.alloc.P1.size
        assert not all(
            np.array_equal(a.ravel(), b.ravel()[:m1])
            for a, b in ((res.alloc.P1, res.alloc.P2), (res.alloc.gamma1, res.alloc.gamma2))
        )


def _is_tied(alloc) -> bool:
    """Whether a single-state allocation gives both encoders the same cells."""
    return np.array_equal(alloc.P1.ravel(), alloc.P2.ravel()) and np.array_equal(
        alloc.gamma1.ravel(), alloc.gamma2.ravel()
    )


def _is_symmetric(alloc, rtol=1e-9) -> bool:
    """Whether a single-state allocation gives both encoders the same cells,
    up to rounding."""
    return np.allclose(alloc.P1.ravel(), alloc.P2.ravel(), rtol=rtol, atol=0) and np.allclose(
        alloc.gamma1.ravel(), alloc.gamma2.ravel(), rtol=rtol, atol=0
    )


class TestZeroBudget:
    """An encoder with no power on the two-state instance at the shipped
    region budget: its left-out cells must not stall the other encoder's solve."""

    CFG = SolverConfig(max_steps=4800)
    R2_ALONE = 0.964242340852  # encoder 2 alone at full power, c12 = 0.3

    def values(self, pbar1, pbar2, gains=((1.0,), (0.1,))):
        spec = GaussianMacSpec(two_state(), gains, gains, pbar1, pbar2, 2, 2, "real")
        problems = [(*mu, 0.3, 0.0, 0.0) for mu in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))]
        return [res.value for res in solve_weighted(spec, problems, self.CFG)]

    def test_silent_encoder_1(self):
        both, r2, _ = self.values(0.0, 10.0)
        assert both >= r2 - 1e-9
        assert abs(both - self.R2_ALONE) <= 1e-6 and abs(r2 - self.R2_ALONE) <= 1e-6

    def test_silent_encoder_2(self):
        # symmetric gains: encoder 1 alone reaches encoder 2's single-user value
        both, _, r1 = self.values(10.0, 0.0)
        assert both >= r1 - 1e-9
        assert abs(both - self.R2_ALONE) <= 1e-6 and abs(r1 - self.R2_ALONE) <= 1e-6

    @pytest.mark.parametrize("pbar,gains", [((0.0, 0.0), ((1.0,), (0.1,))),
                                            ((10.0, 10.0), ((0.0,), (0.0,)))])
    def test_no_power_or_no_gain_is_zero(self, pbar, gains):
        # the total cap carries no link offset, so every weight gets value 0
        assert self.values(*pbar, gains=gains) == [0.0, 0.0, 0.0]


class TestBarrierEdges:
    """Instances the former supergradient ascent stopped short on or never ran."""

    def test_near_zero_budget_reaches_the_sum_face(self):
        # pbar1 = 1e-9 at c12 = 0.3, weights (1, 1): the former ascent stopped at 0.9326
        spec = GaussianMacSpec(two_state(), [[1.0], [0.1]], [[1.0], [0.1]], 1e-9, 10.0,
                               2, 2, "real")
        res = maximize_weighted_rate(spec, ConferencingConfig(0.3, 0.0), 1.0, 1.0,
                                     SolverConfig(max_steps=7200))
        assert res.value >= 0.964247 and res.flag == "converged"
        assert feasible(spec, res.alloc)

    def test_large_budgets_stay_feasible(self):
        # the readings are scaled up to spend each budget: at 1e8, spending
        # it exactly rounded past feasible()'s absolute slack of 1e-9
        spec = GaussianMacSpec(two_state(), [[1.0], [0.1]], [[1.0], [0.1]], 1e8, 1e8,
                               2, 1, "real")
        for mu in ((1.0, 1.0), (1.0, 0.0), (0.3, 1.0)):
            res = maximize_weighted_rate(spec, ConferencingConfig(0.3, 0.1), *mu,
                                         SolverConfig(max_steps=7200))
            assert res.flag == "converged" and feasible(spec, res.alloc)

    # each case: a spec and the links it is solved at
    @pytest.mark.parametrize("spec", [
        (three_state_spec(), THREE_LINKS),
        (three_state_spec(), ConferencingConfig(float("inf"), 0.1)),
        (three_state_spec(), ConferencingConfig(float("inf"), float("inf"))),
        (reference_spec(), ConferencingConfig(float("inf"), float("inf"))),
    ])
    def test_solved_whatever_the_starts(self, spec):
        # k = 3 with two subchannels, and infinite links: every problem
        # converges from the even start, and each seeded start alone reaches
        # the same value, which the one start rests on
        spec, conf = spec
        problems = [(*mu, conf.c12, conf.c21, r0)
                    for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1.0, 1.0)) for r0 in (0.0, 0.2)]
        even = gaussian._solve(spec, problems, SolverConfig())
        seeded = [gaussian._solve(spec, problems, SolverConfig(), seeded_start(seed, i))
                  for seed in (0, 40) for i in (1, 2)]
        for run in seeded:  # each start takes its own path, to its own final bits
            assert any(not np.array_equal(a.alloc.P2, b.alloc.P2) for a, b in zip(even, run))
        for problem, a, *others in zip(problems, even, *seeded):
            assert a.flag == "converged"
            for b in others:
                assert b.flag == "converged" and abs(a.value - b.value) <= 1e-8
            assert feasible(spec, a.alloc)
            bounds = rate_bounds_gaussian(spec, a.alloc, conf)
            value, _ = best_weighted_point(RateBounds(
                bounds.b1, bounds.b2, bounds.b12, bounds.bsum - problem[4]), *problem[:2])
            assert abs(a.value - value) <= 1e-12
        if math.isinf(conf.c12) and math.isinf(conf.c21):
            # only the total cap binds: each value is max(mu) times the
            # sum-rate ceiling less r0
            ceilings = [res.value / max(p[:2]) + p[4] for p, res in zip(problems, even)]
            assert max(ceilings) - min(ceilings) <= 1e-8

    def test_criterion_3_instances_solved_whatever_the_starts(self):
        # acceptance criterion 3's 20 scalar instances at their seeds: each
        # seeded start alone converges to the even start's value
        rng = np.random.default_rng(42)
        for trial in range(20):
            g1, g2, p1, p2 = (float(rng.uniform(*bounds))
                              for bounds in ((0.2, 2.0), (0.2, 2.0), (0.5, 20.0), (0.5, 20.0)))
            c12 = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
            c21 = float(rng.choice([0.0, 0.3, 0.9]))
            mu = rng.uniform(0.05, 1.0, 2)
            spec = scalar_spec(g1, g2, p1, p2)
            problem = [(float(mu[0]), float(mu[1]), c12, c21, 0.0)]
            even, = gaussian._solve(spec, problem, SolverConfig())
            assert even.flag == "converged"
            for i in (1, 2):
                res, = gaussian._solve(spec, problem, SolverConfig(), seeded_start(trial, i))
                assert res.flag == "converged" and abs(res.value - even.value) <= 1e-8

    def test_every_solver_key_is_used(self, monkeypatch):
        # max_steps caps the Newton steps, one derivatives call each, and
        # every key of the YAML solver section moves max_steps
        spec = three_state_spec()
        calls = []
        derivatives = _Barrier.derivatives
        monkeypatch.setattr(_Barrier, "derivatives",
                            lambda bar, *args: calls.append(1) or derivatives(bar, *args))
        for steps in (1, 6, 18):
            calls.clear()
            res = maximize_weighted_rate(spec, THREE_LINKS, 0.6, 0.8, SolverConfig(max_steps=steps))
            assert res.flag == "budget-exhausted" and feasible(spec, res.alloc)
            assert len(calls) == steps
        base = {"iterations": 300, "rounds": 8, "multistarts": 1}
        steps = _parse_solver({"solver": base}).max_steps
        for key in base:
            assert _parse_solver({"solver": {**base, key: base[key] + 1}}).max_steps != steps
        # the even start and the seeded ones are strictly inside every budget and cone
        bar = _Barrier(spec, np.array([[0.6, 0.8, 0.2, 0.1, 0.0]]))
        for x in (gaussian._even_start(bar), *(seeded_start(seed, i)(bar)
                                                 for seed in (0, 1) for i in (1, 2))):
            assert (x[: bar.o[4]] > 0).all() and (bar.B[:, :-2] @ x < bar.pbar).all()
            i, j, kap = bar.cone
            assert (x[kap] ** 2 < x[i] * x[j]).all()

    def test_common_rate_above_the_total_cap(self):
        # no rate pair is strictly feasible at the start: the start is reported
        spec = reference_spec()
        res, = solve_weighted(spec, [(1.0, 1.0, 0.3, 0.1, 5.0)])
        assert res.flag == "stalled" and res.value == 0.0
        # the largest total cap of scalar_spec(), at full power and full
        # correlation, is (1/2) log2(41) = 2.679 bits: no start has room for 2.7
        assert 0.5 * math.log2(41.0) < 2.7
        res, = solve_weighted(scalar_spec(), [(1.0, 1.0, 0.0, 0.0, 2.7)])
        assert res.flag == "stalled" and res.value == 0.0 and feasible(scalar_spec(), res.alloc)

    @pytest.mark.parametrize("r0", [2.0, 2.5])
    def test_common_rate_with_no_room_at_the_even_start_converges(self, r0):
        # P = 10, c = 0: the even start spends half of each budget, so
        # bsum - r0 <= 0 there and both rates would stay pinned; from it the
        # rows read stalled at 0.4771 (r0 = 2) and 0.0 (r0 = 2.5). Such a
        # problem starts at 98 % of each budget, cone and common share instead
        spec = scalar_spec()
        res, = solve_weighted(spec, [(1.0, 1.0, 0.0, 0.0, r0)])
        assert res.flag == "converged" and feasible(spec, res.alloc)
        assert res.value >= _grid_oracle(1, 1, 10, 10, 0, 0, 1, 1, n=401, r0=r0) - 1e-6

    def test_region_rows_within_their_axis_maxima(self):
        # region_gaussian.yaml: no trace point may beat its own links' max_r1
        # or max_r2, which the former ascent's short axis solves did by up to 3.7e-4
        cfg = load_config(str(CONFIGS / "region_gaussian.yaml"))
        out = run_region_gaussian(cfg)
        col = {name: i for i, name in enumerate(out.header)}
        for row in out.rows:
            assert row[col["r1"]] <= row[col["max_r1"]] + 1e-9
            assert row[col["r2"]] <= row[col["max_r2"]] + 1e-9
            assert row[col["flag"]] == "converged"

    def test_sweep_rows_rise_with_c_to_the_unbounded_row(self):
        # sweep_sumrate.yaml, per delay case: the sum rate is nondecreasing in
        # c, and no finite link beats the unbounded links
        cfg = load_config(str(CONFIGS / "sweep_sumrate.yaml"))
        rows = run_sweep_sumrate(cfg).rows
        per_case = len(cfg.objects["c_list"]) + 1
        assert len(rows) == per_case * len(cfg.objects["cases"])
        for i in range(0, len(rows), per_case):
            case = rows[i: i + per_case]
            assert [row[2] for row in case] == [*cfg.objects["c_list"], math.inf]
            sums = [row[3] for row in case]
            assert all(b >= a - 1e-9 for a, b in zip(sums, sums[1:]))
            assert all(s <= sums[-1] + 1e-9 for s in sums[:-1])
            assert all(row[4] == "converged" for row in case)


class TestOneStart:
    """One start and one step budget: a problem left short of converged
    continues on its own path, and a converged one never reaches its cap."""

    BUDGETS = (6, 18, 60, 180, 540, 2160)

    @pytest.fixture(scope="class")
    def solves(self):
        spec = three_state_spec()
        return {steps: solve_weighted(spec, mixed_problems(), SolverConfig(max_steps=steps))
                for steps in self.BUDGETS}

    def test_converged_results_never_reach_their_cap(self, solves):
        # a converged result is bit-identical under any larger budget
        longest = solves[self.BUDGETS[-1]]
        for steps in self.BUDGETS[:-1]:
            for res, far in zip(solves[steps], longest):
                if res.flag == "converged":
                    assert (res.value, res.point, res.flag) == (far.value, far.point, far.flag)
                    for name in ("P1", "gamma1", "P2", "gamma2"):
                        assert np.array_equal(getattr(res.alloc, name), getattr(far.alloc, name))

    def test_more_steps_lower_no_value(self, solves):
        # measured on this instance: each budget continues the shorter one's
        # path, and all 40 problems converge within 540 steps
        for short, more in zip(self.BUDGETS, self.BUDGETS[1:-1]):
            for a, b in zip(solves[short], solves[more]):
                assert b.value >= a.value
        assert all(res.flag == "converged" for res in solves[540])

    def test_converged_run_never_imports_numpy_random(self):
        # no solve draws a random start, converged or left short
        code = ("import sys; from fsmac import maximize_weighted_rate, GaussianMacSpec, "
                "ConferencingConfig, MarkovChain, SolverConfig\n"
                "chain = MarkovChain(['G', 'B'], [[0.9, 0.1], [0.1, 0.9]])\n"
                "spec = GaussianMacSpec(chain, [[1.0], [0.1]], [[1.0], [0.1]], 10.0, 10.0, 2, 2)\n"
                "conf = ConferencingConfig(0.3, 0.1)\n"
                "assert maximize_weighted_rate(spec, conf, 0.6, 0.8).flag == 'converged'\n"
                "short = maximize_weighted_rate(spec, conf, 0.6, 0.8, SolverConfig(max_steps=2))\n"
                "assert short.flag == 'budget-exhausted'\n"
                "print('numpy.random' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestBatchedRunners:
    """The runners' one-call rows on one spec against the loop they
    replaced: a trace and two axis solves per c12, one solve per (delay
    case, c), each a call at its own links."""

    CFG = SolverConfig(max_steps=160)

    def test_region_gaussian_rows_equal_per_spec_loop(self):
        c12s = [0.0, 0.5, float("inf")]
        cfg = SimpleNamespace(objects={
            "spec": reference_spec(), "links": [(c12, 0.1) for c12 in c12s],
            "n_directions": 3, "solver": self.CFG,
        })
        oracle = []
        spec = reference_spec()
        for c12 in c12s:
            conf = ConferencingConfig(c12, 0.1)
            trace = trace_boundary(spec, conf, 3, self.CFG)
            max_r1 = maximize_weighted_rate(spec, conf, 1.0, 0.0, self.CFG).value
            max_r2 = maximize_weighted_rate(spec, conf, 0.0, 1.0, self.CFG).value
            oracle += [
                [c12, conf.c21, tp.theta, tp.point.r1, tp.point.r2, tp.value, tp.flag,
                 max_r1, max_r2, spec.convention]
                for tp in trace
            ]
        assert run_region_gaussian(cfg).rows == oracle

    def test_sweep_sumrate_rows_equal_per_c_loop(self):
        c_list = [0.0, 0.2]

        def spec(d1, d2):
            return GaussianMacSpec(two_state(), [[1.0], [0.1]], [[1.0], [0.1]], 10.0, 10.0,
                                   d1, d2, "real")

        delays = ((2, 1), (0, 0))
        cases = [({"d1_raw": d1, "d2_raw": d2}, spec(d1, d2)) for d1, d2 in delays]
        cfg = SimpleNamespace(objects={"cases": cases, "c_list": c_list, "solver": self.CFG})
        oracle = []
        for d1, d2 in delays:
            for c in [*c_list, float("inf")]:
                res = maximize_weighted_rate(spec(d1, d2), ConferencingConfig(c, c), 1.0, 1.0,
                                             self.CFG)
                oracle.append([d1, d2, c, res.value, res.flag])
        assert run_sweep_sumrate(cfg).rows == oracle

    def test_shipped_files_parse_to_one_spec_per_channel(self):
        # the links are problem data: one spec per experiment or delay case,
        # and none of them carries links
        region = load_config(str(CONFIGS / "region_gaussian.yaml")).objects
        assert isinstance(region["spec"], GaussianMacSpec)
        assert not hasattr(region["spec"], "conf")
        assert region["links"] == [(c12, 0.0) for c12 in (0.0, 0.1, 0.3, 0.5, 0.9)]
        cases = load_config(str(CONFIGS / "sweep_sumrate.yaml")).objects["cases"]
        assert len(cases) == 3
        for dres, spec in cases:
            assert isinstance(spec, GaussianMacSpec) and not hasattr(spec, "conf")
            assert (spec.d1, spec.d2) == (dres["d1"], dres["d2"])


class TestCommonMessageRegion:
    def test_zero_link_conferencing_equals_r0_zero_slice(self):
        spec = reference_spec()
        rng = np.random.default_rng(5)
        for _ in range(5):
            alloc = random_feasible_alloc(spec, rng)
            conf_bounds = rate_bounds_gaussian(spec, alloc, ConferencingConfig(0.0, 0.0))
            comm_bounds = rate_bounds_gaussian(spec, alloc, NO_LINKS)
            for name in ("b1", "b2", "b12", "bsum"):
                assert abs(getattr(conf_bounds, name) - getattr(comm_bounds, name)) <= 1e-9

    def test_gamma_equals_p_collapses_gap(self):
        spec = reference_spec()
        P1 = np.full((2, 1), 10.0)
        P2 = np.zeros((2, 2, 1))
        P2[0, 0, 0] = P2[1, 1, 0] = 10.0
        b = rate_bounds_gaussian(spec, Allocation(P1, P1.copy(), P2, P2.copy()), NO_LINKS)
        assert abs(b.bsum - b.b12) <= 1e-12

    def test_conferencing_point_maps_into_common_region(self):
        # a conferencing rate pair re-expressed as (shared total, residual
        # privates) must be a member of the common-message region at the same
        # allocation
        c12, c21 = 0.25, 0.4
        spec = reference_spec()
        res = maximize_weighted_rate(spec, ConferencingConfig(c12, c21), 1.0, 1.0)
        r1, r2 = res.point.r1, res.point.r2
        assert r1 >= c12 and r2 >= c21  # the regime the substitution targets
        r0_t = c12 + c21
        r1_t = max(0.0, r1 - c12)
        r2_t = max(0.0, r2 - c21)
        b = rate_bounds_gaussian(spec, res.alloc, NO_LINKS)
        assert r1_t <= b.b1 + 1e-9
        assert r2_t <= b.b2 + 1e-9
        assert r1_t + r2_t <= b.b12 + 1e-9
        assert r0_t + r1_t + r2_t <= b.bsum + 1e-9

    def test_r0_slice_shrinks_region(self):
        spec = reference_spec()
        cfg = SolverConfig(max_steps=2250)

        def best_sum(r0):
            problems = [(math.cos(t), math.sin(t), 0.0, 0.0, r0) for t in _thetas(4)]
            return max(res.point.r1 + res.point.r2 for res in solve_weighted(spec, problems, cfg))

        assert best_sum(0.5) <= best_sum(0.0) + 1e-9


class TestLinksAreOffsets:
    """The links are no part of the channel: they only shift the caps, so
    one spec serves every link pair."""

    def test_links_lift_three_caps_by_their_capacities(self):
        spec = three_state_spec()
        rng = np.random.default_rng(11)
        for c12, c21 in ((0.2, 0.1), (0.0, 1.7), (3.1, 0.45)):
            alloc = random_feasible_alloc(spec, rng)
            lifted = rate_bounds_gaussian(spec, alloc, ConferencingConfig(c12, c21))
            bare = rate_bounds_gaussian(spec, alloc, NO_LINKS)
            shift = [getattr(lifted, f) - getattr(bare, f) for f in ("b1", "b2", "b12", "bsum")]
            assert np.allclose(shift, [c12, c21, c12 + c21, 0.0], rtol=0, atol=1e-12)

    def test_one_spec_at_two_link_pairs_equals_a_call_per_pair(self):
        spec, cfg = three_state_spec(), SolverConfig(max_steps=540)
        cases = [(conf, mu) for conf in (THREE_LINKS, ConferencingConfig(0.0, 0.6))
                 for mu in ((1.0, 0.0), (0.6, 0.8), (1.0, 1.0))]
        batch = solve_weighted(spec, [(*mu, conf.c12, conf.c21, 0.0) for conf, mu in cases], cfg)
        for got, (conf, mu) in zip(batch, cases):
            solo = maximize_weighted_rate(spec, conf, *mu, cfg)
            assert (got.value, got.point, got.flag) == (solo.value, solo.point, solo.flag)
            for name in ("P1", "gamma1", "P2", "gamma2"):
                assert np.array_equal(getattr(got.alloc, name), getattr(solo.alloc, name))
