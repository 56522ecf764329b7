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
    GaussianTripleCovariance,
    MarkovChain,
    SolverConfig,
    check_gaussian_markov,
    common_message_bounds_gaussian,
    feasible,
    maximize_weighted_rate,
    n_step_matrix,
    rate_bounds_gaussian,
    solve_weighted,
    trace_boundary,
)
from fsmac import gaussian
from fsmac.config import load_config
from fsmac.experiments import run_region_gaussian, run_sweep_sumrate
from fsmac.gaussian import _Barrier, _bounds, _thetas
from fsmac.regions import RateBounds, best_weighted_point

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_state(g=0.1, b=0.1):
    return MarkovChain(["G", "B"], [[1 - b, b], [g, 1 - g]])


def single_state():
    return MarkovChain(["s"], [[1.0]])


def scalar_spec(g1=1.0, g2=1.0, p1=10.0, p2=10.0, c12=0.0, c21=0.0, convention="real"):
    return GaussianMacSpec(
        single_state(), [[g1]], [[g2]], p1, p2, ConferencingConfig(c12, c21), 0, 0, convention
    )


def reference_spec(c12, c21):
    # two-state instance: powers 10/10, per-state power gains 1 and 0.01
    # (amplitudes 1 and 0.1), switching probability 0.1, both delays 2
    gains = [[1.0], [0.1]]
    return GaussianMacSpec(
        two_state(), gains, gains, 10.0, 10.0, ConferencingConfig(c12, c21), 2, 2, "real"
    )


def three_state_spec(c12=0.2, c21=0.1):
    # three states, two subchannels, distinct delays: every weight table differs
    chain = MarkovChain(["a", "b", "c"], [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.3, 0.6]])
    gains1 = [[1.0, 0.5], [0.3, 0.9], [0.2, 0.1]]
    gains2 = [[0.7, 0.2], [1.1, 0.4], [0.5, 0.5]]
    return GaussianMacSpec(
        chain, gains1, gains2, 5.0, 8.0, ConferencingConfig(c12, c21), 3, 1, "complex"
    )


def random_feasible_alloc(spec, rng):
    k, n = spec.k, spec.n_sub
    w2 = spec.state_weights()[0]
    P1 = rng.random((k, n))
    P1 *= rng.uniform(0.2, 1.0) * spec.pbar1 / max((spec.chain.pi[:, None] * P1).sum(), 1e-12)
    P2 = rng.random((k, k, n))
    P2 *= rng.uniform(0.2, 1.0) * spec.pbar2 / max((w2[:, :, None] * P2).sum(), 1e-12)
    return Allocation(P1, rng.random((k, n)) * P1, P2, rng.random((k, k, n)) * P2)


def lp_value(spec, alloc, mu1, mu2):
    value, _ = best_weighted_point(rate_bounds_gaussian(spec, alloc), mu1, mu2)
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
            GaussianMacSpec(two_state(), conf=ConferencingConfig(), d1=1, d2=0, **args)


    def test_delay_ordering_rejected(self):
        gains = [[1.0], [0.1]]
        with pytest.raises(ValueError, match="d1 >= d2"):
            GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, ConferencingConfig(), 1, 2)
        with pytest.raises(ValueError, match="d1 >= d2"):
            GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, ConferencingConfig(), 5, math.inf)


class TestInfiniteDelay:
    @staticmethod
    def spec(d1, d2):
        gains = [[1.0], [0.1]]
        return GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0,
                               ConferencingConfig(0.3, 0.0), d1, d2)

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
        cfg = SolverConfig(iterations=300, rounds=8, multistarts=1)
        spec = self.spec(math.inf, d2)
        res = maximize_weighted_rate(spec, 1.0, 1.0, cfg)
        far = maximize_weighted_rate(self.spec(400, 400 if d2 == math.inf else d2), 1.0, 1.0, cfg)
        assert res.flag == "converged" and feasible(spec, res.alloc)
        assert abs(res.value - far.value) <= 1e-9


class TestRateBounds:
    def test_zero_power_gives_offsets_only(self):
        spec = scalar_spec(c12=0.4, c21=0.7)
        b = rate_bounds_gaussian(spec, Allocation.zeros(1, 1))
        assert (b.b1, b.b2, b.b12, b.bsum) == (0.4, 0.7, 1.1, 0.0)

    def test_full_correlation_kills_cross_term(self):
        spec = reference_spec(0.0, 0.0)
        P1 = np.array([[12.0], [8.0]])
        P2 = np.zeros((2, 2, 1))
        P2[0, 0, 0], P2[1, 1, 0] = 9.0, 11.0
        alloc = Allocation(P1, P1.copy(), P2, P2.copy())
        b = rate_bounds_gaussian(spec, alloc)
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
        b = rate_bounds_gaussian(spec, alloc)
        assert abs(b.bsum - 0.5 * math.log2(41.0)) <= 1e-12
        assert abs(0.5 * math.log2(41.0) - 2.679) <= 1e-3

    def test_infeasible_alloc_raises(self):
        spec = scalar_spec()
        bad = Allocation([[10.0]], [[10.1]], [[[10.0]]], [[[0.0]]])
        with pytest.raises(FeasibilityError, match="gamma1"):
            rate_bounds_gaussian(spec, bad)

    def test_complex_convention_doubles(self):
        alloc = Allocation([[10.0]], [[0.0]], [[[10.0]]], [[[0.0]]])
        real = rate_bounds_gaussian(scalar_spec(), alloc)
        cplx = rate_bounds_gaussian(scalar_spec(convention="complex"), alloc)
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
        for spec in (reference_spec(0.3, 0.1), three_state_spec()):
            allocs = [random_feasible_alloc(spec, rng) for _ in range(6)]
            b = _bounds(spec, spec.conf.c12, spec.conf.c21, *(np.array(x) for x in zip(*(
                (a.gamma1, a.P1 - a.gamma1, a.gamma2, a.P2 - a.gamma2) for a in allocs
            ))))
            for t, alloc in enumerate(allocs):
                ref = per_cell_bounds(spec, alloc, spec.conf.c12, spec.conf.c21)
                single = rate_bounds_gaussian(spec, alloc)
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
                0.0, 6.0, ConferencingConfig(), 1, 0, "real")):
            bar = _Barrier(spec, problems)
            Z = bar.start(gaussian._starts(bar, 3, range(3)))
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
        spec = reference_spec(0.0, 0.0)
        alloc = Allocation.zeros(2, 1)
        alloc.gamma1[1, 0] = 0.1
        report = feasible(spec, alloc)
        assert not report
        assert "gamma1" in report.violation and "(1, 0)" in report.violation

    def test_budget_met_with_equality(self):
        spec = reference_spec(0.0, 0.0)
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
        res = maximize_weighted_rate(scalar_spec(), 1.0, 0.0)
        assert abs(res.value - 0.5 * math.log2(11.0)) <= 1e-6
        assert abs(0.5 * math.log2(11.0) - 1.730) <= 1e-3
        assert abs(res.alloc.gamma1[0, 0] - 10.0) <= 1e-6

    def test_zero_budgets(self):
        spec = GaussianMacSpec(
            single_state(), [[1.0]], [[1.0]], 0.0, 0.0, ConferencingConfig(), 0, 0, "real"
        )
        res = maximize_weighted_rate(spec, 1.0, 1.0)
        assert res.value == 0.0

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            maximize_weighted_rate(scalar_spec(), 0.0, 0.0)

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
            spec = scalar_spec(g1, g2, p1, p2, c12, c21)
            res = maximize_weighted_rate(spec, mu1, mu2, SolverConfig(seed=trial))
            oracle = _grid_oracle(g1, g2, p1, p2, c12, c21, mu1, mu2)
            assert abs(res.value - oracle) <= 1e-3

    def test_deterministic_in_seed(self):
        spec = reference_spec(0.3, 0.1)
        cfg = SolverConfig(seed=42, iterations=120, rounds=4)
        a = maximize_weighted_rate(spec, 0.6, 1.0, cfg)
        b = maximize_weighted_rate(spec, 0.6, 1.0, cfg)
        assert a.value == b.value
        assert np.array_equal(a.alloc.P2, b.alloc.P2)
        assert a.flag in ("converged", "budget-exhausted")

    def test_monotone_in_budgets_and_links(self):
        cfg = SolverConfig(seed=0, iterations=150, rounds=5)
        base = dict(p1=4.0, p2=4.0, c12=0.1, c21=0.1)
        val0 = maximize_weighted_rate(
            scalar_spec(1, 1, base["p1"], base["p2"], base["c12"], base["c21"]), 1, 1, cfg
        ).value
        for bump in ("p1", "p2", "c12", "c21"):
            kw = dict(base)
            kw[bump] = kw[bump] + 2.0
            val = maximize_weighted_rate(
                scalar_spec(1, 1, kw["p1"], kw["p2"], kw["c12"], kw["c21"]), 1, 1, cfg
            ).value
            assert val >= val0 - 1e-6


def _grid_oracle(g1, g2, p1, p2, c12, c21, mu1, mu2, n=1001):
    def value(gam1, gam2):
        b1 = 0.5 * np.log2(1 + g1 * g1 * gam1) + c12
        b2 = 0.5 * np.log2(1 + g2 * g2 * gam2) + c21
        b12 = 0.5 * np.log2(1 + g1 * g1 * gam1 + g2 * g2 * gam2) + c12 + c21
        bs = 0.5 * np.log2(
            1 + g1 * g1 * p1 + g2 * g2 * p2 + 2 * g1 * g2 * np.sqrt((p1 - gam1) * (p2 - gam2))
        )
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
        spec = reference_spec(0.2, 0.5)
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
            va = lp_value(spec, a, 0.8, 1.0)
            vb = lp_value(spec, b, 0.8, 1.0)
            vm = lp_value(spec, blend, 0.8, 1.0)
            assert vm >= lam * va + (1 - lam) * vb - 1e-9

    def test_gain_power_scaling_invariance(self):
        rng = np.random.default_rng(21)
        spec = reference_spec(0.1, 0.3)
        alloc = random_feasible_alloc(spec, rng)
        alpha = 3.7
        scaled_spec = GaussianMacSpec(
            two_state(),
            alpha * spec.gains1,
            alpha * spec.gains2,
            spec.pbar1 / alpha**2,
            spec.pbar2 / alpha**2,
            spec.conf,
            2,
            2,
            "real",
        )
        scaled = Allocation(
            alloc.P1 / alpha**2, alloc.gamma1 / alpha**2,
            alloc.P2 / alpha**2, alloc.gamma2 / alpha**2,
        )
        b0 = rate_bounds_gaussian(spec, alloc)
        b1 = rate_bounds_gaussian(scaled_spec, scaled)
        for name in ("b1", "b2", "b12", "bsum"):
            assert abs(getattr(b0, name) - getattr(b1, name)) <= 1e-9


class TestTraceBoundary:
    def test_infinite_links_trace_on_total_line(self):
        spec = reference_spec(float("inf"), float("inf"))
        points = trace_boundary(spec, 6, SolverConfig(seed=1, iterations=200, rounds=6))
        values = [p.point.r1 + p.point.r2 for p in points]
        assert max(values) - min(values) <= 2e-3
        assert abs(max(values) - 1.498077) <= 0.01

    def test_symmetric_spec_symmetric_boundary(self):
        # even direction count: mirrored weight pairs, no exact diagonal whose
        # vertex tie-break would deliberately pick the r1-heavy corner
        spec = reference_spec(0.3, 0.3)
        pts = trace_boundary(spec, 6, SolverConfig(seed=3, iterations=200, rounds=6))
        got = sorted((p.point.r1, p.point.r2) for p in pts)
        mirrored = sorted((b, a) for a, b in got)
        for (a1, a2), (b1, b2) in zip(got, mirrored):
            assert abs(a1 - b1) <= 5e-3 and abs(a2 - b2) <= 5e-3

    def test_requires_two_directions(self):
        with pytest.raises(ValueError):
            trace_boundary(reference_spec(0, 0), 1)


class TestBatchedSolver:
    CFG = SolverConfig(seed=4, iterations=60, rounds=3, multistarts=2)

    @pytest.mark.parametrize("spec", [reference_spec(0.3, 0.1), three_state_spec()])
    def test_trace_points_equal_solo_solves(self, spec):
        points = trace_boundary(spec, 5, self.CFG)
        assert len(points) >= 2
        for p in points:
            solo = maximize_weighted_rate(spec, math.cos(p.theta), math.sin(p.theta), self.CFG)
            assert (solo.value, solo.point, solo.flag) == (p.value, p.point, p.flag)

    def test_common_message_points_equal_solo_solves(self):
        # the r0 slice of the common-message region: no link offsets, and the
        # total cap lowered by r0
        spec = reference_spec(0.0, 0.0)
        problems = [(math.cos(t), math.sin(t), 0.0, 0.0, 0.3) for t in _thetas(4)]
        for problem, res in zip(problems, solve_weighted(spec, problems, self.CFG)):
            solo, = solve_weighted(spec, [problem], self.CFG)
            assert (solo.value, solo.point, solo.flag) == (res.value, res.point, res.flag)

    @pytest.mark.parametrize("spec,config", [
        (reference_spec(0.3, 0.1), CFG),
        (three_state_spec(), CFG),
        (scalar_spec(p1=0.0, p2=10.0, c12=0.2, c21=0.1), CFG),
        (scalar_spec(), SolverConfig(seed=4, iterations=60, rounds=3)),
    ])
    def test_mixed_batch_equals_solo_solves(self, spec, config):
        # problems differing in weights, links and common rate share one
        # batched solve; every result must be exactly the problem's own solve
        inf = float("inf")
        problems = [
            (*mu, c12, c21, r0)
            for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (math.cos(1.2), math.sin(1.2)),
                       (1.0, 1.0))
            for c12, c21 in ((0.0, 0.0), (0.3, 0.1), (inf, inf), (0.9, 0.0))
            for r0 in (0.0, 0.3)
        ]
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
            solve_weighted(reference_spec(0, 0), [(1.0, 0.0, 0.0, 0.0, 0.0), bad], self.CFG)

    def test_empty_problem_list(self):
        assert solve_weighted(reference_spec(0, 0), [], self.CFG) == []

    def test_unbounded_links(self):
        spec = reference_spec(float("inf"), float("inf"))
        for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            res = maximize_weighted_rate(spec, *mu, self.CFG)
            assert math.isfinite(res.value)
            # only the total cap binds: each single-user value is the sum-rate ceiling
            assert abs(res.point.r1 + res.point.r2 - 1.498077) <= 0.01
        for p in trace_boundary(spec, 4, self.CFG):
            assert math.isfinite(p.value)

    def test_zero_power_encoder(self):
        # encoder 1 silent: it contributes only its link, encoder 2 gets the
        # point-to-point capacity
        spec = scalar_spec(p1=0.0, p2=10.0, c12=0.2, c21=0.1)
        r1 = maximize_weighted_rate(spec, 1.0, 0.0, self.CFG)
        r2 = maximize_weighted_rate(spec, 0.0, 1.0, self.CFG)
        assert abs(r1.value - 0.2) <= 1e-12
        assert abs(r2.value - 0.5 * math.log2(11.0)) <= 1e-9
        assert np.all(r2.alloc.P1 == 0.0)
        for p in trace_boundary(spec, 3, self.CFG):
            assert math.isfinite(p.value)

    def test_two_states_two_subchannels(self):
        spec = GaussianMacSpec(
            two_state(), [[1.0, 0.4], [0.1, 0.8]], [[0.6, 0.3], [0.9, 0.2]],
            4.0, 6.0, ConferencingConfig(0.1, 0.2), 1, 0, "real",
        )
        for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            res = maximize_weighted_rate(spec, *mu, self.CFG)
            assert feasible(spec, res.alloc)
            b = rate_bounds_gaussian(spec, res.alloc)
            # the reported value is the LP value at the reported allocation
            assert abs(res.value - lp_value(spec, res.alloc, *mu)) <= 1e-12
            assert res.point.r1 <= b.b1 + 1e-12 and res.point.r2 <= b.b2 + 1e-12
        pts = trace_boundary(spec, 4, self.CFG)
        assert [p.point.r1 for p in pts] == sorted((p.point.r1 for p in pts), reverse=True)

    def test_symmetric_problem_ends_symmetric(self):
        # one state, equal budgets and gains, mu1 = mu2: the barrier's centre
        # is unique and swap-symmetric, so both encoders end with one
        # allocation, and the value is the free optimum's. A budget or gain
        # 1e-9 above the other's moves the value by less than 1e-6.
        cfg = SolverConfig(seed=1, iterations=200, rounds=6)
        spec = scalar_spec(c12=0.2, c21=0.2)
        near = [scalar_spec(p2=10.0 + 1e-9, c12=0.2, c21=0.2),
                scalar_spec(g2=1.0 + 1e-9, c12=0.2, c21=0.2)]
        sym = maximize_weighted_rate(spec, 1.0, 1.0, cfg)
        assert _is_symmetric(sym.alloc)
        assert abs(sym.value - _grid_oracle(1, 1, 10, 10, 0.2, 0.2, 1, 1)) <= 1e-3
        for free in (maximize_weighted_rate(s, 1.0, 1.0, cfg) for s in near):
            assert abs(sym.value - free.value) <= 1e-6
        # from one asymmetric seeded start alone, the solve ends symmetric too
        problem = (1.0, 1.0, 0.2, 0.2, 0.0)
        seeded = gaussian._starts(_Barrier(spec, np.array([problem])), 5, [1])
        assert seeded[0, 0] != seeded[0, 2] and seeded[0, 1] != seeded[0, 3]  # gamma, delta
        again, = gaussian._solve_from(spec, [problem], SolverConfig(seed=5, iterations=200, rounds=6),
                                      [1])
        assert _is_symmetric(again.alloc)
        assert abs(again.value - sym.value) <= 1e-9

    def test_unequal_weights_not_tied(self):
        # unequal weights make the optimum asymmetric: one shared allocation
        # reaches only 2.1477 of about 2.208 bits here
        spec = scalar_spec(c12=0.3, c21=0.3)
        res = maximize_weighted_rate(spec, 1.0, 0.6, SolverConfig(seed=1, iterations=300, rounds=8))
        assert not _is_tied(res.alloc)
        assert abs(res.value - _grid_oracle(1, 1, 10, 10, 0.3, 0.3, 1.0, 0.6)) <= 1e-3

    def test_two_state_spec_not_tied(self):
        # a symmetric two-state spec: the encoders' cell layouts differ, so
        # the rows are neither tied nor rejected
        spec = reference_spec(0.2, 0.2)
        res = maximize_weighted_rate(spec, 1.0, 1.0, self.CFG)
        assert feasible(spec, res.alloc)
        assert abs(res.value - lp_value(spec, res.alloc, 1.0, 1.0)) <= 1e-12
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

    CFG = SolverConfig(iterations=300, rounds=8, multistarts=1)
    R2_ALONE = 0.964242340852  # encoder 2 alone at full power, c12 = 0.3

    def values(self, pbar1, pbar2, gains=((1.0,), (0.1,))):
        spec = GaussianMacSpec(two_state(), gains, gains, pbar1, pbar2,
                               ConferencingConfig(0.3, 0.0), 2, 2, "real")
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
                               ConferencingConfig(0.3, 0.0), 2, 2, "real")
        res = maximize_weighted_rate(spec, 1.0, 1.0, SolverConfig(iterations=300, rounds=8))
        assert res.value >= 0.964247 and res.flag == "converged"
        assert feasible(spec, res.alloc)

    def test_large_budgets_stay_feasible(self):
        # the readings are scaled up to spend each budget: at 1e8, spending
        # it exactly rounded past feasible()'s absolute slack of 1e-9
        spec = GaussianMacSpec(two_state(), [[1.0], [0.1]], [[1.0], [0.1]], 1e8, 1e8,
                               ConferencingConfig(0.3, 0.1), 2, 1, "real")
        for mu in ((1.0, 1.0), (1.0, 0.0), (0.3, 1.0)):
            res = maximize_weighted_rate(spec, *mu, SolverConfig(iterations=300, rounds=8))
            assert res.flag == "converged" and feasible(spec, res.alloc)

    @pytest.mark.parametrize("spec", [three_state_spec(), three_state_spec(float("inf"), 0.1),
                                      three_state_spec(float("inf"), float("inf")),
                                      reference_spec(float("inf"), float("inf"))])
    def test_solved_whatever_the_starts(self, spec):
        # k = 3 with two subchannels, and infinite links: every problem
        # converges from the even start, and each seeded start alone reaches
        # the same value, which the fallback starts rest on
        problems = [(*mu, spec.conf.c12, spec.conf.c21, r0)
                    for mu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1.0, 1.0)) for r0 in (0.0, 0.2)]
        even = gaussian._solve_from(spec, problems, SolverConfig(), [0])
        seeded = [gaussian._solve_from(spec, problems, SolverConfig(seed=seed), [i])
                  for seed in (0, 40) for i in (1, 2)]
        for problem, a, *others in zip(problems, even, *seeded):
            assert a.flag == "converged"
            for b in others:
                assert b.flag == "converged" and abs(a.value - b.value) <= 1e-8
            assert feasible(spec, a.alloc)
            bounds = rate_bounds_gaussian(spec, a.alloc)
            value, _ = best_weighted_point(RateBounds(
                bounds.b1, bounds.b2, bounds.b12, bounds.bsum - problem[4]), *problem[:2])
            assert abs(a.value - value) <= 1e-12
        if math.isinf(spec.conf.c12) and math.isinf(spec.conf.c21):
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
            spec = scalar_spec(g1, g2, p1, p2, c12, c21)
            problem = [(float(mu[0]), float(mu[1]), c12, c21, 0.0)]
            config = SolverConfig(seed=trial)
            even, = gaussian._solve_from(spec, problem, config, [0])
            assert even.flag == "converged"
            for i in (1, 2):
                res, = gaussian._solve_from(spec, problem, config, [i])
                assert res.flag == "converged" and abs(res.value - even.value) <= 1e-8

    def test_every_solver_key_is_used(self):
        # iterations * rounds caps the Newton steps; multistarts adds seeded
        # fallback starts to the even one, which no seed moves
        spec = three_state_spec()
        res = maximize_weighted_rate(spec, 0.6, 0.8, SolverConfig(iterations=2, rounds=3))
        assert res.flag == "budget-exhausted" and feasible(spec, res.alloc)
        bar = _Barrier(spec, np.array([[0.6, 0.8, 0.2, 0.1, 0.0]]))
        a, b = (gaussian._starts(bar, seed, range(3)) for seed in (0, 1))
        assert a.shape[0] == b.shape[0] == 3
        assert np.array_equal(a[0], b[0]) and not np.array_equal(a[1:], b[1:])
        for x in (*a, *b):  # strictly inside every budget and cone
            assert (x[: bar.o[4]] > 0).all() and (bar.B[:, :-2] @ x < bar.pbar).all()
            i, j, kap = bar.cone
            assert (x[kap] ** 2 < x[i] * x[j]).all()

    def test_common_rate_above_the_total_cap(self):
        # no rate pair is strictly feasible at the start: the start is reported
        spec = reference_spec(0.3, 0.1)
        res, = solve_weighted(spec, [(1.0, 1.0, 0.3, 0.1, 5.0)])
        assert res.flag == "stalled" and res.value == 0.0

    def test_region_rows_within_their_axis_maxima(self):
        # region_gaussian.yaml: no trace point may beat its own spec's max_r1
        # or max_r2, which the former ascent's short axis solves did by up to 3.7e-4
        cfg = load_config(str(CONFIGS / "region_gaussian.yaml"))
        out = run_region_gaussian(cfg)
        col = {name: i for i, name in enumerate(out.header)}
        for row in out.rows:
            assert row[col["r1"]] <= row[col["max_r1"]] + 1e-9
            assert row[col["r2"]] <= row[col["max_r2"]] + 1e-9
            assert row[col["flag"]] == "converged"


@pytest.fixture
def drawn(monkeypatch):
    """(problems, start indices) of every batch the solver draws starts for."""
    batches, starts = [], gaussian._starts

    def recording(bar, seed, which):
        batches.append((len(bar.mu), list(which)))
        return starts(bar, seed, which)

    monkeypatch.setattr(gaussian, "_starts", recording)
    return batches


class TestFallbackStarts:
    """Seeded starts run only for the problems the even start leaves short
    of converged, and keep their value only where it is higher."""

    SHORT = SolverConfig(iterations=2, rounds=3)  # budget-exhausted on three_state_spec

    @staticmethod
    def best_of_each_start(spec, problem, config):
        runs = [gaussian._solve_from(spec, [problem], config, [i])[0]
                for i in range(1 + config.multistarts)]
        return runs[int(np.argmax([res.value for res in runs]))]  # the first on ties

    def test_converged_batch_draws_no_seeded_start(self, drawn):
        spec = reference_spec(0.3, 0.1)
        problems = [(math.cos(t), math.sin(t), 0.3, 0.1, r0) for t in _thetas(4) for r0 in (0.0, 0.2)]
        assert all(res.flag == "converged" for res in solve_weighted(spec, problems))
        assert drawn == [(8, [0])]

    def test_converged_run_never_imports_numpy_random(self):
        code = ("import sys; from fsmac import maximize_weighted_rate, GaussianMacSpec, "
                "ConferencingConfig, MarkovChain\n"
                "chain = MarkovChain(['G', 'B'], [[0.9, 0.1], [0.1, 0.9]])\n"
                "spec = GaussianMacSpec(chain, [[1.0], [0.1]], [[1.0], [0.1]], 10.0, 10.0, "
                "ConferencingConfig(0.3, 0.1), 2, 2)\n"
                "assert maximize_weighted_rate(spec, 0.6, 0.8).flag == 'converged'\n"
                "print('numpy.random' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_budget_exhausted_problem_gets_seeded_starts(self, drawn):
        spec = three_state_spec()
        problems = [(0.6, 0.8, 0.2, 0.1, 0.0), (1.0, 0.0, 0.2, 0.1, 0.3)]
        got = solve_weighted(spec, problems, self.SHORT)
        assert drawn == [(2, [0]), (2, [1, 2])]
        even, = gaussian._solve_from(spec, problems[:1], self.SHORT, [0])
        assert got[0].value > even.value  # a seeded start's value is kept
        for problem, res in zip(problems, got):
            best = self.best_of_each_start(spec, problem, self.SHORT)
            assert (res.value, res.point, res.flag) == (best.value, best.point, best.flag)
            assert feasible(spec, res.alloc)

    def test_even_start_wins_ties(self, monkeypatch):
        # both phases reach one value: the even start's result stays
        def solve_from(spec, problems, config, which):
            flag = "budget-exhausted" if list(which) == [0] else "converged"
            return [gaussian.GaussianSolveResult(1.0, None, None, flag) for _ in problems]

        monkeypatch.setattr(gaussian, "_solve_from", solve_from)
        res, = solve_weighted(three_state_spec(), [(0.6, 0.8, 0.2, 0.1, 0.0)])
        assert res.flag == "budget-exhausted"

    def test_stalled_problem_gets_seeded_starts(self, drawn):
        # test_common_rate_above_the_total_cap's r0 = 5, batched with a
        # problem that converges: only the stalled one is solved again
        spec = reference_spec(0.3, 0.1)
        converged, stalled = solve_weighted(spec, [(1.0, 1.0, 0.3, 0.1, 0.0),
                                                   (1.0, 1.0, 0.3, 0.1, 5.0)])
        assert drawn == [(2, [0]), (1, [1, 2])]
        assert converged.flag == "converged"
        assert stalled.flag == "stalled" and stalled.value == 0.0

    def test_no_multistarts_no_fallback(self, drawn):
        spec = three_state_spec()
        problem = (0.6, 0.8, 0.2, 0.1, 0.0)
        config = SolverConfig(iterations=2, rounds=3, multistarts=0)
        res, = solve_weighted(spec, [problem], config)
        assert drawn == [(1, [0])] and res.flag == "budget-exhausted"
        even, = gaussian._solve_from(spec, [problem], config, [0])
        assert (res.value, res.point, res.flag) == (even.value, even.point, even.flag)


class TestBatchedRunners:
    """The runners' one-call rows against the loop they replaced: a trace
    and two axis solves per c12, one solve per (delay case, c)."""

    CFG = SolverConfig(seed=2, iterations=40, rounds=2, multistarts=1)

    def test_region_gaussian_rows_equal_per_spec_loop(self):
        c12s = [0.0, 0.5, float("inf")]
        specs = [reference_spec(c12, 0.1) for c12 in c12s]
        cfg = SimpleNamespace(objects={
            "specs": specs, "n_directions": 3, "solver": self.CFG, "c12_values": c12s,
        })
        oracle = []
        for c12, spec in zip(c12s, specs):
            trace = trace_boundary(spec, 3, self.CFG)
            max_r1 = maximize_weighted_rate(spec, 1.0, 0.0, self.CFG).value
            max_r2 = maximize_weighted_rate(spec, 0.0, 1.0, self.CFG).value
            oracle += [
                [c12, spec.conf.c21, tp.theta, tp.point.r1, tp.point.r2, tp.value, tp.flag,
                 max_r1, max_r2, spec.convention]
                for tp in trace
            ]
        assert run_region_gaussian(cfg).rows == oracle

    def test_sweep_sumrate_rows_equal_per_c_loop(self):
        c_list = [0.0, 0.2]
        cases = [
            ({"d1_raw": d1, "d2_raw": d2}, [
                GaussianMacSpec(two_state(), [[1.0], [0.1]], [[1.0], [0.1]], 10.0, 10.0,
                                ConferencingConfig(c, c), d1, d2, "real")
                for c in [*c_list, float("inf")]
            ])
            for d1, d2 in ((2, 1), (0, 0))
        ]
        cfg = SimpleNamespace(objects={"cases": cases, "c_list": c_list, "solver": self.CFG})
        oracle = []
        for dres, specs in cases:
            for spec in specs:
                res = maximize_weighted_rate(spec, 1.0, 1.0, self.CFG)
                oracle.append([dres["d1_raw"], dres["d2_raw"], spec.conf.c12, res.value, res.flag])
        assert run_sweep_sumrate(cfg).rows == oracle


class TestCommonMessageRegion:
    def test_zero_link_conferencing_equals_r0_zero_slice(self):
        spec = reference_spec(0.0, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            alloc = random_feasible_alloc(spec, rng)
            conf_bounds = rate_bounds_gaussian(spec, alloc)
            comm_bounds = common_message_bounds_gaussian(spec, alloc)
            for name in ("b1", "b2", "b12", "bsum"):
                assert abs(getattr(conf_bounds, name) - getattr(comm_bounds, name)) <= 1e-9

    def test_gamma_equals_p_collapses_gap(self):
        spec = reference_spec(0.0, 0.0)
        P1 = np.full((2, 1), 10.0)
        P2 = np.zeros((2, 2, 1))
        P2[0, 0, 0] = P2[1, 1, 0] = 10.0
        b = common_message_bounds_gaussian(spec, Allocation(P1, P1.copy(), P2, P2.copy()))
        assert abs(b.bsum - b.b12) <= 1e-12

    def test_conferencing_point_maps_into_common_region(self):
        # a conferencing rate pair re-expressed as (shared total, residual
        # privates) must be a member of the common-message region at the same
        # allocation
        c12, c21 = 0.25, 0.4
        spec = reference_spec(c12, c21)
        res = maximize_weighted_rate(spec, 1.0, 1.0, SolverConfig(seed=9))
        r1, r2 = res.point.r1, res.point.r2
        assert r1 >= c12 and r2 >= c21  # the regime the substitution targets
        r0_t = c12 + c21
        r1_t = max(0.0, r1 - c12)
        r2_t = max(0.0, r2 - c21)
        b = common_message_bounds_gaussian(spec, res.alloc)
        assert r1_t <= b.b1 + 1e-9
        assert r2_t <= b.b2 + 1e-9
        assert r1_t + r2_t <= b.b12 + 1e-9
        assert r0_t + r1_t + r2_t <= b.bsum + 1e-9

    def test_r0_slice_shrinks_region(self):
        spec = reference_spec(0.0, 0.0)
        cfg = SolverConfig(seed=2, iterations=150, rounds=5)

        def best_sum(r0):
            problems = [(math.cos(t), math.sin(t), 0.0, 0.0, r0) for t in _thetas(4)]
            return max(res.point.r1 + res.point.r2 for res in solve_weighted(spec, problems, cfg))

        assert best_sum(0.5) <= best_sum(0.0) + 1e-9


class TestGaussianMarkovPredicate:
    def test_scalar_identity_chain(self):
        cov = GaussianTripleCovariance([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert check_gaussian_markov(cov, 1e-12)

    def test_scalar_product_rule(self):
        cov = GaussianTripleCovariance([[0.5]], [[1.0]], [[0.4]], [[0.2]])
        assert check_gaussian_markov(cov, 1e-12)

    def test_scalar_violation(self):
        cov = GaussianTripleCovariance([[0.5]], [[1.0]], [[0.4]], [[0.3]])
        assert not check_gaussian_markov(cov, 1e-6)

    def test_singular_middle_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianTripleCovariance([[0.5]], [[0.0]], [[0.4]], [[0.2]])

    def test_matrix_case_from_construction(self):
        # build A - B - C by conditional sampling and check the identity holds
        rng = np.random.default_rng(13)
        for _ in range(5):
            nb = 2
            sig_bb = rng.random((nb, nb))
            sig_bb = sig_bb @ sig_bb.T + nb * np.eye(nb)
            F = rng.random((2, nb))  # A = F B + noise
            G = rng.random((3, nb))  # C = G B + noise
            sig_ab = F @ sig_bb
            sig_bc = sig_bb @ G.T
            sig_ac = F @ sig_bb @ G.T
            cov = GaussianTripleCovariance(sig_ab, sig_bb, sig_bc, sig_ac)
            assert check_gaussian_markov(cov, 1e-8)
            bad = GaussianTripleCovariance(sig_ab, sig_bb, sig_bc, sig_ac + 0.05)
            assert not check_gaussian_markov(bad, 1e-8)
