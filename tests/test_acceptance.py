"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Budgets are chosen so the whole module stays within
its documented runtimes on a desk machine.
"""

import copy

import numpy as np
import yaml

from fsmac import (
    Allocation,
    ConferencingConfig,
    DmcChannel,
    GaussianMacSpec,
    InputPolicy,
    MarkovChain,
    RateBounds,
    SearchConfig,
    SolverConfig,
    assemble_joint,
    conditional_mutual_information,
    correlation_profile_numeric,
    delayed_state_joint,
    estimate_error_rate,
    inner_bound_search,
    maximize_weighted_rate,
    message_count,
    polytope_vertices,
    rate_bounds_gaussian,
    rho_infinity,
    snr_critical_db,
    solve_weighted,
    stationary_distribution,
    trace_boundary,
)
from fsmac.cli import main as cli_main


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def two_state(g=0.1, b=0.1):
    return MarkovChain(["G", "B"], [[1 - b, b], [g, 1 - g]])


def reference_gaussian_spec(convention="real"):
    # two-state reference instance: per-state power gains 1 (good) and 0.01
    # (bad); GaussianMacSpec stores amplitude magnitudes, hence sqrt(0.01)
    gains = [[1.0], [0.1]]
    return GaussianMacSpec(two_state(), gains, gains, 10.0, 10.0, 2, 2, convention)


def test_criterion_01_stationary_distribution():
    pi = stationary_distribution(two_state())
    err = float(np.abs(pi - 0.5).max())
    ok = err <= 1e-12
    _report(1, ok, f"two-state stationary law max deviation {err:.2e} (tol 1e-12)")
    assert ok


def test_criterion_02_factorization_markov_relations():
    worst = 0.0
    rng_master = np.random.default_rng(2024)
    for _ in range(100):
        k = int(rng_master.integers(2, 4))
        K = rng_master.random((k, k)) + 0.1
        K /= K.sum(axis=1, keepdims=True)
        chain = MarkovChain([f"s{i}" for i in range(k)], K)
        d2 = int(rng_master.integers(0, 3))
        d1 = d2 + int(rng_master.integers(0, 3))
        nu = int(rng_master.integers(1, 3))
        policy = InputPolicy(
            rng_master.dirichlet(np.ones(nu), size=k),
            rng_master.dirichlet(np.ones(2), size=(nu, k)),
            rng_master.dirichlet(np.ones(2), size=(nu, k, k)),
        )
        channel = DmcChannel(rng_master.dirichlet(np.ones(2), size=(2, 2, k)))
        joint = assemble_joint(delayed_state_joint(chain, d1, d2), policy, channel)
        worst = max(
            worst,
            conditional_mutual_information(joint, ["U"], ["S", "Sd2"], ["Sd1"]),
            conditional_mutual_information(joint, ["X1"], ["S", "Sd2"], ["Sd1", "U"]),
            conditional_mutual_information(joint, ["X2"], ["X1", "S"], ["Sd1", "Sd2", "U"]),
        )
    ok = worst <= 1e-9
    _report(2, ok, f"100 random instances, worst factorization leakage {worst:.2e} bits (tol 1e-9)")
    assert ok


def _scalar_grid_oracle(g1, g2, p1, p2, c12, c21, mu1, mu2, n=1001):
    """Refined dense grid over (gamma1, gamma2) with powers pinned to the
    budgets; every rate cap is nondecreasing in the powers, so full power is
    optimal and the grid over the remaining two variables is exhaustive."""

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
    return max(float(V.max()), float(V2.max()))


def test_criterion_03_gaussian_solver_vs_grid_oracle():
    rng = np.random.default_rng(42)
    chain = MarkovChain(["s"], [[1.0]])
    worst = 0.0
    for trial in range(20):
        g1 = float(rng.uniform(0.2, 2.0))
        g2 = float(rng.uniform(0.2, 2.0))
        p1 = float(rng.uniform(0.5, 20.0))
        p2 = float(rng.uniform(0.5, 20.0))
        c12 = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        c21 = float(rng.choice([0.0, 0.3, 0.9]))
        mu = rng.uniform(0.05, 1.0, 2)
        spec = GaussianMacSpec(chain, [[g1]], [[g2]], p1, p2, 0, 0, "real")
        res = maximize_weighted_rate(spec, ConferencingConfig(c12, c21), float(mu[0]), float(mu[1]))
        oracle = _scalar_grid_oracle(g1, g2, p1, p2, c12, c21, float(mu[0]), float(mu[1]))
        worst = max(worst, abs(res.value - oracle))
    ok = worst <= 1e-3
    _report(3, ok, f"20 scalar instances, worst |solver - grid oracle| = {worst:.2e} bits (tol 1e-3)")
    assert ok


def test_criterion_04_single_link_max_r2_constant():
    c12_values = [0.0, 0.1, 0.3, 0.5, 0.9]
    target = 0.9642
    results = {}
    for convention in ("real", "complex"):
        vals = [
            maximize_weighted_rate(reference_gaussian_spec(convention), ConferencingConfig(c12, 0.0),
                                   0.0, 1.0).value
            for c12 in c12_values
        ]
        results[convention] = vals
    matched = [
        conv
        for conv, vals in results.items()
        if all(abs(v - target) / target <= 0.02 for v in vals)
    ]
    spread = {conv: max(vals) - min(vals) for conv, vals in results.items()}
    ok = matched == ["real"] and spread["real"] <= 2e-3
    _report(
        4,
        ok,
        f"max R2 across c12: real={results['real'][0]:.5f} (spread {spread['real']:.1e}), "
        f"complex={results['complex'][0]:.5f}; matched convention(s): {matched} "
        f"(target {target} within 2%)",
    )
    assert ok


def test_criterion_05_sumrate_saturation():
    c_values = [0.0, 0.3, 0.6, 0.9, 1.3, 2.0, 3.0]
    vals = [
        maximize_weighted_rate(reference_gaussian_spec(), ConferencingConfig(c, c), 1.0, 1.0).value
        for c in c_values
    ]
    nondecreasing = all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
    saturated = abs(vals[-1] - vals[-2]) <= 1e-3
    rel = abs(vals[-1] - 1.5) / 1.5
    ok = nondecreasing and saturated and rel <= 0.05
    _report(
        5,
        ok,
        f"sum-rate sweep nondecreasing={nondecreasing}, saturation {vals[-1]:.5f} "
        f"vs 1.5 (rel err {rel * 100:.2f}%, tol 5%)",
    )
    assert ok


def test_criterion_06_correlation_asymptotics():
    cfg = SolverConfig(max_steps=5400)
    details = []
    ok = True
    for c in (0.1, 0.3, 0.5):
        low_db = snr_critical_db(c, c) - 0.5
        prof = correlation_profile_numeric(c, c, [low_db, 40.0], cfg)
        beta_low = 1.0 - prof.rho[0] ** 2
        rho40 = prof.rho[1]
        rinf = rho_infinity(c, c)
        rel = abs(rho40 - rinf) / rinf
        ok = ok and beta_low < 1e-3 and rel <= 0.02
        details.append(f"c={c}: beta_low={beta_low:.1e}, rho(40dB)={rho40:.4f} vs {rinf:.4f}")
    _report(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_region_reductions():
    spec0 = reference_gaussian_spec()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(10):
        P1 = rng.random((2, 1))
        P1 *= 10.0 / (spec0.chain.pi[:, None] * P1).sum()
        P2 = rng.random((2, 2, 1))
        w2 = spec0.state_weights()[0]
        P2 *= 10.0 / (w2[:, :, None] * P2).sum()
        alloc = Allocation(P1, rng.random((2, 1)) * P1, P2, rng.random((2, 2, 1)) * P2)
        b_conf = rate_bounds_gaussian(spec0, alloc, ConferencingConfig(0.0, 0.0))
        b_comm = rate_bounds_gaussian(spec0, alloc, ConferencingConfig())
        worst_gap = max(
            worst_gap,
            *(abs(getattr(b_conf, f) - getattr(b_comm, f)) for f in ("b1", "b2", "b12", "bsum")),
        )
    points = trace_boundary(spec0, ConferencingConfig(float("inf"), float("inf")), 6,
                            SolverConfig(max_steps=6000))
    sums = [p.point.r1 + p.point.r2 for p in points]
    line_dev = max(sums) - min(sums)
    ok = worst_gap <= 1e-9 and line_dev <= 5e-3
    _report(
        7,
        ok,
        f"zero-link vs common-message bounds gap {worst_gap:.1e} (tol 1e-9); "
        f"unbounded-link trace off the total line by {line_dev:.1e} (tol 5e-3)",
    )
    assert ok


def test_criterion_08_polytope_vs_grid_hull():
    rng = np.random.default_rng(8)
    worst = 0.0
    g = np.linspace(0.0, 1.0, 2000)
    for _ in range(50):
        b1, b2 = rng.uniform(0.1, 2.0, 2)
        cap = float(rng.uniform(0.05, b1 + b2 + 0.4))
        bounds = RateBounds(b1, b2, min(cap, b1 + b2), cap + float(rng.uniform(0, 0.8)))
        verts = polytope_vertices(bounds)
        X = (g * max(b1, 1e-9))[:, None]
        Y = (g * max(b2, 1e-9))[None, :]
        feas = (X <= b1) & (Y <= b2) & (X + Y <= bounds.sum_cap())
        step = max(b1, b2) / (len(g) - 1)
        for mu in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.35, 0.9], [2.0, 0.4]):
            grid_best = float((mu[0] * X + mu[1] * Y)[feas].max())
            vert_best = max(mu[0] * p.r1 + mu[1] * p.r2 for p in verts)
            worst = max(worst, abs(vert_best - grid_best) - (mu[0] + mu[1]) * step)
    ok = worst <= 1e-3
    _report(8, ok, f"50 random bound sets, worst support-function gap {max(worst, 0):.2e} (tol 1e-3)")
    assert ok


def _gaussian_markov(sig_ab, sig_bb, sig_bc, sig_ac, tol):
    """Whether a jointly Gaussian triple is Markov A - B - C: its AC
    covariance factors through B, Sigma_AC = Sigma_AB Sigma_BB^-1 Sigma_BC
    (max-norm tol)."""
    predicted = sig_ab @ np.linalg.solve(sig_bb, sig_bc)
    return bool(np.abs(sig_ac - predicted).max() <= tol)


def test_criterion_09_gaussian_markov_predicate():
    rng = np.random.default_rng(9)
    all_pass = True
    all_fail = True
    for _ in range(100):
        nb = int(rng.integers(1, 4))
        na = int(rng.integers(1, 4))
        nc = int(rng.integers(1, 4))
        sig_bb = rng.random((nb, nb))
        sig_bb = sig_bb @ sig_bb.T + nb * np.eye(nb)
        F = rng.standard_normal((na, nb))
        G = rng.standard_normal((nc, nb))
        cov = (F @ sig_bb, sig_bb, sig_bb @ G.T)
        all_pass = all_pass and _gaussian_markov(*cov, F @ sig_bb @ G.T, 1e-8)
        all_fail = all_fail and not _gaussian_markov(*cov, F @ sig_bb @ G.T + 0.05, 1e-8)
    # the solver's output: on one-state scalar specs, the X1-X2 covariance
    # that the total cap at a result's allocation implies must factor through
    # U, with Sigma_X1U = sqrt(delta1), Sigma_UU = 1 and Sigma_UX2 = sqrt(delta2)
    lib_pass = lib_fail = True
    for _ in range(8):
        g1, g2 = rng.uniform(0.3, 1.8, 2)
        spec = GaussianMacSpec(MarkovChain(["s"], [[1.0]]), [[g1]], [[g2]],
                               *rng.uniform(1.0, 15.0, 2), 0, 0, "real")
        problems = [(*rng.uniform(0.1, 1.0, 2), *rng.choice([0.0, 0.4, np.inf], 2), 0.0)
                    for _ in range(4)]
        for (_, _, c12, c21, _), res in zip(problems, solve_weighted(spec, problems)):
            a = res.alloc
            P1, P2 = a.P1[0, 0], a.P2[0, 0, 0]
            bsum = rate_bounds_gaussian(spec, a, ConferencingConfig(c12, c21)).bsum
            sig_12 = (2.0 ** (2.0 * bsum) - 1.0 - g1 * g1 * P1 - g2 * g2 * P2) / (2.0 * g1 * g2)
            cov = (np.sqrt([[P1 - a.gamma1[0, 0]]]), np.eye(1), np.sqrt([[P2 - a.gamma2[0, 0, 0]]]))
            lib_pass = lib_pass and _gaussian_markov(*cov, np.array([[sig_12]]), 1e-8)
            lib_fail = lib_fail and not _gaussian_markov(*cov, np.array([[sig_12 + 0.05]]), 1e-8)
    ok = all_pass and all_fail and lib_pass and lib_fail
    _report(9, ok, f"100 Markov triples accepted: {all_pass}; all 0.05-perturbed rejected: "
                   f"{all_fail}; 32 solver results accepted: {lib_pass}, "
                   f"all 0.05-perturbed rejected: {lib_fail}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: coding-scheme error trend (not a capacity reproduction)
# ---------------------------------------------------------------------------

def _trend_instance():
    """Binary two-state instance whose good state is a clean parity channel
    and whose bad state is pure noise; the exhaustive typicality decoder shows
    the predicted decay inside the region at desk blocklengths."""
    pi_good, rho = 0.052, 0.1  # stationary good fraction, one-step correlation
    rows = np.array([pi_good, 1 - pi_good])
    chain = MarkovChain(["G", "B"], rho * np.eye(2) + (1 - rho) * rows[None, :])
    table = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            table[x1, x2, 0, (x1 + x2) % 2] = 1.0
            table[x1, x2, 1, :] = 0.5
    channel = DmcChannel(table)
    policy = InputPolicy(
        np.array([[1.0], [1.0]]), np.full((1, 2, 2), 0.5), np.full((1, 2, 2, 2), 0.5)
    )
    return chain, channel, policy


def test_criterion_10_coding_error_trend():
    chain, channel, policy = _trend_instance()
    d1 = d2 = 1
    epsilon = 0.07
    search = inner_bound_search(
        chain, d1, d2, channel, ConferencingConfig(0.0, 0.0),
        SearchConfig(u_size=1, grid_levels=3, restarts=1, seed=10, mu1=1.0, mu2=1.0),
    )
    r80 = 0.8 * search.value / 2.0
    r120 = 1.2 * search.bounds.bsum / 2.0
    assert message_count(256, r120) ** 2 <= 1 << 16  # exhaustive-decoder cap
    pes = []
    for n in (64, 128, 256):
        est = estimate_error_rate(
            chain, channel, policy, (0.0, r80, r80), n, epsilon, 2000, seed=10, d1=d1, d2=d2
        )
        pes.append(est.p_e)
    decreasing = pes[0] > pes[1] > pes[2]
    # the trial budget of the over-capacity check is reduced: its Wilson
    # interval at 500 trials is far narrower than the 0.5 margin being tested
    est120 = estimate_error_rate(
        chain, channel, policy, (0.0, r120, r120), 256, epsilon, 500, seed=11, d1=d1, d2=d2
    )
    ok = decreasing and est120.ci_low >= 0.5
    _report(
        10,
        ok,
        f"inner bound {search.value:.4f} bits; P_e at 80%: "
        f"{pes[0]:.3f} > {pes[1]:.3f} > {pes[2]:.3f} ({decreasing}); "
        f"P_e at 120%, n=256: {est120.p_e:.3f} (CI low {est120.ci_low:.3f} >= 0.5)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: byte-identical re-runs of criteria 4 and 10 experiments
# ---------------------------------------------------------------------------

CHAIN_SECTION = {"states": ["G", "B"], "transition": [[0.9, 0.1], [0.1, 0.9]]}


def _run_cli(tmp_path, payload, name, subcmd):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    rc = cli_main([subcmd, "--config", str(cfg), "--no-plots"])
    assert rc == 0
    return (tmp_path / f"{payload['output']['prefix']}.csv").read_bytes()


def test_criterion_11_determinism(tmp_path):
    region_payload = {
        "kind": "region-gaussian",
        "seed": 11,
        "output": {"dir": str(tmp_path), "prefix": "crit4"},
        "chain": copy.deepcopy(CHAIN_SECTION),
        "delays": {"d1": 2, "d2": 2},
        "gaussian": {
            "n_sub": 1, "gains1": [[1.0], [0.1]], "gains2": [[1.0], [0.1]],
            "pbar1": 10.0, "pbar2": 10.0, "convention": "real",
        },
        "conferencing": {"c12": [0.0, 0.3, 0.9], "c21": 0.0},
        "solver": {"iterations": 80, "rounds": 4, "multistarts": 1},
        "trace": {"n_directions": 4},
    }
    a = _run_cli(tmp_path, region_payload, "crit4cfg", "region-gaussian")
    b = _run_cli(tmp_path, region_payload, "crit4cfg", "region-gaussian")
    region_ok = a == b
    # the ceiling on R2 must be one constant column across the c12 sweep
    import csv as _csv
    import io as _io

    rows = list(_csv.DictReader(_io.StringIO(a.decode())))
    assert len({row["max_r2"] for row in rows}) == 1

    chain, channel, policy = _trend_instance()
    sim_payload = {
        "kind": "simulate",
        "seed": 12,
        "output": {"dir": str(tmp_path), "prefix": "crit10"},
        "chain": {"states": ["G", "B"], "transition": chain.K.tolist()},
        "delays": {"d1": 1, "d2": 1},
        "channel": {"table": channel.table.tolist()},
        "policy": {
            "pU": policy.pU.tolist(),
            "pX1": policy.pX1.tolist(),
            "pX2": policy.pX2.tolist(),
        },
        "rates": {"r0": 0.0, "r1": 0.0208, "r2": 0.0208},
        "sim": {"n_list": [64, 128], "epsilon": 0.07, "trials": 60},
    }
    c = _run_cli(tmp_path, sim_payload, "crit10cfg", "simulate")
    d = _run_cli(tmp_path, sim_payload, "crit10cfg", "simulate")
    sim_ok = c == d
    ok = region_ok and sim_ok
    _report(
        11,
        ok,
        f"region-gaussian re-run byte-identical: {region_ok}; "
        f"simulate re-run byte-identical: {sim_ok}",
    )
    assert ok
