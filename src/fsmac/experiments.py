"""Experiment runners: each computes one kind's CSV rows, extra text files,
figure and notes from a validated config; `run_experiment` writes each file
atomically (CSV with a header row, 12-significant-digit floats and provenance
columns, then the extra files, then the SVG figure)."""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import yaml

from .asymptotics import rho_infinity, rho_star, snr_critical, snr_critical_db
from .coding import conferencing_error_rate, estimate_error_rate
from .gaussian import _non_dominated, _thetas, solve_weighted
from .gaussian import maximize_weighted_rate, trace_boundary  # noqa: F401 (perfbench wraps)
from .regions import inner_bound_search, search_weighted  # noqa: F401 (perfbench wraps)
from .svgplot import Series, render_plot

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = ["RunReport", "run_experiment"]


@dataclass
class RunReport:
    kind: str
    config_hash: str
    seed: int
    artifacts: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


@dataclass
class Computed:
    """A runner's results: CSV columns and rows without the provenance columns,
    extra text files by name suffix, `render_plot` keywords (None: no figure)."""

    header: list[str]
    rows: list[list]
    extras: dict[str, str] = field(default_factory=dict)
    plot: dict | None = None
    notes: dict = field(default_factory=dict)


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(cfg: ExperimentConfig, plots: bool = True) -> RunReport:
    """Execute a parsed experiment and return the written artifact paths."""
    from .config import KINDS  # the kind table imports the runners below

    out = KINDS[cfg.kind].run(cfg)
    report = RunReport(cfg.kind, cfg.config_hash, cfg.seed, notes=out.notes)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["config_hash", "seed", *out.header])
    for row in out.rows:
        writer.writerow([_fmt_value(v) for v in (report.config_hash, cfg.seed, *row)])
    texts = {".csv": buf.getvalue(), **out.extras}
    if plots and out.plot is not None:
        texts[".svg"] = render_plot(**out.plot)
    for suffix, text in texts.items():
        report.artifacts.append(os.path.join(cfg.out_dir, cfg.prefix + suffix))
        _atomic_write(report.artifacts[-1], text)
    return report


def run_region_gaussian(cfg: ExperimentConfig) -> Computed:
    obj = cfg.objects
    spec, links = obj["spec"], obj["links"]
    thetas = _thetas(obj["n_directions"])
    # each link pair's trace directions, then its two axis maxima, in one batched solve
    mus = [(math.cos(t), math.sin(t)) for t in thetas] + [(1.0, 0.0), (0.0, 1.0)]
    results = solve_weighted(spec, [(*mu, *link, 0.0) for link in links for mu in mus],
                             obj["solver"])
    rows = []
    polygons = []
    for j, (c12, c21) in enumerate(links):
        res = results[j * len(mus): (j + 1) * len(mus)]
        trace = _non_dominated(thetas, res[:-2])
        max_r1, max_r2 = res[-2].value, res[-1].value
        for tp in trace:
            rows.append([
                c12, c21, tp.theta, tp.point.r1, tp.point.r2, tp.value,
                tp.flag, max_r1, max_r2, spec.convention,
            ])
        pts = sorted(((tp.point.r1, tp.point.r2) for tp in trace))
        poly_x = [0.0, 0.0] + [p[0] for p in pts] + [max_r1]
        poly_y = [0.0, max_r2] + [p[1] for p in pts] + [0.0]
        polygons.append(Series(poly_x, poly_y, label=f"c12={_fmt_value(c12)}", closed=True))
    return Computed(
        ["c12", "c21", "theta", "r1", "r2", "value", "flag", "max_r1", "max_r2",
         "convention"],
        rows,
        plot=dict(series=polygons, title="Achievable rate region",
                  xlabel="R1 [bits/symbol]", ylabel="R2 [bits/symbol]"),
    )


def run_region_discrete(cfg: ExperimentConfig) -> Computed:
    obj = cfg.objects
    # every weight direction in one lockstep search
    args = [obj[name] for name in ("chain", "d1", "d2", "channel", "conf", "searches")]
    pairs = list(zip(obj["searches"], search_weighted(*args)))
    rows = [[s.mu1, s.mu2, res.point.r1, res.point.r2, res.value] for s, res in pairs]
    dumps = [{"mu1": s.mu1, "mu2": s.mu2, "value": float(res.value), "policy": {
        name: getattr(res.policy, name).tolist() for name in ("pU", "pX1", "pX2")
    }} for s, res in pairs]
    pts = sorted((r1, r2) for _, _, r1, r2, _ in rows)
    return Computed(
        ["mu1", "mu2", "r1", "r2", "value"],
        rows,
        extras={"_policies.yaml": yaml.safe_dump(dumps, sort_keys=True)},
        plot=dict(
            series=[Series([p[0] for p in pts], [p[1] for p in pts], label="inner bound",
                           marker=True)],
            title="Discrete inner-bound points",
            xlabel="R1 [bits/symbol]", ylabel="R2 [bits/symbol]",
        ),
    )


def run_sweep_sumrate(cfg: ExperimentConfig) -> Computed:
    obj = cfg.objects
    rows = []
    curves = []
    hlines = []
    cs = [*obj["c_list"], math.inf]  # every c_list entry, then the unbounded links
    for dres, spec in obj["cases"]:
        label = f"d1={dres['d1_raw']}, d2={dres['d2_raw']}"
        results = solve_weighted(spec, [(1.0, 1.0, c, c, 0.0) for c in cs], obj["solver"])
        values = [res.value for res in results]
        for c, res in zip(cs, results):
            rows.append([dres["d1_raw"], dres["d2_raw"], c, res.value, res.flag])
        curves.append(Series(list(obj["c_list"]), values[:-1], label=label, marker=True))
        hlines.append((values[-1], f"unbounded links ({label})"))
    return Computed(
        ["case_d1", "case_d2", "c", "sum_rate", "flag"],
        rows,
        plot=dict(series=curves, title="Sum rate vs conferencing capacity",
                  xlabel="c12 = c21 [bits/symbol]", ylabel="R1 + R2 [bits/symbol]",
                  hlines=hlines),
    )


def run_sweep_correlation(cfg: ExperimentConfig) -> Computed:
    conf, snr_db = cfg.objects["conf"], cfg.objects["snr_db"]
    rhos = [rho_star(10.0 ** (s / 10.0), conf.c12, conf.c21) for s in snr_db]
    crit = snr_critical(conf.c12, conf.c21)
    crit_db = snr_critical_db(conf.c12, conf.c21)
    rho_inf = rho_infinity(conf.c12, conf.c21)
    return Computed(
        ["snr_db", "rho"],
        [[s, rho] for s, rho in zip(snr_db, rhos)],
        plot=dict(
            series=[Series(snr_db, rhos, label="exact", marker=True)],
            title=f"Correlation vs SNR (c12={conf.c12}, c21={conf.c21})",
            xlabel="SNR [dB]", ylabel="correlation",
            vlines=[(crit_db, "critical SNR")] if math.isfinite(crit_db) else [],
            hlines=[(rho_inf, "infinite-SNR limit")],
        ),
        notes=dict(snr_critical=crit, snr_critical_db=crit_db, rho_infinity=rho_inf),
    )


def run_simulate(cfg: ExperimentConfig) -> Computed:
    obj = cfg.objects
    r0, r1, r2 = obj["rates"]
    rows = []
    pes = []
    for n in obj["n_list"]:
        if obj["conf"] is None:
            est = estimate_error_rate(
                obj["chain"], obj["channel"], obj["policy"], (r0, r1, r2), n,
                obj["epsilon"], obj["trials"], cfg.seed, d1=obj["d1"], d2=obj["d2"],
            )
            mode = "common"
        else:
            est = conferencing_error_rate(
                obj["chain"], obj["channel"], obj["policy"], (r1, r2), obj["conf"], n,
                obj["epsilon"], obj["trials"], cfg.seed, d1=obj["d1"], d2=obj["d2"],
            )
            mode = "conferencing"
        rows.append([
            n, r0, r1, r2, est.trials, est.errors, est.p_e, est.ci_low, est.ci_high, mode,
        ])
        pes.append(est.p_e)
    return Computed(
        ["n", "r0", "r1", "r2", "trials", "errors", "p_e", "ci_low", "ci_high", "mode"],
        rows,
        plot=dict(
            series=[Series([float(n) for n in obj["n_list"]], pes, label="empirical",
                           marker=True)],
            title="Block error rate vs blocklength",
            xlabel="blocklength n", ylabel="error rate",
        ),
    )


def run_asymptotics(cfg: ExperimentConfig) -> Computed:
    rows = [
        [c12, c21, snr_critical(c12, c21), snr_critical_db(c12, c21), rho_infinity(c12, c21)]
        for c12, c21 in cfg.objects["pairs"]
    ]
    return Computed(
        ["c12", "c21", "snr_critical", "snr_critical_db", "rho_infinity"], rows
    )
