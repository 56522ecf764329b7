"""Experiment configuration: a YAML file with nested sections, validated
strictly (unknown keys rejected, missing fields named) and resolved into the
library's domain objects."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .coding import check_decoder_caps, conferencing_counts, message_count
from .gaussian import GaussianMacSpec, SolverConfig
from .markov import MarkovChain, mixing_horizon
from .pmf import DmcChannel, InputPolicy
from .regions import ConferencingConfig, SearchConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = (
    "region-gaussian",
    "region-discrete",
    "sweep-sumrate",
    "sweep-correlation",
    "simulate",
    "asymptotics",
)

_INF_HORIZON_TOL = 1e-9


class ConfigError(ValueError):
    """A configuration file problem, carrying the offending field name."""


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field '{where}.{key}'")
    return section[key]


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"section '{where}' must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{where}.{sorted(unknown)[0]}'")


def _capacity(value, where: str) -> float:
    if value == "inf":
        return float("inf")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{where}' must be a number or \"inf\"") from None
    if math.isnan(out) or out < 0:
        raise ConfigError(f"'{where}' must be nonnegative")
    return out


@dataclass
class ExperimentConfig:
    """A parsed, validated experiment: kind, seed, resolved objects and the
    canonical form used for provenance hashing."""

    kind: str
    seed: int
    out_dir: str
    prefix: str
    canonical: dict
    resolved: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict, repr=False)

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def echo(self) -> str:
        """Human-readable dump of the fully resolved experiment."""
        return yaml.safe_dump(
            {"kind": self.kind, "seed": self.seed, "config_hash": self.config_hash,
             "output_dir": self.out_dir, "prefix": self.prefix, **self.resolved},
            sort_keys=False,
        )


def _parse_chain(section: dict) -> MarkovChain:
    _check_keys(section, {"states", "transition"}, "chain")
    states = _require(section, "states", "chain")
    matrix = _require(section, "transition", "chain")
    try:
        return MarkovChain([str(s) for s in states], np.asarray(matrix, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"chain: {exc}") from exc


def _parse_delays(section: dict, chain: MarkovChain) -> tuple[int, int, dict]:
    _check_keys(section, {"d1", "d2"}, "delays")
    raw1 = _require(section, "d1", "delays")
    raw2 = _require(section, "d2", "delays")

    def resolve(raw, name):
        if raw == "inf":
            return mixing_horizon(chain, _INF_HORIZON_TOL)
        if not isinstance(raw, int) or raw < 0:
            raise ConfigError(f"'delays.{name}' must be a nonnegative integer or \"inf\"")
        return raw

    d1 = resolve(raw1, "d1")
    d2 = resolve(raw2, "d2")
    if d2 > d1:
        raise ConfigError("delays: d1 must be >= d2")
    return d1, d2, {"d1": d1, "d2": d2, "d1_raw": raw1, "d2_raw": raw2}


def _parse_conferencing(section: dict) -> ConferencingConfig:
    _check_keys(section, {"c12", "c21"}, "conferencing")
    return ConferencingConfig(
        _capacity(section.get("c12", 0.0), "conferencing.c12"),
        _capacity(section.get("c21", 0.0), "conferencing.c21"),
    )


def _parse_solver(section: dict, seed: int) -> SolverConfig:
    _check_keys(
        section, {"tolerance", "iterations", "rounds", "multistarts", "tie_users"}, "solver"
    )
    try:
        return SolverConfig(
            tolerance=float(section.get("tolerance", 1e-9)),
            iterations=int(section.get("iterations", 400)),
            rounds=int(section.get("rounds", 10)),
            multistarts=int(section.get("multistarts", 2)),
            seed=seed,
            tie_users=bool(section.get("tie_users", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_gaussian(section: dict, chain, conf, d1, d2) -> GaussianMacSpec:
    _check_keys(
        section, {"n_sub", "gains1", "gains2", "pbar1", "pbar2", "convention"}, "gaussian"
    )
    gains1 = np.asarray(_require(section, "gains1", "gaussian"), dtype=float)
    gains2 = np.asarray(_require(section, "gains2", "gaussian"), dtype=float)
    n_sub = int(section.get("n_sub", gains1.shape[-1] if gains1.ndim == 2 else 1))
    if gains1.ndim == 1:
        gains1 = gains1[:, None]
    if gains2.ndim == 1:
        gains2 = gains2[:, None]
    if gains1.shape[1] != n_sub:
        raise ConfigError(f"gaussian.gains1 has {gains1.shape[1]} subchannels, n_sub={n_sub}")
    try:
        return GaussianMacSpec(
            chain,
            gains1,
            gains2,
            float(_require(section, "pbar1", "gaussian")),
            float(_require(section, "pbar2", "gaussian")),
            conf,
            d1,
            d2,
            str(section.get("convention", "real")),
        )
    except ValueError as exc:
        raise ConfigError(f"gaussian: {exc}") from exc


def _parse_channel(section: dict) -> DmcChannel:
    _check_keys(section, {"table"}, "channel")
    try:
        return DmcChannel(np.asarray(_require(section, "table", "channel"), dtype=float))
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc


def _parse_policy(section: dict) -> InputPolicy:
    _check_keys(section, {"pU", "pX1", "pX2"}, "policy")
    try:
        return InputPolicy(
            np.asarray(_require(section, "pU", "policy"), dtype=float),
            np.asarray(_require(section, "pX1", "policy"), dtype=float),
            np.asarray(_require(section, "pX2", "policy"), dtype=float),
        )
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from exc


_TOP_KEYS = {
    "region-gaussian": {"kind", "seed", "output", "chain", "delays", "gaussian",
                        "conferencing", "solver", "trace"},
    "region-discrete": {"kind", "seed", "output", "chain", "delays", "channel",
                        "conferencing", "search"},
    "sweep-sumrate": {"kind", "seed", "output", "chain", "gaussian", "delay_cases",
                      "c_list", "solver"},
    "sweep-correlation": {"kind", "seed", "output", "conferencing", "snr_db", "solver"},
    "simulate": {"kind", "seed", "output", "chain", "delays", "channel", "policy",
                 "rates", "conferencing", "sim"},
    "asymptotics": {"kind", "seed", "output", "pairs"},
}


def load_config(path: str, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment file, applying CLI overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"'kind' must be one of {', '.join(EXPERIMENT_KINDS)}; got {kind!r}")
    _check_keys(raw, _TOP_KEYS[kind], "top level")

    seed = raw.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not isinstance(seed, int):
        raise ConfigError("'seed' must be an integer")

    output = raw.get("output", {}) or {}
    _check_keys(output, {"dir", "prefix"}, "output")
    out_dir = str(output.get("dir", "."))
    if out_override is not None:
        out_dir = out_override
    prefix = str(output.get("prefix", kind))

    canonical = json.loads(json.dumps(raw, default=str))
    canonical["seed"] = seed

    cfg = ExperimentConfig(kind=kind, seed=seed, out_dir=out_dir, prefix=prefix,
                           canonical=canonical)
    resolved: dict[str, Any] = {}

    if kind == "region-gaussian":
        chain = _parse_chain(_require(raw, "chain", "top level"))
        d1, d2, dres = _parse_delays(_require(raw, "delays", "top level"), chain)
        conf_sec = _require(raw, "conferencing", "top level")
        _check_keys(conf_sec, {"c12", "c21"}, "conferencing")
        c12_raw = conf_sec.get("c12", 0.0)
        c12_list = c12_raw if isinstance(c12_raw, list) else [c12_raw]
        c12_vals = [_capacity(c, "conferencing.c12") for c in c12_list]
        c21 = _capacity(conf_sec.get("c21", 0.0), "conferencing.c21")
        trace_sec = raw.get("trace", {}) or {}
        _check_keys(trace_sec, {"n_directions"}, "trace")
        n_directions = int(trace_sec.get("n_directions", 16))
        specs = [
            _parse_gaussian(_require(raw, "gaussian", "top level"), chain,
                            ConferencingConfig(c12, c21), d1, d2)
            for c12 in c12_vals
        ]
        resolved.update(
            delays=dres, c12_values=c12_vals, c21=c21, n_directions=n_directions,
            convention=specs[0].convention,
        )
        cfg.resolved = resolved
        cfg.objects = {
            "specs": specs, "chain": chain, "n_directions": n_directions,
            "solver": _parse_solver(raw.get("solver", {}) or {}, seed),
            "c12_values": c12_vals, "c21": c21,
        }

    elif kind == "region-discrete":
        chain = _parse_chain(_require(raw, "chain", "top level"))
        d1, d2, dres = _parse_delays(_require(raw, "delays", "top level"), chain)
        channel = _parse_channel(_require(raw, "channel", "top level"))
        conf = _parse_conferencing(raw.get("conferencing", {}) or {})
        search_sec = _require(raw, "search", "top level")
        _check_keys(
            search_sec, {"u_size", "grid_levels", "restarts", "weights", "max_passes"}, "search"
        )
        weights = search_sec.get("weights", [[1.0, 1.0]])
        if not isinstance(weights, list) or not all(len(w) == 2 for w in weights):
            raise ConfigError("'search.weights' must be a list of [mu1, mu2] pairs")
        searches = [
            SearchConfig(
                u_size=int(search_sec.get("u_size", 2)),
                grid_levels=int(search_sec.get("grid_levels", 3)),
                restarts=int(search_sec.get("restarts", 3)),
                seed=seed,
                mu1=float(w[0]),
                mu2=float(w[1]),
                max_passes=int(search_sec.get("max_passes", 30)),
            )
            for w in weights
        ]
        resolved.update(delays=dres, weights=weights)
        cfg.resolved = resolved
        cfg.objects = {
            "chain": chain, "d1": d1, "d2": d2, "channel": channel, "conf": conf,
            "searches": searches,
        }

    elif kind == "sweep-sumrate":
        chain = _parse_chain(_require(raw, "chain", "top level"))
        cases = _require(raw, "delay_cases", "top level")
        if not isinstance(cases, list) or not cases:
            raise ConfigError("'delay_cases' must be a nonempty list of delay sections")
        parsed_cases = [_parse_delays(c, chain) for c in cases]
        c_list = [_capacity(c, "c_list") for c in _require(raw, "c_list", "top level")]
        gauss = _require(raw, "gaussian", "top level")
        case_specs = []
        for d1, d2, dres in parsed_cases:
            mk = lambda c, d1=d1, d2=d2: _parse_gaussian(
                gauss, chain, ConferencingConfig(c, c), d1, d2
            )
            case_specs.append((dres, mk))
        resolved.update(delay_cases=[c[0] for c in parsed_cases], c_list=c_list)
        cfg.resolved = resolved
        cfg.objects = {
            "chain": chain, "case_specs": case_specs, "c_list": c_list,
            "solver": _parse_solver(raw.get("solver", {}) or {}, seed),
        }

    elif kind == "sweep-correlation":
        conf = _parse_conferencing(_require(raw, "conferencing", "top level"))
        if math.isinf(conf.c12) or math.isinf(conf.c21):
            raise ConfigError("sweep-correlation requires finite link capacities")
        snr_db = _require(raw, "snr_db", "top level")
        if not isinstance(snr_db, list) or not snr_db:
            raise ConfigError("'snr_db' must be a nonempty list")
        snr_db = [float(v) for v in snr_db]
        resolved.update(c12=conf.c12, c21=conf.c21, snr_db=snr_db)
        cfg.resolved = resolved
        cfg.objects = {
            "conf": conf, "snr_db": snr_db,
            "solver": _parse_solver(raw.get("solver", {}) or {}, seed),
        }

    elif kind == "simulate":
        chain = _parse_chain(_require(raw, "chain", "top level"))
        d1, d2, dres = _parse_delays(_require(raw, "delays", "top level"), chain)
        channel = _parse_channel(_require(raw, "channel", "top level"))
        policy = _parse_policy(_require(raw, "policy", "top level"))
        rates_sec = _require(raw, "rates", "top level")
        _check_keys(rates_sec, {"r0", "r1", "r2"}, "rates")
        sim_sec = _require(raw, "sim", "top level")
        _check_keys(sim_sec, {"n_list", "epsilon", "trials"}, "sim")
        n_list = [int(n) for n in _require(sim_sec, "n_list", "sim")]
        epsilon = float(sim_sec.get("epsilon", 0.05))
        trials = int(_require(sim_sec, "trials", "sim"))
        if trials < 1:
            raise ConfigError("'sim.trials' must be >= 1")
        if not epsilon > 0:
            raise ConfigError("'sim.epsilon' must be positive")
        conf = _parse_conferencing(raw["conferencing"]) if "conferencing" in raw else None
        r0 = float(rates_sec.get("r0", 0.0))
        r1 = float(_require(rates_sec, "r1", "rates"))
        r2 = float(_require(rates_sec, "r2", "rates"))
        for name, r in (("r0", r0), ("r1", r1), ("r2", r2)):
            if not r >= 0:
                raise ConfigError(f"'rates.{name}' must be nonnegative")
        if conf is not None and r0 != 0.0:
            raise ConfigError("conferencing simulation uses r1/r2 only; set r0 to 0")
        # the decoder's caps, checked before a run allocates any codebook
        for n in n_list:
            try:
                if conf is None:
                    counts = tuple(message_count(n, r) for r in (r0, r1, r2))
                else:
                    counts = conferencing_counts(n, (r1, r2), conf)
                check_decoder_caps(n, counts)
            except ValueError as exc:
                raise ConfigError(f"'sim.n_list' entry n={n}: {exc}") from exc
        resolved.update(delays=dres, n_list=n_list, epsilon=epsilon, trials=trials,
                        rates={"r0": r0, "r1": r1, "r2": r2},
                        mode="conferencing" if conf is not None else "common")
        cfg.resolved = resolved
        cfg.objects = {
            "chain": chain, "d1": d1, "d2": d2, "channel": channel, "policy": policy,
            "rates": (r0, r1, r2), "conf": conf, "n_list": n_list, "epsilon": epsilon,
            "trials": trials,
        }

    elif kind == "asymptotics":
        pairs = _require(raw, "pairs", "top level")
        if not isinstance(pairs, list) or not pairs:
            raise ConfigError("'pairs' must be a nonempty list of {c12, c21} sections")
        parsed = []
        for i, p in enumerate(pairs):
            _check_keys(p, {"c12", "c21"}, f"pairs[{i}]")
            parsed.append(
                (_capacity(_require(p, "c12", f"pairs[{i}]"), "c12"),
                 _capacity(_require(p, "c21", f"pairs[{i}]"), "c21"))
            )
        resolved.update(pairs=[{"c12": a, "c21": b} for a, b in parsed])
        cfg.resolved = resolved
        cfg.objects = {"pairs": parsed}

    return cfg
