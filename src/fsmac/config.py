"""Experiment configuration: a YAML file with nested sections, validated
strictly (unknown keys rejected, missing fields named) and resolved into the
library's domain objects. `KINDS` is the one table of experiment kinds."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .coding import check_decoder_caps, conferencing_counts, message_count
from .experiments import (
    Computed,
    run_asymptotics,
    run_region_discrete,
    run_region_gaussian,
    run_simulate,
    run_sweep_correlation,
    run_sweep_sumrate,
)
from .gaussian import GaussianMacSpec, SolverConfig
from .markov import MarkovChain
from .pmf import DmcChannel, InputPolicy, check_compatible
from .regions import ConferencingConfig, SearchConfig, check_search_size

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "KINDS"]


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


def _items(section: dict, key: str, where: str = "top level") -> list:
    """A required field that must be a nonempty list."""
    value = _require(section, key, where)
    if not isinstance(value, list) or not value:
        name = key if where == "top level" else f"{where}.{key}"
        raise ConfigError(f"'{name}' must be a nonempty list")
    return value


def _int(value, where: str) -> int:
    # bool is a subclass of int, but `true` is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    return value


def _float(value, where: str) -> float:
    try:
        out = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        out = math.nan
    if math.isnan(out):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    return out


def _capacity(value, where: str) -> float:
    out = math.inf if value == "inf" else _float(value, where)
    if out < 0:
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
    states = _items(section, "states", "chain")
    matrix = _require(section, "transition", "chain")
    try:
        return MarkovChain([str(s) for s in states], np.asarray(matrix, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"chain: {exc}") from exc


def _parse_delays(section: dict) -> tuple[float, float, dict]:
    _check_keys(section, {"d1", "d2"}, "delays")
    raw1 = _require(section, "d1", "delays")
    raw2 = _require(section, "d2", "delays")

    def resolve(raw, name):
        if raw == "inf":
            return math.inf
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
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


def _parse_solver(raw: dict) -> SolverConfig:
    """The step budget, iterations * rounds * (1 + multistarts) Newton steps,
    so that the keys and the config hashes of existing files stay valid. An
    omitted key keeps 400, 10 or 2."""
    section = raw.get("solver", {}) or {}
    _check_keys(section, {"iterations", "rounds", "multistarts"}, "solver")
    budget = {"iterations": 400, "rounds": 10, "multistarts": 2}
    budget.update((name, _int(section[name], f"solver.{name}"))
                  for name in ("iterations", "rounds", "multistarts") if name in section)
    # an empty budget takes no Newton step
    for name, least in (("rounds", 1), ("iterations", 1), ("multistarts", 0)):
        if budget[name] < least:
            raise ConfigError(f"solver: {name} must be >= {least}, got {budget[name]}")
    return SolverConfig(budget["iterations"] * budget["rounds"] * (1 + budget["multistarts"]))


def _parse_gaussian(section: dict, chain, d1, d2) -> GaussianMacSpec:
    _check_keys(
        section, {"n_sub", "gains1", "gains2", "pbar1", "pbar2", "convention"}, "gaussian"
    )
    gains = []
    for name in ("gains1", "gains2"):
        raw = _require(section, name, "gaussian")
        try:
            g = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"gaussian.{name}: {exc}") from exc
        if g.ndim not in (1, 2):
            raise ConfigError(f"'gaussian.{name}' must be a list of gains per state")
        gains.append(g[:, None] if g.ndim == 1 else g)
    gains1, gains2 = gains
    n_sub = _int(section.get("n_sub", gains1.shape[1]), "gaussian.n_sub")
    if gains1.shape[1] != n_sub:
        raise ConfigError(f"gaussian.gains1 has {gains1.shape[1]} subchannels, n_sub={n_sub}")
    pbar1 = _float(_require(section, "pbar1", "gaussian"), "gaussian.pbar1")
    pbar2 = _float(_require(section, "pbar2", "gaussian"), "gaussian.pbar2")
    try:
        return GaussianMacSpec(
            chain, gains1, gains2, pbar1, pbar2, d1, d2,
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


def _parse_region_gaussian(raw: dict, seed: int) -> tuple[dict, dict]:
    chain = _parse_chain(_require(raw, "chain", "top level"))
    d1, d2, dres = _parse_delays(_require(raw, "delays", "top level"))
    conf_sec = _require(raw, "conferencing", "top level")
    _check_keys(conf_sec, {"c12", "c21"}, "conferencing")
    c12_raw = conf_sec.get("c12", 0.0)
    c12_list = c12_raw if isinstance(c12_raw, list) else [c12_raw]
    if not c12_list:
        raise ConfigError("'conferencing.c12' must be a capacity or a nonempty list")
    c12_vals = [_capacity(c, "conferencing.c12") for c in c12_list]
    c21 = _capacity(conf_sec.get("c21", 0.0), "conferencing.c21")
    trace_sec = raw.get("trace", {}) or {}
    _check_keys(trace_sec, {"n_directions"}, "trace")
    n_directions = _int(trace_sec.get("n_directions", 16), "trace.n_directions")
    if n_directions < 2:
        raise ConfigError("'trace.n_directions' must be >= 2")
    # the links shift the rate caps, not the channel: one spec, one link pair per c12
    spec = _parse_gaussian(_require(raw, "gaussian", "top level"), chain, d1, d2)
    resolved = dict(delays=dres, c12_values=c12_vals, c21=c21, n_directions=n_directions,
                    convention=spec.convention)
    return resolved, {
        "spec": spec, "links": [(c12, c21) for c12 in c12_vals],
        "n_directions": n_directions, "solver": _parse_solver(raw),
    }


def _parse_region_discrete(raw: dict, seed: int) -> tuple[dict, dict]:
    chain = _parse_chain(_require(raw, "chain", "top level"))
    d1, d2, dres = _parse_delays(_require(raw, "delays", "top level"))
    channel = _parse_channel(_require(raw, "channel", "top level"))
    conf = _parse_conferencing(raw.get("conferencing", {}) or {})
    search_sec = _require(raw, "search", "top level")
    _check_keys(
        search_sec, {"u_size", "grid_levels", "restarts", "weights", "max_passes"}, "search"
    )
    weights = search_sec.get("weights", [[1.0, 1.0]])
    if not isinstance(weights, list) or not weights or not all(
        isinstance(w, list) and len(w) == 2 for w in weights
    ):
        raise ConfigError("'search.weights' must be a nonempty list of [mu1, mu2] pairs")
    # an omitted key keeps the SearchConfig default
    budget = {
        name: _int(search_sec[name], f"search.{name}")
        for name in ("u_size", "grid_levels", "restarts", "max_passes") if name in search_sec
    }
    mus = [[_float(mu, "search.weights") for mu in w] for w in weights]
    try:
        searches = [SearchConfig(seed=seed, mu1=mu1, mu2=mu2, **budget) for mu1, mu2 in mus]
        check_search_size(searches[0], chain.k, channel)
    except ValueError as exc:
        raise ConfigError(f"search: {exc}") from exc
    return dict(delays=dres, weights=weights), {
        "chain": chain, "d1": d1, "d2": d2, "channel": channel, "conf": conf,
        "searches": searches,
    }


def _parse_sweep_sumrate(raw: dict, seed: int) -> tuple[dict, dict]:
    chain = _parse_chain(_require(raw, "chain", "top level"))
    cases = [_parse_delays(c) for c in _items(raw, "delay_cases")]
    c_list = [_capacity(c, "c_list") for c in _items(raw, "c_list")]
    gauss = _require(raw, "gaussian", "top level")
    return dict(delay_cases=[dres for _, _, dres in cases], c_list=c_list), {
        "cases": [(dres, _parse_gaussian(gauss, chain, d1, d2))
                  for d1, d2, dres in cases],
        "c_list": c_list, "solver": _parse_solver(raw),
    }


def _parse_sweep_correlation(raw: dict, seed: int) -> tuple[dict, dict]:
    conf = _parse_conferencing(_require(raw, "conferencing", "top level"))
    snr_db = [_float(v, "snr_db") for v in _items(raw, "snr_db")]
    for s in snr_db:
        try:  # the run's power budget, 10^(s/10), must be a finite float
            finite = math.isfinite(10.0 ** (s / 10.0))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"'snr_db' entry {s!r}: its linear power is not finite")
    return dict(c12=conf.c12, c21=conf.c21, snr_db=snr_db), {"conf": conf, "snr_db": snr_db}


def _parse_simulate(raw: dict, seed: int) -> tuple[dict, dict]:
    chain = _parse_chain(_require(raw, "chain", "top level"))
    d1, d2, dres = _parse_delays(_require(raw, "delays", "top level"))
    channel = _parse_channel(_require(raw, "channel", "top level"))
    policy = _parse_policy(_require(raw, "policy", "top level"))
    try:
        check_compatible(chain.k, policy, channel)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rates_sec = _require(raw, "rates", "top level")
    _check_keys(rates_sec, {"r0", "r1", "r2"}, "rates")
    sim_sec = _require(raw, "sim", "top level")
    _check_keys(sim_sec, {"n_list", "epsilon", "trials"}, "sim")
    n_list = [_int(n, "sim.n_list") for n in _items(sim_sec, "n_list", "sim")]
    epsilon = _float(sim_sec.get("epsilon", 0.05), "sim.epsilon")
    trials = _int(_require(sim_sec, "trials", "sim"), "sim.trials")
    if trials < 1:
        raise ConfigError("'sim.trials' must be >= 1")
    if not epsilon > 0:
        raise ConfigError("'sim.epsilon' must be positive")
    conf = _parse_conferencing(raw["conferencing"]) if "conferencing" in raw else None
    r0 = _float(rates_sec.get("r0", 0.0), "rates.r0")
    r1 = _float(_require(rates_sec, "r1", "rates"), "rates.r1")
    r2 = _float(_require(rates_sec, "r2", "rates"), "rates.r2")
    for name, r in (("r0", r0), ("r1", r1), ("r2", r2)):
        if not r >= 0:
            raise ConfigError(f"'rates.{name}' must be nonnegative")
    if conf is not None and r0 != 0.0:
        raise ConfigError("conferencing simulation uses r1/r2 only; set r0 to 0")
    # the decoder's caps, checked before a run allocates any codebook
    for n in n_list:
        if n <= d1:  # every trial would count as an error
            raise ConfigError(f"'sim.n_list' entry n={n}: no position after delays.d1={d1}")
        try:
            if conf is None:
                counts = tuple(message_count(n, r) for r in (r0, r1, r2))
            else:
                counts = conferencing_counts(n, (r1, r2), conf)
            check_decoder_caps(n, counts)
        except ValueError as exc:
            raise ConfigError(f"'sim.n_list' entry n={n}: {exc}") from exc
    resolved = dict(delays=dres, n_list=n_list, epsilon=epsilon, trials=trials,
                    rates={"r0": r0, "r1": r1, "r2": r2},
                    mode="conferencing" if conf is not None else "common")
    return resolved, {
        "chain": chain, "d1": d1, "d2": d2, "channel": channel, "policy": policy,
        "rates": (r0, r1, r2), "conf": conf, "n_list": n_list, "epsilon": epsilon,
        "trials": trials,
    }


def _parse_asymptotics(raw: dict, seed: int) -> tuple[dict, dict]:
    parsed = []
    for i, p in enumerate(_items(raw, "pairs")):
        _check_keys(p, {"c12", "c21"}, f"pairs[{i}]")
        parsed.append(
            (_capacity(_require(p, "c12", f"pairs[{i}]"), "c12"),
             _capacity(_require(p, "c21", f"pairs[{i}]"), "c21"))
        )
    return dict(pairs=[{"c12": a, "c21": b} for a, b in parsed]), {"pairs": parsed}


class Kind(NamedTuple):
    keys: set[str]  # top-level keys besides kind, seed and output
    parse: Callable[[dict, int], tuple[dict, dict]]  # raw, seed -> resolved, objects
    run: Callable[[ExperimentConfig], Computed]


KINDS = {
    "region-gaussian": Kind({"chain", "delays", "gaussian", "conferencing", "solver", "trace"},
                            _parse_region_gaussian, run_region_gaussian),
    "region-discrete": Kind({"chain", "delays", "channel", "conferencing", "search"},
                            _parse_region_discrete, run_region_discrete),
    "sweep-sumrate": Kind({"chain", "gaussian", "delay_cases", "c_list", "solver"},
                          _parse_sweep_sumrate, run_sweep_sumrate),
    "sweep-correlation": Kind({"conferencing", "snr_db"},
                              _parse_sweep_correlation, run_sweep_correlation),
    "simulate": Kind({"chain", "delays", "channel", "policy", "rates", "conferencing", "sim"},
                     _parse_simulate, run_simulate),
    "asymptotics": Kind({"pairs"}, _parse_asymptotics, run_asymptotics),
}


def load_config(path: str, seed_override: int | None = None, out_override: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment file, applying CLI overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"'kind' must be one of {', '.join(KINDS)}; got {kind!r}")
    _check_keys(raw, {"kind", "seed", "output"} | KINDS[kind].keys, "top level")

    seed = raw.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    seed = _int(seed, "seed")
    if seed < 0:  # numpy's seed sequences take nonnegative entropy only
        raise ConfigError(f"'seed' must be nonnegative, got {seed}")

    output = raw.get("output", {}) or {}
    _check_keys(output, {"dir", "prefix"}, "output")
    out_dir = str(output.get("dir", "."))
    if out_override is not None:
        out_dir = out_override
    prefix = str(output.get("prefix", kind))

    canonical = json.loads(json.dumps(raw, default=str))
    canonical["seed"] = seed

    resolved, objects = KINDS[kind].parse(raw, seed)
    return ExperimentConfig(kind=kind, seed=seed, out_dir=out_dir, prefix=prefix,
                            canonical=canonical, resolved=resolved, objects=objects)
