"""The four benchmark workloads: the experiment config each one generates
from a seed, and the check of each run's CSV rows against stored references.

Every workload is an `fsmac` experiment config. The seed becomes the
experiment seed, so it moves the solver's random starts, the search's random
restarts and the Monte Carlo streams; sizes are fixed, so the work per run
does not depend on the seed. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import csv
import math
import os

import yaml

CHAIN_SYM = {"states": ["G", "B"], "transition": [[0.9, 0.1], [0.1, 0.9]]}

# criterion 10's two-state chain and gated parity channel: state G passes
# x1 xor x2, state B outputs a fair coin
CHAIN_TREND = {"states": ["G", "B"], "transition": [[0.1468, 0.8532], [0.0468, 0.9532]]}
GATED_PARITY = [
    [[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]]],
    [[[0.0, 1.0], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]]],
]

# region_discrete.yaml's state-flipping parity channel
STATE_FLIP = [
    [[[1.0, 0.0], [0.65, 0.35]], [[0.0, 1.0], [0.35, 0.65]]],
    [[[0.0, 1.0], [0.35, 0.65]], [[1.0, 0.0], [0.65, 0.35]]],
]

# a two-symbol U that each encoder follows with probability 0.9; with a
# one-symbol U every common-message candidate is identical and every
# conferencing trial fails by construction
POLICY_FOLLOW_U = {
    "pU": [[0.5, 0.5], [0.5, 0.5]],
    "pX1": [[[0.9, 0.1], [0.9, 0.1]], [[0.1, 0.9], [0.1, 0.9]]],
    "pX2": [
        [[[0.9, 0.1], [0.9, 0.1]], [[0.9, 0.1], [0.9, 0.1]]],
        [[[0.1, 0.9], [0.1, 0.9]], [[0.1, 0.9], [0.1, 0.9]]],
    ],
}

GAUSS_C12 = [0.0, 0.5]
DISCRETE_WEIGHTS = [[1.0, 0.25], [1.0, 1.0], [0.25, 1.0]]
DECODE_TRIALS = 8
LONGBLOCK_TRIALS = 800

GAUSS_TOL = 1e-3      # criterion 3's tolerance, in bits
DISCRETE_TOL = 1e-9


def _gauss_region(seed: int) -> dict:
    return {
        "kind": "region-gaussian",
        "seed": seed,
        "chain": CHAIN_SYM,
        "delays": {"d1": 2, "d2": 2},
        "gaussian": {
            "n_sub": 1, "gains1": [[1.0], [0.1]], "gains2": [[1.0], [0.1]],
            "pbar1": 10.0, "pbar2": 10.0, "convention": "real",
        },
        "conferencing": {"c12": GAUSS_C12, "c21": 0.0},
        # region_gaussian.yaml's solver budget
        "solver": {"iterations": 300, "rounds": 8, "multistarts": 1},
        "trace": {"n_directions": 2},
    }


def _decode_heavy(seed: int) -> dict:
    # r = 0.0312 is criterion 10's 120 % point: 253 messages per user at
    # n = 256, so 253^2 = 64,009 candidate triplets per trial
    return {
        "kind": "simulate",
        "seed": seed,
        "chain": CHAIN_TREND,
        "delays": {"d1": 1, "d2": 1},
        "channel": {"table": GATED_PARITY},
        "policy": {
            "pU": [[1.0], [1.0]],
            "pX1": [[[0.5, 0.5], [0.5, 0.5]]],
            "pX2": [[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]],
        },
        "rates": {"r0": 0.0, "r1": 0.0312, "r2": 0.0312},
        "sim": {"n_list": [256], "epsilon": 0.07, "trials": DECODE_TRIALS},
    }


def _longblock_conf(seed: int) -> dict:
    # n = 512 is the decoder's blocklength cap; r = 0.004 gives 4 messages
    # per user, c = 0.002 splits each into 2 cells x 2 indices: 16 triplets
    return {
        "kind": "simulate",
        "seed": seed,
        "chain": CHAIN_SYM,
        "delays": {"d1": 2, "d2": 1},
        "channel": {"table": STATE_FLIP},
        "policy": POLICY_FOLLOW_U,
        "rates": {"r0": 0.0, "r1": 0.004, "r2": 0.004},
        "conferencing": {"c12": 0.002, "c21": 0.002},
        "sim": {"n_list": [512], "epsilon": 0.08, "trials": LONGBLOCK_TRIALS},
    }


def _discrete_search(seed: int) -> dict:
    # max_passes = 2 fixes the work per seed: without it a seed whose random
    # restarts need a third pass costs up to 19 % more evaluations
    return {
        "kind": "region-discrete",
        "seed": seed,
        "chain": CHAIN_SYM,
        "delays": {"d1": 2, "d2": 1},
        "channel": {"table": STATE_FLIP},
        "conferencing": {"c12": 0.2, "c21": 0.1},
        "search": {
            "u_size": 2, "grid_levels": 5, "restarts": 4, "max_passes": 2,
            "weights": DISCRETE_WEIGHTS,
        },
    }


BUILDERS = {
    "gauss-region": _gauss_region,
    "decode-heavy": _decode_heavy,
    "longblock-conf": _longblock_conf,
    "discrete-search": _discrete_search,
}

# the per-layer samples a traced run needs at least 20 of, so that a
# percentile with 10 samples beyond it exists
SAMPLED_LAYER = {
    "gauss-region": "gaussian",
    "decode-heavy": "coding.decode",
    "longblock-conf": "coding.decode",
    "discrete-search": None,
}


def experiment_seed(seed: int) -> int:
    """The benchmark seed as an experiment seed (a nonnegative integer)."""
    return seed % (1 << 31)


def write_config(workload: str, seed: int, out_dir: str) -> str:
    """Write the workload's experiment config for `seed` into `out_dir`."""
    cfg = BUILDERS[workload](experiment_seed(seed))
    cfg["output"] = {"dir": out_dir, "prefix": workload.replace("-", "_")}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_ops(workload: str) -> int:
    """CSV rows one run of the workload writes, counted when a run fails."""
    return {
        "gauss-region": 2 * len(GAUSS_C12),
        "decode-heavy": 1,
        "longblock-conf": 1,
        "discrete-search": len(DISCRETE_WEIGHTS),
    }[workload]


def row_key(*values) -> str:
    return ",".join(f"{float(v):.9g}" for v in values)


def check_gauss(rows: list[dict], ref: dict) -> tuple[int, int, list[str]]:
    """Match rows to the reference by (c12, theta); values within 1e-3 bits.

    The flag column is not compared: it says how the solver stopped, which a
    certified solver is expected to change.
    """
    want = {row_key(r["c12"], r["theta"]): r for r in ref["rows"]}
    got = {row_key(r["c12"], r["theta"]): r for r in rows}
    errors = []
    for key in sorted(set(want) | set(got)):
        if key not in got or key not in want:
            errors.append(f"row (c12, theta) = ({key}) is {'missing' if key in want else 'unexpected'}")
            continue
        for col in ("r1", "r2", "value", "max_r1", "max_r2"):
            a, b = float(got[key][col]), float(want[key][col])
            if not abs(a - b) <= GAUSS_TOL:
                errors.append(f"row ({key}) {col} = {a!r}, reference {b!r}")
                break
    return len(set(want) | set(got)), len(errors), errors


def check_discrete(rows: list[dict], policies: list[dict], ref: dict, cfg: dict) -> tuple[int, int, list[str]]:
    """Re-evaluate each returned policy and bound its value from below.

    The value must equal conferencing_bounds(assemble_joint(...)) of the
    dumped policy to 1e-9, and be at least the reference value minus 1e-9.
    The reference is the stored value of the seed's search where there is
    one; for any other seed it is the value of restart 0, whose start is the
    uniform policy, so it holds for every seed.
    """
    import numpy as np
    from fsmac import (ConferencingConfig, DmcChannel, InputPolicy, MarkovChain,
                       assemble_joint, best_weighted_point, conferencing_bounds,
                       delayed_state_joint)

    chain = MarkovChain(cfg["chain"]["states"], np.asarray(cfg["chain"]["transition"]))
    dsj = delayed_state_joint(chain, cfg["delays"]["d1"], cfg["delays"]["d2"])
    channel = DmcChannel(np.asarray(cfg["channel"]["table"]))
    conf = ConferencingConfig(cfg["conferencing"]["c12"], cfg["conferencing"]["c21"])
    dumped = {row_key(p["mu1"], p["mu2"]): p for p in policies}
    reference = ref["values"].get(str(cfg["seed"]), ref["value_floor"])
    errors = []
    keys = [row_key(*w) for w in DISCRETE_WEIGHTS]
    got = {row_key(r["mu1"], r["mu2"]): r for r in rows}
    for key in sorted(set(keys) | set(got)):
        if key not in got or key not in dumped or key not in keys:
            errors.append(f"weights ({key}): row or policy missing or unexpected")
            continue
        row, pol = got[key], dumped[key]
        mu1, mu2 = (float(v) for v in key.split(","))
        policy = InputPolicy(*(np.asarray(pol["policy"][n]) for n in ("pU", "pX1", "pX2")))
        bounds = conferencing_bounds(assemble_joint(dsj, policy, channel), conf)
        value, point = best_weighted_point(bounds, mu1, mu2)
        v = float(row["value"])
        if not (abs(v - value) <= DISCRETE_TOL and abs(float(row["r1"]) - point.r1) <= DISCRETE_TOL
                and abs(float(row["r2"]) - point.r2) <= DISCRETE_TOL):
            errors.append(f"weights ({key}): CSV value {v!r} != re-evaluated {value!r}")
        elif v < reference[key] - DISCRETE_TOL:
            errors.append(f"weights ({key}): value {v!r} below reference {reference[key]!r}")
    return len(set(keys) | set(got)), len(errors), errors


def check_simulate(rows: list[dict], errors_expected: int, trials: int) -> tuple[int, int, list[str]]:
    """The Monte Carlo error count must match the reference exactly."""
    errors = []
    if len(rows) != 1:
        return max(len(rows), 1), max(len(rows), 1), [f"{len(rows)} rows, expected 1"]
    row = rows[0]
    if int(row["trials"]) != trials or int(row["errors"]) != errors_expected:
        errors.append(
            f"errors {row['errors']} of {row['trials']} trials; reference {errors_expected} of {trials}"
        )
    elif not math.isclose(float(row["p_e"]), errors_expected / trials, rel_tol=1e-9, abs_tol=1e-12):
        errors.append(f"p_e {row['p_e']} != {errors_expected}/{trials}")
    return 1, len(errors), errors
