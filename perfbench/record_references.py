"""Record the stored references that perfbench/run.py checks outputs against.

    python3 perfbench/record_references.py

Run it at a commit whose outputs are trusted; it rewrites
perfbench/references.json. It records
- gauss-region: the CSV rows at seed 0, after checking that seeds 1 and 2
  agree with them to the 1e-3-bit tolerance (the optimum does not depend on
  the solver's random starts);
- discrete-search: per weight pair, the returned value for seeds
  0..STORED_SEEDS-1, and the value of the search's restart 0, whose uniform
  start does not depend on the seed, as the floor for any other seed;
- decode-heavy and longblock-conf: the block error count for seeds
  0..STORED_SEEDS-1, after checking that oracle.py replays each count exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads as wl  # noqa: E402
from oracle import error_count  # noqa: E402

STORED_SEEDS = 32


def run(workload: str, seed: int, work: str) -> tuple[dict, list[dict]]:
    """Run the workload's experiment once in this process; return (config, rows)."""
    import yaml
    from fsmac.config import load_config
    from fsmac.experiments import run_experiment

    out_dir = os.path.join(work, f"{workload}-{seed}")
    path = wl.write_config(workload, seed, out_dir)
    run_experiment(load_config(path), plots=False)
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    return cfg, wl.read_csv(os.path.join(out_dir, workload.replace("-", "_") + ".csv"))


def main() -> int:
    work = os.path.join(HERE, ".work", "record")
    shutil.rmtree(work, ignore_errors=True)
    refs: dict = {}

    _, rows = run("gauss-region", 0, work)
    cols = ("c12", "theta", "r1", "r2", "value", "max_r1", "max_r2")
    refs["gauss-region"] = {"rows": [{c: float(r[c]) for c in cols} for r in rows]}
    for seed in (1, 2):
        _, rows = run("gauss-region", seed, work)
        _, failed, errors = wl.check_gauss(rows, refs["gauss-region"])
        if failed:
            raise SystemExit(f"gauss-region seed {seed} disagrees: {errors}")

    import numpy as np
    from fsmac import (ConferencingConfig, DmcChannel, MarkovChain, SearchConfig,
                       inner_bound_search)

    cfg = wl.BUILDERS["discrete-search"](0)
    chain = MarkovChain(cfg["chain"]["states"], np.asarray(cfg["chain"]["transition"]))
    channel = DmcChannel(np.asarray(cfg["channel"]["table"]))
    conf = ConferencingConfig(cfg["conferencing"]["c12"], cfg["conferencing"]["c21"])
    search = cfg["search"]
    floor = {}
    for mu1, mu2 in search["weights"]:
        res = inner_bound_search(
            chain, cfg["delays"]["d1"], cfg["delays"]["d2"], channel, conf,
            SearchConfig(u_size=search["u_size"], grid_levels=search["grid_levels"],
                         restarts=1, seed=0, mu1=mu1, mu2=mu2,
                         max_passes=search["max_passes"]),
        )
        floor[wl.row_key(mu1, mu2)] = float(res.value)
    values = {}
    for seed in range(STORED_SEEDS):
        _, rows = run("discrete-search", seed, work)
        values[str(seed)] = {wl.row_key(r["mu1"], r["mu2"]): float(r["value"]) for r in rows}
        low = [k for k, v in values[str(seed)].items() if v < floor[k] - wl.DISCRETE_TOL]
        if low:
            raise SystemExit(f"discrete-search seed {seed}: value below restart 0's at {low}")
    refs["discrete-search"] = {"value_floor": floor, "values": values}

    for workload in ("decode-heavy", "longblock-conf"):
        counts = {}
        for seed in range(STORED_SEEDS):
            cfg, rows = run(workload, seed, work)
            got = int(rows[0]["errors"])
            replay = error_count(cfg)
            if replay != got:
                raise SystemExit(f"{workload} seed {seed}: fsmac {got} errors, oracle {replay}")
            counts[str(seed)] = got
            print(workload, seed, got, flush=True)
        refs[workload] = {"errors": counts}

    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
