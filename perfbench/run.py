"""fsmac benchmark: run one workload as a user runs `fsmac <kind> --config`,
check its outputs against stored references and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 every repetition is a fresh, untraced process: whole runs
until --seconds are used, each after a set-up probe (import fsmac +
load_config), and one more probe after the last run, so that the set-up
samples spread over the whole window. The end-to-end metrics are medians over
those processes. With --trace 1 one untraced run is followed by runs with the
layer boundaries wrapped; the per-layer metrics are medians over the traced
runs, and the tracing overhead is the traced minus the untraced wall time.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The metric names and units are
read from BENCHMARK.json at the repository root. Run facts (nproc, versions,
BLAS threads, git SHA), every check error and the metrics are also written to
perfbench/.work/<workload>-s<seed>-t<trace>/result.json. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_SAMPLES = 20          # a percentile with 10 samples beyond it needs 20
TRACE_TIME_CAP_S = 150.0  # a traced run stops adding runs past this
CHILD_TIMEOUT_S = 170.0
UNSPANNED_TOL_S = 5e-3    # wrappers cost microseconds; the rest allows one preemption

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
import workloads as wl  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_threads() -> None:
    """Cap BLAS and OpenMP threads at nproc, for this process and its children."""
    nproc = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": sha or "unknown (not a git checkout)",
        "machine": platform.machine(),
    }


def run_child(cfg_path: str, out_json: str, mode: str, run_id: str) -> dict:
    """One fresh process; returns its result record."""
    proc = subprocess.run(
        [sys.executable, CHILD, cfg_path, out_json, mode, run_id],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{mode} process exited {proc.returncode}: {tail[0]}")
    with open(out_json, encoding="utf-8") as fh:
        return json.load(fh)


# -- output checks ---------------------------------------------------------


class Checker:
    """Checks each run's CSV rows; one row is one operation."""

    def __init__(self, workload: str, cfg: dict, refs: dict) -> None:
        self.workload = workload
        self.cfg = cfg
        self.refs = refs[workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._pending: list[list[dict]] = []   # simulate rows, checked at the end

    def add_failed_run(self, message: str) -> None:
        n = wl.expected_ops(self.workload)
        self.attempted += n
        self.failed += n
        self.errors.append(message)

    def _tally(self, result) -> None:
        attempted, failed, errors = result
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def add_run(self, out_dir: str) -> list[dict]:
        """Check one run's outputs; returns its CSV rows."""
        prefix = os.path.join(out_dir, self.workload.replace("-", "_"))
        rows = wl.read_csv(prefix + ".csv")
        if self.workload == "gauss-region":
            self._tally(wl.check_gauss(rows, self.refs))
        elif self.workload == "discrete-search":
            with open(prefix + "_policies.yaml", encoding="utf-8") as fh:
                policies = yaml.safe_load(fh)
            self._tally(wl.check_discrete(rows, policies, self.refs, self.cfg))
        else:
            self._pending.append(rows)
        return rows

    def finish(self) -> None:
        """Check Monte Carlo counts: stored reference, else the oracle's replay."""
        if not self._pending:
            return
        stored = self.refs["errors"].get(str(self.cfg["seed"]))
        if stored is None:
            from oracle import error_count

            stored = error_count(self.cfg)
        for rows in self._pending:
            self._tally(wl.check_simulate(rows, stored, self.cfg["sim"]["trials"]))
        self._pending.clear()


# -- statistics ------------------------------------------------------------


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 without samples."""
    xs = sorted(samples)
    return xs[max(math.ceil(pct / 100.0 * len(xs)), 1) - 1] if xs else 0.0


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p50..p99.9 with at least 10
    samples beyond it, or (0, 0) with fewer than 20 samples."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct, percentile(samples, pct)
    return 0.0, 0.0


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(results: list[dict], untraced_wall: list[float]) -> dict:
    """Per-layer metrics from the traced runs' summaries (medians over runs)."""
    traces = [r["trace"] for r in results]

    def med(get):
        return _median([get(t) for t in traces])

    def layer(name, key):
        return med(lambda t: t["layers"].get(name, {}).get(key, 0.0))

    def count(name):
        return med(lambda t: t["counts"].get(name, 0))

    out = {}
    traced_wall = _median([r["wall_s"] for r in results])
    out["tracing.wall_s"] = traced_wall
    out["tracing.untraced_wall_s"] = _median(untraced_wall)
    out["tracing.overhead_s"] = traced_wall - _median(untraced_wall)
    out["tracing.unspanned_s"] = _median([r["wall_s"] - r["trace"]["self_sum_s"] for r in results])
    out["tracing.runs"] = len(traces)
    out["config.load_s"] = layer("config.load", "busy_s")
    out["experiments.self_s"] = layer("experiments", "self_s")
    out["svgplot.render_s"] = layer("svgplot.render", "busy_s")

    # gaussian: every solve counts its flag; unknown flags fold into "other"
    solves = count("gaussian.solves")
    busy = layer("gaussian", "busy_s")
    out["gaussian.solves"] = solves
    out["gaussian.busy_s"] = busy
    out["gaussian.self_s"] = layer("gaussian", "self_s")
    steps = count("gaussian.steps")
    out["gaussian.step_us"] = busy / steps * 1e6 if steps else 0.0
    samples = [s for t in traces for s in t["samples"].get("gaussian", [])]
    pct, tail = tail_percentile(samples)
    out["gaussian.solve_ms.p50"] = percentile(samples, 50) * 1e3
    out["gaussian.solve_ms.tail"] = tail * 1e3
    out["gaussian.solve_ms.tail_pct"] = pct
    known = ("budget-exhausted", "converged", "certified")
    for flag in known:
        out[f"gaussian.flag.{flag}"] = med(lambda t: t["flags"].get(flag, 0))
    out["gaussian.flag.other"] = med(
        lambda t: sum(v for k, v in t["flags"].items() if k not in known))

    # regions and the pmf kernels they call
    out["regions.searches"] = count("regions.searches")
    out["regions.busy_s"] = layer("regions", "busy_s")
    out["regions.self_s"] = layer("regions", "self_s")
    evals = count("regions.evals")
    out["regions.evals"] = evals
    out["regions.eval_us"] = out["regions.busy_s"] / evals * 1e6 if evals else 0.0
    for name in ("pmf.assemble_joint", "pmf.cmi"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.busy_s"] = layer(name, "busy_s")
        out[f"{name}.self_s"] = layer(name, "self_s")

    # coding: trial loop, decoder, encoder, state paths
    out["coding.trials"] = count("coding.trials")
    out["coding.self_s"] = layer("coding", "self_s")
    out["coding.decode.busy_s"] = layer("coding.decode", "busy_s")
    out["coding.decode.self_s"] = layer("coding.decode", "self_s")
    samples = [s for t in traces for s in t["samples"].get("coding.decode", [])]
    pct, tail = tail_percentile(samples)
    out["coding.decode_ms.p50"] = percentile(samples, 50) * 1e3
    out["coding.decode_ms.tail"] = tail * 1e3
    out["coding.decode_ms.tail_pct"] = pct
    triplets = count("coding.triplets")
    out["coding.triplets"] = triplets
    out["coding.triplet_us"] = out["coding.decode.busy_s"] / triplets * 1e6 if triplets else 0.0
    out["coding.encode.busy_s"] = layer("coding.encode", "busy_s")
    out["coding.encode.self_s"] = layer("coding.encode", "self_s")
    for outcome in ("correct", "wrong", "none", "several"):
        out[f"coding.outcome.{outcome}"] = count(f"coding.outcome.{outcome}")
    out["markov.path.busy_s"] = layer("markov.path", "busy_s")
    out["markov.path.self_s"] = layer("markov.path", "self_s")
    path_steps = count("markov.path.steps")
    out["markov.path_us_per_step"] = out["markov.path.busy_s"] / path_steps * 1e6 if path_steps else 0.0
    return out


def trace_consistency(result: dict, rows: list[dict] | None) -> list[str]:
    """Every span must be closed, the layer self times must add up to the
    process's own timing of run_experiment, and the decoder outcomes must
    account for every counted block error."""
    trace = result["trace"]
    problems = []
    if trace["open_spans"]:
        problems.append(f"{trace['open_spans']} spans left open")
    gap = result["wall_s"] - trace["self_sum_s"]
    if not 0.0 <= gap <= UNSPANNED_TOL_S:
        problems.append(f"layer self times sum to {trace['self_sum_s']!r} s, wall {result['wall_s']!r} s")
    counts = trace["counts"]
    if counts.get("coding.trials") and rows is not None:
        wrong = sum(counts.get(f"coding.outcome.{o}", 0) for o in ("wrong", "none", "several"))
        errors = sum(int(r["errors"]) for r in rows)
        if wrong != errors:
            problems.append(f"decoder outcomes give {wrong} errors, CSV {errors}")
    return problems


# -- one benchmark run -----------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str, refs: dict):
    out_dir = os.path.join(work, "out")
    cfg_path = wl.write_config(workload, seed, out_dir)
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    checker = Checker(workload, cfg, refs)
    tag = f"{workload}-s{seed}"

    def child(mode: str, i: int) -> dict | None:
        try:
            return run_child(cfg_path, os.path.join(work, f"{mode}{i}.json"), mode, f"{tag}-{mode}{i}")
        except (ChildFailed, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            if mode == "setup":
                checker.errors.append(f"setup: {exc}")
            else:
                checker.add_failed_run(f"{mode} {i}: {exc}")
            return None

    def run_and_check(mode: str, i: int) -> dict | None:
        res = child(mode, i)
        if res is not None:
            try:
                res["rows"] = checker.add_run(out_dir)
            except (OSError, KeyError, ValueError) as exc:
                checker.add_failed_run(f"{mode} {i}: output unreadable: {exc}")
        return res

    def repeat(mode: str, enough, probes: list[float] | None = None) -> tuple[list[dict], int]:
        """Fresh `mode` processes while another one fits in `seconds`, or
        until enough(results) too; never past TRACE_TIME_CAP_S. With
        `probes`, a set-up probe goes before each run and its set-up time
        is appended there."""
        results, durations = [], []
        while True:
            t = time.perf_counter()
            if probes is not None:
                probe = child("setup", len(durations) + 1)
                if probe is not None:
                    probes.append(probe["setup_s"])
            res = run_and_check(mode, len(durations) + 1)
            durations.append(time.perf_counter() - t)
            if res is not None:
                results.append(res)
            next_end = time.perf_counter() - start + _median(durations)
            if next_end > TRACE_TIME_CAP_S or (next_end > seconds and enough(results)):
                return results, len(durations)

    # compiles bytecode and fills the file cache; users do not pay this per run
    child("setup", 0)
    start = time.perf_counter()
    if not trace:
        setups: list[float] = []
        results, runs = repeat("run", lambda results: True, setups)
        last = child("setup", runs + 1)
        setups += [r["setup_s"] for r in results] + ([last["setup_s"]] if last else [])
        metrics = {
            "wall_s": _median([r["wall_s"] for r in results]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
        }
        extra = {
            "runs": runs,
            "setup_samples": setups,
            "run_samples": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb")} for r in results],
        }
    else:
        untraced = run_and_check("run", 0)
        sampled = wl.SAMPLED_LAYER[workload]
        results, runs = repeat("trace", lambda results: sampled is None or sum(
            len(r["trace"]["samples"].get(sampled, [])) for r in results) >= MIN_SAMPLES)
        for r in results:
            checker.errors.extend(trace_consistency(r, r.get("rows")))
        metrics = layer_metrics(results, [untraced["wall_s"]] if untraced else [])
        flags = sum((Counter(r["trace"]["flags"]) for r in results), Counter())
        extra = {"runs": runs, "gaussian_flags": dict(flags)}
    checker.finish()
    return checker, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    refs_path = os.path.join(HERE, "references.json")
    for path in (manifest_path, refs_path, os.path.join(ROOT, "src", "fsmac", "__init__.py")):
        if not os.path.isfile(path):
            print(f"perfbench: {path} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(refs_path, encoding="utf-8") as fh:
        refs = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names or args.workload not in wl.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    _cap_threads()
    env = environment()
    work = os.path.join(HERE, ".work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checker, metrics, extra = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), work, refs)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        checker.errors.append(f"metrics not computed: {missing}")
    correct = not checker.errors and checker.failed == 0 and checker.attempted > 0
    attempted = max(checker.attempted, 1)
    out_metrics = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": checker.failed, "errors": checker.errors,
        "metrics": out_metrics, **extra,
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  runs {extra['runs']}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    if extra.get("gaussian_flags"):
        print(f"# gaussian flags over all traced runs {json.dumps(extra['gaussian_flags'], sort_keys=True)}")
    for err in checker.errors[:20]:
        print(f"# check failed: {err}")
    for name, m in out_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_failed_ratio = {checker.failed / attempted:.6g} ratio "
          f"({checker.failed} of {attempted} CSV rows)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": checker.failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
