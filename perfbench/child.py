"""One fresh process of a benchmark run, doing what `fsmac <kind> --config`
does: import fsmac, load the config, run the experiment with plots on.

    python3 perfbench/child.py <config.yaml> <result.json> <setup|run|trace> <run-id>

`setup` stops after load_config. `run` also runs the experiment, untraced.
`trace` runs it with the tracer's wrappers installed and writes the spans
next to the result file. The result file holds the timings, the peak
resident memory and, for `trace`, the per-layer summary.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    cfg_path, out_path, mode, run_id = sys.argv[1:5]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import fsmac.config
    import fsmac.experiments
    t1 = time.perf_counter()
    if not os.path.abspath(fsmac.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported fsmac from {fsmac.__file__}, not from {src}")

    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id)
        with tracer.span("config.load"):
            cfg = fsmac.config.load_config(cfg_path)
    else:
        cfg = fsmac.config.load_config(cfg_path)
    t2 = time.perf_counter()
    result = {"setup_s": t2 - t0, "import_s": t1 - t0, "load_s": t2 - t1}

    if mode != "setup":
        if tracer is not None:
            tracer.install()
        t3 = time.perf_counter()
        report = fsmac.experiments.run_experiment(cfg, plots=True)
        result["wall_s"] = time.perf_counter() - t3
        result["artifacts"] = report.artifacts
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.splitext(out_path)[0] + "_spans.jsonl")
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
