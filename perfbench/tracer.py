"""Spans around the layer boundaries of fsmac, recorded from outside.

The tracer replaces functions that callers look up as module attributes
(``experiments.trace_boundary``, ``coding.decode_joint_typicality``, ...)
with timing wrappers, so no source file changes. Each call becomes a span
(id, parent id, layer name, start, end) sharing one run id; spans stay in
memory and are written once, when the run ends. Hooks read counts at the same
boundaries: solves and solver flags, search evaluations, decoder candidate
triplets and outcomes, state-path steps.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# every layer a span can belong to; "experiments" is the root span of a run
LAYERS = (
    "experiments", "gaussian", "regions", "pmf.assemble_joint", "pmf.cmi",
    "coding", "coding.decode", "coding.encode", "markov.path", "svgplot.render",
)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[list] = []          # [id, parent, layer, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.flags: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._sent = None

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, layer,
                time.perf_counter() - self.origin, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> float:
        span[4] = time.perf_counter() - self.origin
        self._stack.pop()
        return span[4] - span[3]

    def wrap(self, module, attr: str, layer: str, after=None) -> None:
        """Time every call of `module.attr` as a span of `layer`.

        `after(args, result, seconds)` runs once the call returned, with the
        call's arguments bound to parameter names.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(span)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result, seconds)
            return result

        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span around a block of the caller's own code."""
        span = self._open(layer)
        try:
            yield
        finally:
            self._close(span)

    # -- hooks -------------------------------------------------------------

    def _solve_steps(self, config) -> int:
        from fsmac.gaussian import SolverConfig

        config = config or SolverConfig()
        return (3 + config.multistarts) * config.rounds * config.iterations

    def _after_trace(self, args, points, seconds):
        # directions are solved one after another inside the call, or as one
        # batch; each counts as a solve timed at the call's mean
        n = int(args["n_directions"])
        self.counts["gaussian.solves"] += n
        self.counts["gaussian.steps"] += n * self._solve_steps(args["config"])
        self.samples["gaussian"].extend([seconds / n] * n)
        self.flags.update(p.flag for p in points)

    def _after_solve(self, args, result, seconds):
        self.counts["gaussian.solves"] += 1
        self.counts["gaussian.steps"] += self._solve_steps(args["config"])
        self.samples["gaussian"].append(seconds)
        self.flags[result.flag] += 1

    def _after_search(self, args, result, seconds):
        self.counts["regions.searches"] += 1
        self.counts["regions.evals"] += int(result.visited)

    def _after_trials(self, args, result, seconds):
        self.counts["coding.trials"] += int(args["trials"])

    def _after_encode(self, args, result, seconds):
        self._sent = (int(args["m0"]), int(args["m1"]), int(args["m2"]))

    def _after_decode(self, args, result, seconds):
        m0, m1, m2 = args["books"].sizes
        self.counts["coding.triplets"] += m0 * m1 * m2
        self.samples["coding.decode"].append(seconds)
        if result.n_typical == 0:
            outcome = "none"
        elif result.n_typical > 1:
            outcome = "several"
        elif result.triplet == self._sent:
            outcome = "correct"
        else:
            outcome = "wrong"
        self.counts[f"coding.outcome.{outcome}"] += 1
        self._sent = None

    def _after_path(self, args, result, seconds):
        self.counts["markov.path.steps"] += int(args["n"])

    def install(self) -> None:
        """Wrap the layer boundaries of an imported fsmac."""
        from fsmac import coding, experiments, regions

        self.wrap(experiments, "run_experiment", "experiments")
        self.wrap(experiments, "trace_boundary", "gaussian", self._after_trace)
        self.wrap(experiments, "maximize_weighted_rate", "gaussian", self._after_solve)
        self.wrap(experiments, "inner_bound_search", "regions", self._after_search)
        self.wrap(regions, "assemble_joint", "pmf.assemble_joint")
        self.wrap(regions, "conditional_mutual_information", "pmf.cmi")
        self.wrap(experiments, "estimate_error_rate", "coding", self._after_trials)
        self.wrap(experiments, "conferencing_error_rate", "coding", self._after_trials)
        self.wrap(coding, "assemble_joint", "pmf.assemble_joint")
        self.wrap(coding, "encode", "coding.encode", self._after_encode)
        self.wrap(coding, "decode_joint_typicality", "coding.decode", self._after_decode)
        self.wrap(coding, "sample_state_path", "markov.path", self._after_path)
        self.wrap(experiments, "render_plot", "svgplot.render")

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, busy time and self time, with counts and samples.

        Self time is a span's length minus the length of its direct child
        spans. `self_sum_s` adds up the self times of every layer in LAYERS;
        the caller compares it with its own timing of the run, which catches
        time outside the spans. Spans still open are counted, not timed.
        """
        closed = [s for s in self.spans if s[4] is not None]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _layer, start, end in closed:
            if parent is not None:
                child_time[parent] += end - start
        layers = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for sid, parent, layer, start, end in closed:
            entry = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child_time[sid]
        return {
            "layers": layers,
            "open_spans": len(self.spans) - len(closed),
            "self_sum_s": sum(v["self_s"] for k, v in layers.items() if k in LAYERS),
            "counts": dict(self.counts),
            "flags": dict(self.flags),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "name": layer,
                    "start": start, "end": end,
                }) + "\n")
