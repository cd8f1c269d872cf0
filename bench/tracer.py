"""Outside-in per-layer tracing for the padmm benchmark.

`Tracer.install()` replaces the public functions through which each padmm
layer is called with timing wrappers, at the names their callers look up at
call time; `uninstall()` restores the originals.  Nothing under `src/`
changes, and an untraced run installs nothing.

Spans are kept in memory with a parent id and written out at the end.  The
layer of a span is the module prefix of its name.  Objective evaluations
are not spans: the objective closure that the engine passes to `minimize` is
wrapped, and its calls are counted and timed on the enclosing solver span, so
a fused value-and-gradient objective is still counted once per evaluation.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

from padmm import accountant, cli, engine, metrics, noise, svt

# (owner, attribute, span name).  Each attribute is looked up by its caller at
# call time: cli calls engine.run_* and its own build_* helpers, the engine
# calls metrics.*, noise.gaussian_vector and its own module globals, and the
# SVT gate calls svt.laplace_scalar.
TARGETS = [
    (cli, "main", "cli.main"),
    (cli.RunReport, "to_ndjson", "cli.to_ndjson"),
    (cli, "build_graph", "topology.build_graph"),
    (cli, "prepare_data", "data.prepare_data"),
    (cli, "build_plan", "accountant.build_plan"),
    (engine, "run_nonprivate", "engine.run"),
    (engine, "run_pp_admm", "engine.run"),
    (engine, "run_ipp_admm", "engine.run"),
    (engine, "dual_update", "engine.dual_update"),
    (engine, "clipped_quality", "model.clipped_quality"),
    (metrics, "average_loss", "metrics.average_loss"),
    (metrics, "error_rate", "metrics.error_rate"),
    (metrics, "consensus_residual", "metrics.consensus_residual"),
    (noise, "gaussian_vector", "noise.gaussian_vector"),
    (svt, "laplace_scalar", "noise.laplace_scalar"),
    (svt.SvtGate, "check", "svt.check"),
    (accountant.ZcdpLedger, "charge_pp_iteration", "accountant.charge"),
    (accountant.ZcdpLedger, "charge_ipp", "accountant.charge"),
]

# The per-layer self times must add up to the traced experiments' wall time
# measured outside the tracer, within this share of that time.
SELF_SUM_TOLERANCE = 0.01


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "failed", "evals", "model_s", "value")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.failed = False
        self.evals = 0      # solver spans: objective evaluations
        self.model_s = 0.0  # solver spans: time inside the objective
        self.value = None   # svt.check: decision value; cli.to_ndjson: bytes

    def as_list(self):
        return [self.id, self.parent, self.name, self.start, self.end, self.failed,
                self.evals, self.model_s, self.value]


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def _begin(self, name):
        span = Span(len(self.spans), self._open[-1] if self._open else None, name, perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def _end(self, span):
        span.end = perf_counter()
        self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._end(span)
            if name == "svt.check":
                span.value = result.value
            elif name == "cli.to_ndjson":
                span.value = len(result)  # json.dumps output is ASCII
            return result

        return traced

    def _wrap_minimize(self, fn):
        def traced_minimize(objective, start, cfg):
            span = self._begin("solver.minimize")

            def counted(theta):
                t0 = perf_counter()
                try:
                    return objective(theta)
                finally:
                    span.model_s += perf_counter() - t0
                    span.evals += 1

            try:
                return fn(counted, start, cfg)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._end(span)

        return traced_minimize

    def install(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self._saved.append((engine, "minimize", engine.minimize))
        engine.minimize = self._wrap_minimize(engine.minimize)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": list(Span.__slots__),
                       "spans": [s.as_list() for s in self.spans]}, fh)


def _pct(values, q):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def layer_metrics(spans, n_experiments, rows_per_eval, traced_wall_s, untraced_wall_s):
    """Per-layer metrics from the spans of `n_experiments` traced experiments.

    Counts and seconds are means per experiment; percentiles pool all samples.
    Returns (metrics, self_seconds_by_layer, self_sum_ok).
    """
    children_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children_s[s.parent] += s.end - s.start
    by_name = {}
    self_s = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        layer = s.name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (s.end - s.start) - children_s[s.id] - s.model_s
        if s.model_s:
            self_s["model"] = self_s.get("model", 0.0) + s.model_s

    def named(name):
        return by_name.get(name, [])

    def total_s(*names):
        return sum(s.end - s.start for name in names for s in named(name))

    per_exp = 1.0 / n_experiments
    solves = named("solver.minimize")
    evals = [s.evals for s in solves]
    model_s = sum(s.model_s for s in solves)
    n_evals = sum(evals)
    checks = named("svt.check")
    above = sum(1 for s in checks if s.value == "above")

    # A round ends at the engine's one consensus_residual call per round.
    round_start = {run.id: run.start for run in named("engine.run")}
    rounds_ms = []
    for s in named("metrics.consensus_residual"):
        if s.parent in round_start:
            rounds_ms.append((s.end - round_start[s.parent]) * 1e3)
            round_start[s.parent] = s.end

    out = {
        "solver.solves": len(solves) * per_exp,
        "solver.evals_per_solve_mean": n_evals / len(solves) if solves else 0.0,
        "solver.evals_per_solve_p50": _pct(evals, 50),
        "solver.evals_per_solve_p99": _pct(evals, 99),
        "solver.evals_per_solve_max": float(max(evals, default=0)),
        "solver.solve_ms_p50": _pct([(s.end - s.start) * 1e3 for s in solves], 50),
        "solver.solve_ms_p99": _pct([(s.end - s.start) * 1e3 for s in solves], 99),
        "solver.self_s": self_s.get("solver", 0.0) * per_exp,
        "solver.failures": sum(1 for s in solves if s.failed) * per_exp,
        "model.evals": n_evals * per_exp,
        "model.s": model_s * per_exp,
        "model.us_per_eval": model_s / n_evals * 1e6 if n_evals else 0.0,
        "model.rows_per_s": n_evals * rows_per_eval / model_s if model_s else 0.0,
        "model.quality_calls": len(named("model.clipped_quality")) * per_exp,
        "model.quality_s": total_s("model.clipped_quality") * per_exp,
        "metrics.average_loss_s": total_s("metrics.average_loss") * per_exp,
        "metrics.error_rate_s": total_s("metrics.error_rate") * per_exp,
        "metrics.consensus_s": total_s("metrics.consensus_residual") * per_exp,
        "engine.s": total_s("engine.run") * per_exp,
        "engine.self_s": self_s.get("engine", 0.0) * per_exp,
        "engine.dual_s": total_s("engine.dual_update") * per_exp,
        "engine.round_ms_p50": _pct(rounds_ms, 50),
        "engine.round_ms_p99": _pct(rounds_ms, 99),
        "noise.draws": len(named("noise.gaussian_vector") + named("noise.laplace_scalar")) * per_exp,
        "noise.s": total_s("noise.gaussian_vector", "noise.laplace_scalar") * per_exp,
        "svt.checks": len(checks) * per_exp,
        "svt.above": above * per_exp,
        "svt.accept_ratio": above / len(checks) if checks else 0.0,
        "svt.s": total_s("svt.check") * per_exp,
        "accountant.charges": len(named("accountant.charge")) * per_exp,
        "accountant.charge_s": total_s("accountant.charge") * per_exp,
        "data.prepare_s": total_s("data.prepare_data") * per_exp,
        "accountant.plan_s": total_s("accountant.build_plan") * per_exp,
        "cli.ndjson_s": total_s("cli.to_ndjson") * per_exp,
        "cli.ndjson_bytes": sum(s.value or 0 for s in named("cli.to_ndjson")) * per_exp,
        "cli.self_s": sum(s.end - s.start - children_s[s.id] for s in named("cli.main")) * per_exp,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
    }
    self_sum_ok = abs(sum(self_s.values()) - traced_wall_s) <= SELF_SUM_TOLERANCE * traced_wall_s
    return out, self_s, self_sum_ok
