"""padmm benchmark: whole `padmm run` experiments, end to end and per layer.

Run from the repository root:

    python3 bench/run_bench.py --workload pp_large --seed 0 --seconds 30 --trace 0

One invocation runs one workload in this process, closed loop: experiments
run back to back, each one `padmm.cli.main(["run", ..., "--seeds", "[s]"])`
call writing its NDJSON report under bench/out/.  The workload seed selects
the block of experiment seeds [seed * block, (seed + 1) * block), so seed 0
gives the documented seeds (0-5 for ipp_default) and any other seed a
disjoint block.  The block is run once, then again while another pass still
fits in --seconds.  Every report is checked; a crash or a failed check
counts as a failed experiment and is printed with its message.

--trace 0 reports the end-to-end metrics with no wrapper installed.
--trace 1 runs every experiment twice, untraced and then traced (see
tracer.py), and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


@dataclass(frozen=True)
class Workload:
    config: dict  # ExperimentConfig fields as `padmm run` flags take them
    block: int  # experiment seeds per workload seed
    why: str
    max_final_error: float | None = None  # output check: final error below this


WORKLOADS = {
    "ipp_default": Workload(
        {"algorithm": "ipp_admm", "synthetic_n": 2000, "synthetic_d": 5, "n_agents": 5,
         "topology": "random", "edge_prob": 0.5, "epsilon": 1.0, "T": 30},
        block=6,
        why="The documented default config: solver-iteration-bound and heavy-tailed; seeds 1 "
            "and 4 of 0-5 crash with NonConvergence and are reported as failed experiments.",
    ),
    "ipp_ring": Workload(
        {"algorithm": "ipp_admm", "synthetic_n": 2000, "synthetic_d": 5, "n_agents": 5,
         "topology": "ring", "epsilon": 1.0, "T": 30},
        block=80,
        why="The SVT-gated loop on the default data with no degree-3 agent, so every seed "
            "finishes and 80 seeds a run average out the per-seed spread of gate outcomes.",
    ),
    "pp_large": Workload(
        {"algorithm": "pp_admm", "synthetic_n": 100000, "synthetic_d": 20, "n_agents": 10,
         "topology": "random", "edge_prob": 0.5, "epsilon": 1.0, "T": 30},
        block=6,
        why="Large 8000x20 shards make the model kernel, the metrics passes and data setup "
            "dominate, with a tight solver tail.",
    ),
    "many_agents": Workload(
        {"algorithm": "nonprivate", "synthetic_n": 20000, "synthetic_d": 5, "n_agents": 100,
         "topology": "ring", "T": 100},
        block=1,
        why="100 agents on tiny shards with about 5 evaluations per solve, so per-agent Python "
            "overhead, dual updates, the metrics loop and wide NDJSON records dominate.",
        max_final_error=0.5,
    ),
}

# End-to-end metric units (reported with --trace 0).
E2E_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "agent_solves_per_s": "1/s",
    "final_test_error": "frac",
    "peak_rss_mb": "MB",
}

# Per-layer metric units (reported with --trace 1); see tracer.layer_metrics.
LAYER_UNITS = {
    "solver.solves": "count", "solver.evals_per_solve_mean": "count",
    "solver.evals_per_solve_p50": "count", "solver.evals_per_solve_p99": "count",
    "solver.evals_per_solve_max": "count", "solver.solve_ms_p50": "ms",
    "solver.solve_ms_p99": "ms", "solver.self_s": "s", "solver.failures": "count",
    "model.evals": "count", "model.s": "s", "model.us_per_eval": "us",
    "model.rows_per_s": "rows/s", "model.quality_calls": "count", "model.quality_s": "s",
    "metrics.average_loss_s": "s", "metrics.error_rate_s": "s", "metrics.consensus_s": "s",
    "engine.s": "s", "engine.self_s": "s", "engine.dual_s": "s",
    "engine.round_ms_p50": "ms", "engine.round_ms_p99": "ms",
    "noise.draws": "count", "noise.s": "s",
    "svt.checks": "count", "svt.above": "count", "svt.accept_ratio": "ratio", "svt.s": "s",
    "accountant.charges": "count", "accountant.charge_s": "s",
    "data.prepare_s": "s", "accountant.plan_s": "s",
    "cli.ndjson_s": "s", "cli.ndjson_bytes": "B", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Which end-to-end metric each layer's metrics should move, and on which workload.
LAYER_MAP = {
    "solver": "experiment_s, agent_solves_per_s, failed_frac on ipp_default (about 497 "
              "evaluations per solve, p99 about 2970); barely on many_agents (about 5)",
    "model": "experiment_s on pp_large (bandwidth-bound, about 610 us per evaluation on "
             "8000x20 shards) and many_agents (overhead-bound, about 87 us on 160x5 shards)",
    "metrics": "experiment_s on many_agents (error_rate loops over 100 agents) and pp_large; "
               "not ipp_default",
    "engine, noise": "experiment_s on many_agents (10000 solves a run); little on pp_large",
    "svt, accountant charges": "ipp_default and ipp_ring only; no change elsewhere",
    "data, accountant plan": "setup_s on pp_large (100k x 20 generated and partitioned); "
                             "tiny elsewhere",
    "cli": "experiment_s on many_agents (100-entry dicts in every round record)",
}


def import_padmm():
    """Import padmm from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "padmm" / "__init__.py").is_file():
        sys.exit(f"run_bench: no padmm sources at {src}")
    sys.path.insert(0, str(src))
    import padmm

    if Path(padmm.__file__).resolve().parent != src / "padmm":
        sys.exit(f"run_bench: imported padmm from {padmm.__file__}, not from {src}")


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_argv(wl: Workload, seed: int, output: Path) -> list:
    argv = ["run"]
    for key, value in wl.config.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--seeds", f"[{seed}]", "--output", str(output)]


def check_report(text: str, wl: Workload, cfg, seed: int) -> tuple[list, float | None]:
    """Output checks on one experiment's NDJSON; returns (problems, final error).

    Raises ValueError, KeyError, TypeError or IndexError on a malformed report.
    """
    records = [json.loads(line) for line in text.splitlines()]
    rounds = [r for r in records if r.get("type") == "round"]
    problems = []
    if [(r["seed"], r["round"]) for r in rounds] != [(seed, t) for t in range(cfg.T)]:
        problems.append(f"expected {cfg.T} round lines for seed {seed}, got {len(rounds)}")
    summary = records[-1] if records and records[-1].get("type") == "summary" else None
    if summary is None or not summary["mean_error_rate"]:
        return problems + ["no summary line with a final error rate"], None
    final_error = summary["mean_error_rate"][-1]
    if cfg.algorithm != "nonprivate":
        eps = summary["privacy"]["epsilon_sufficient"]
        counts = summary["broadcast_counts"][str(seed)].values()
        # The ledger spends the whole plan when every planned release happened:
        # always for pp_admm, and for ipp_admm once some agent used all c_max.
        if cfg.algorithm == "pp_admm" or max(counts) == cfg.c_max:
            if abs(eps - cfg.epsilon) > 1e-9:
                problems.append(f"epsilon_sufficient {eps!r} != configured {cfg.epsilon}")
        elif eps > cfg.epsilon + 1e-9:
            problems.append(f"epsilon_sufficient {eps!r} exceeds configured {cfg.epsilon}")
        if cfg.algorithm == "ipp_admm" and max(counts) > cfg.c_max:
            problems.append(f"broadcast counts {list(counts)} exceed c_max {cfg.c_max}")
    if wl.max_final_error is not None and not final_error < wl.max_final_error:
        problems.append(f"final error {final_error} not below {wl.max_final_error}")
    return problems, final_error


class Runner:
    """Runs and checks experiments; keeps one record per experiment."""

    def __init__(self, name: str, wl: Workload, cfg):
        self.wl = wl
        self.cfg = cfg
        self.output = OUT / f"{name}-{os.getpid()}.ndjson"
        self.records = []
        self._digests = {}

    def run(self, seed: int, traced: bool = False) -> dict:
        from padmm import cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(run_argv(self.wl, seed, self.output))
            wall = time.perf_counter() - t0
        record = {"seed": seed, "traced": traced, "wall_s": wall, "final_error": None}
        if rc == 0:
            text = self.output.read_text()
            try:
                problems, record["final_error"] = check_report(text, self.wl, self.cfg, seed)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"malformed report: {exc!r}"]
            digest = hashlib.sha256(text.encode()).hexdigest()
        else:
            problems = [err.getvalue().strip() or f"padmm exited with {rc}"]
            digest = problems[0]
        if self._digests.setdefault(seed, digest) != digest:
            problems.append("output differs from an earlier run of the same seed")
        record["completed"] = rc == 0
        record["problems"] = problems
        self.records.append(record)
        return record

    def close(self):
        self.output.unlink(missing_ok=True)


def time_setup(cfg, min_reps=7, min_total_s=0.5, max_reps=200):
    """Wall times of build_graph + prepare_data + build_plan, repeated."""
    from padmm import cli

    times = []
    while len(times) < min_reps or (sum(times) < min_total_s and len(times) < max_reps):
        t0 = time.perf_counter()
        graph = cli.build_graph(cfg)
        train_parts, _ = cli.prepare_data(cfg)
        cli.build_plan(cfg, train_parts, graph)
        times.append(time.perf_counter() - t0)
    return times, train_parts


def timing_summary(values) -> dict:
    """Sample count, median, and the highest of p75..p99.9 with >= 10 samples beyond it."""
    summary = {"n": len(values), "median": statistics.median(values)}
    for q in (99.9, 99, 95, 90, 75):
        if len(values) * (1 - q / 100) >= 10:
            summary[f"p{q:g}"] = sorted(values)[math.ceil(q / 100 * len(values)) - 1]
            break
    return summary


def experiment_walls(records) -> list:
    """Experiment wall times; a failed experiment counts as infinitely slow."""
    return [r["wall_s"] if not r["problems"] else math.inf for r in records]


def end_to_end(runner: Runner, setup_times: list) -> dict:
    records = runner.records
    solves = sum(runner.cfg.n_agents * runner.cfg.T for r in records if not r["problems"])
    errors = [r["final_error"] if not r["problems"] else 1.0 for r in records]
    return {
        "setup_s": statistics.median(setup_times),
        "experiment_s": statistics.median(experiment_walls(records)),
        "agent_solves_per_s": solves / sum(r["wall_s"] for r in records),
        "final_test_error": statistics.fmean(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_padmm()
    from padmm import cli

    wl = WORKLOADS[args.workload]
    cfg = cli.load_config(None, {k: str(v) for k, v in wl.config.items()})
    seeds = list(range(args.seed * wl.block, (args.seed + 1) * wl.block))
    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload}: {wl.why}")
    setup_times, train_parts = time_setup(cfg)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    runner = Runner(args.workload, wl, cfg)
    traced_wall = untraced_wall = 0.0
    passes = 0
    try:
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for seed in seeds:
                untraced_wall += runner.run(seed)["wall_s"]
                if tracer is not None:
                    tracer.install()
                    try:
                        traced_wall += runner.run(seed, traced=True)["wall_s"]
                    finally:
                        tracer.uninstall()
            passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > args.seconds:
                break
    finally:
        runner.close()

    records = runner.records
    failed = [r for r in records if r["problems"]]
    # A crash is a failed experiment; a completed one that fails a check is a wrong output.
    correct = not any(r["completed"] for r in failed)
    print(f"experiment seeds {seeds[0]}..{seeds[-1]}, {passes} pass(es), "
          f"{len(records)} experiments, {len(failed)} failed")
    for r in failed:
        print(f"FAILED seed {r['seed']}{' (traced)' if r['traced'] else ''}: "
              + "; ".join(r["problems"]))
    detail = {
        "workload": args.workload, "seed": args.seed, "experiment_seeds": seeds,
        "passes": passes, "config": wl.config, "why": wl.why,
        "failed_frac": len(failed) / len(records),
        "failures": [{"seed": r["seed"], "traced": r["traced"], "problems": r["problems"]}
                     for r in failed],
        "timings": {"setup_s": timing_summary(setup_times),
                    "experiment_s": timing_summary(experiment_walls(records))},
        "layer_map": LAYER_MAP,
        "environment": environment(),
    }

    if tracer is None:
        values, units = end_to_end(runner, setup_times), E2E_UNITS
    else:
        n_traced = sum(r["traced"] for r in records)
        rows_per_eval = sum(p.n_samples for p in train_parts) / len(train_parts)
        values, self_s, self_sum_ok = tracer_mod.layer_metrics(
            tracer.spans, n_traced, rows_per_eval, traced_wall, untraced_wall)
        units = LAYER_UNITS
        correct = correct and self_sum_ok
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        detail["self_s_by_layer"] = self_s
        detail["self_sum"] = {"layers_s": sum(self_s.values()), "traced_wall_s": traced_wall,
                              "tolerance": tracer_mod.SELF_SUM_TOLERANCE, "ok": self_sum_ok}
        detail["spans"] = {"count": len(tracer.spans), "file": str(trace_path.relative_to(ROOT))}
        print(f"layer self times sum to {detail['self_sum']['layers_s']:.4f} s of "
              f"{traced_wall:.4f} s traced wall ({'ok' if self_sum_ok else 'MISMATCH'}); "
              f"spans in {detail['spans']['file']}")

    print(f"{'failed_frac':<30} {detail['failed_frac']:.6g} frac")
    for name, value in values.items():
        print(f"{name:<30} {value:.6g} {units[name]}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
