"""Experiment runner CLI: `padmm run | plan | validate`.

Configs are flat `key = value` text files; every key can be overridden by a
flag.  Reports are newline-delimited JSON: a config echo, one record per
(seed, round), and a summary with aggregates and the privacy accounting.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import accountant, data as data_mod, engine, topology
from .solver import SolverConfig


@dataclass
class ExperimentConfig:
    algorithm: str = "nonprivate"  # nonprivate | pp_admm | ipp_admm
    # Data source: CSV when dataset_csv is set, otherwise synthetic blobs.
    dataset_csv: str | None = None
    label_column: str | None = None
    positive_value: str | None = None
    synthetic_n: int = 2000
    synthetic_d: int = 5
    synthetic_separation: float = 5.0
    n_agents: int = 5
    topology: str = "random"  # ring | complete | random
    edge_prob: float = 0.5
    topology_seed: int = 0
    split_seed: int = 0
    epsilon: float = 1.0
    delta: float = 1e-4
    T: int = 30
    eta: float = 0.5
    splits: float = 0.001
    beta: float = 10.0**-3.5
    c_max: int = 15
    c_loss: float = 2.0
    alpha: float = 1e-3
    svt_budget_fraction: float = 0.1
    lambda_hat: float | None = None  # None: planned floor (private) / 0.01 (nonprivate)
    max_iterations: int = 10_000
    seeds: tuple = (0,)
    test_fraction: float = 0.2
    output: str | None = None
    insecure_no_noise: bool = False


@dataclass
class RunReport:
    config: dict
    rounds: list  # one dict per (seed, round)
    summary: dict

    def to_ndjson(self) -> str:
        lines = [json.dumps({"type": "config", **self.config})]
        lines += [json.dumps({"type": "round", **record}) for record in self.rounds]
        lines.append(json.dumps({"type": "summary", **self.summary}))
        return "\n".join(lines) + "\n"


class ConfigError(ValueError):
    pass


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _integer(name: str, value) -> int:
    """value as an int if it is an integral number (2 or 2.0), else ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _coerce(name: str, raw):
    """A config value as its field's declared type; text is decoded as JSON.

    String fields keep their text unless it is a JSON string, or null for an
    optional one (so `positive_value = 1` is the label "1" and
    `algorithm = "ipp_admm"` is ipp_admm).  Float fields take finite
    numbers, integer fields integral ones, and insecure_no_noise true or
    false.
    """
    if name not in _FIELDS:
        raise ConfigError(f"unknown config key {name!r}")
    kind = _FIELDS[name].type
    value = raw
    if isinstance(raw, str):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            pass  # not JSON: only string fields take it
    if value is None and kind.endswith("| None"):
        return None
    if kind.startswith("str"):
        return value if isinstance(value, str) else raw
    if name == "seeds":
        seeds = value if isinstance(value, (list, tuple)) else [value]
        return tuple(_integer(name, s) for s in seeds)
    if kind == "int":
        return _integer(name, value)
    if kind.startswith("float"):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # an int past the float range
                if math.isfinite(value):
                    return value
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if isinstance(value, bool):  # insecure_no_noise, the one bool field
        return value
    raise ConfigError(f"{name} must be true or false, got {value!r}")


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    values = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_num}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        values[key] = _coerce(key, value.strip())
    return values


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    values = {}
    if path is not None:
        with open(path) as fh:
            values.update(parse_config_text(fh.read()))
    for key, value in overrides.items():
        if value is not None:
            values.update({key: _coerce(key, value)})
    return ExperimentConfig(**values)


def build_graph(cfg: ExperimentConfig) -> topology.Graph:
    if cfg.topology == "ring":
        return topology.ring(cfg.n_agents)
    if cfg.topology == "complete":
        return topology.complete(cfg.n_agents)
    if cfg.topology == "random":
        return topology.random_connected(cfg.n_agents, cfg.edge_prob, cfg.topology_seed)
    raise ConfigError(f"unknown topology {cfg.topology!r}")


def prepare_data(cfg: ExperimentConfig):
    """Load or generate, split, partition, and normalize with the training maxima.

    Returns (train shards as data.partition stacks them, test Dataset), all
    views of one C-contiguous (n, d) buffer into which each sample is written
    once: first the training shards' rows, in data.shard_order over the
    training split, then the test samples in split-permutation order.
    Generated samples are drawn straight into their rows and normalized with
    their own maxima, as data.synthetic_blobs does; loaded ones are gathered
    with one take.  Then, in place, the training rows are multiplied by their
    labels, and one normalize call scales every row by the training maxima.
    The bits are those of normalizing the training split and partitioning it
    afterwards.
    """
    if cfg.dataset_csv is not None:
        if cfg.label_column is None or cfg.positive_value is None:
            raise ConfigError("CSV input needs label_column and positive_value")
        raw = data_mod.load_csv(cfg.dataset_csv, cfg.label_column, cfg.positive_value)
        n, d = raw.features.shape
    else:
        n, d = cfg.synthetic_n, cfg.synthetic_d
    n_test = max(1, int(round(n * cfg.test_fraction)))
    n_train = n - n_test
    if n_train < cfg.n_agents:
        raise ConfigError("not enough training samples for the agent count")
    # The buffer is allocated before the index arrays: in a process that sets
    # up again, it then takes the hole that the last buffer left in the heap
    # before smaller arrays split it, so the heap does not grow by a buffer.
    x = np.empty((n, d))
    # The test samples lead the split permutation; the buffer puts them last.
    perm = np.random.default_rng(cfg.split_seed).permutation(n)
    shards, layout = data_mod.shard_order(n_train, cfg.n_agents, cfg.split_seed)
    order = np.concatenate([perm[n_test:].take(shards), perm[:n_test]])
    del perm, shards
    if cfg.dataset_csv is not None:
        # every index is in range; mode="clip" writes into x with no buffer copy
        raw.features.take(order, axis=0, out=x, mode="clip")
        labels = raw.labels
        del raw
    else:
        data_mod.draw_blobs(x, cfg.synthetic_separation, cfg.split_seed, order)
        labels = data_mod.blob_labels(n)
    x[:n_train] *= labels.take(order[:n_train])[:, None]
    test_labels = labels.take(order[n_train:])
    del order, labels
    # Held-out data is normalized with the training columns' maxima.
    data_mod.normalize(x, data_mod.column_scales(x[:n_train]))
    return data_mod.shard_blocks(x, layout), data_mod.Dataset(x[n_train:], test_labels)


def build_plan(cfg: ExperimentConfig, train_parts, graph) -> accountant.BudgetPlan | None:
    if cfg.algorithm == "nonprivate":
        return None
    if cfg.algorithm not in ("pp_admm", "ipp_admm"):
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    gated = cfg.algorithm == "ipp_admm"
    return accountant.plan_budget(
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        T=cfg.T,
        splits=cfg.splits,
        dataset_sizes=dict(sorted((int(i), block.features.shape[1])
                                  for block in train_parts for i in block.rows)),
        eta=cfg.eta,
        degrees=graph.degrees(),
        beta=cfg.beta,
        c_broadcasts=cfg.c_max if gated else None,
        svt_budget_fraction=cfg.svt_budget_fraction if gated else None,
    )


def build_experiment(cfg: ExperimentConfig):
    """Graph, train shards (data.ShardBlock), test set and budget plan (None for nonprivate)."""
    if cfg.T < 1:
        raise ConfigError(f"T must be >= 1, got {cfg.T}")
    if not cfg.seeds:
        raise ConfigError("seeds must list at least one seed")
    for name, values in (("seeds", cfg.seeds), ("split_seed", [cfg.split_seed]),
                         ("topology_seed", [cfg.topology_seed])):
        if min(values) < 0:
            raise ConfigError(f"{name} must be >= 0, got {min(values)}")
    repeated = next((s for s in cfg.seeds if cfg.seeds.count(s) > 1), None)
    if repeated is not None:
        raise ConfigError(f"seeds must be distinct, got {repeated} twice")
    if not cfg.eta > 0:
        raise ConfigError(f"eta must be > 0, got {cfg.eta}")
    if cfg.lambda_hat is not None and cfg.lambda_hat < 0:
        raise ConfigError(f"lambda_hat must be >= 0, got {cfg.lambda_hat}")
    if not cfg.beta > 0:
        raise ConfigError(f"beta must be > 0, got {cfg.beta}")
    if cfg.max_iterations < 1:
        raise ConfigError(f"max_iterations must be >= 1, got {cfg.max_iterations}")
    if cfg.algorithm == "ipp_admm" and not cfg.c_loss > 0:
        raise ConfigError(f"c_loss must be > 0, got {cfg.c_loss}")
    if not 0 < cfg.test_fraction < 1:
        raise ConfigError(f"test_fraction must be in (0, 1), got {cfg.test_fraction}")
    if cfg.dataset_csv is None:
        if cfg.synthetic_n < 2:
            raise ConfigError(f"synthetic_n must be >= 2, got {cfg.synthetic_n}")
        if cfg.synthetic_d < 1:
            raise ConfigError(f"synthetic_d must be >= 1, got {cfg.synthetic_d}")
    graph = build_graph(cfg)
    train_parts, test = prepare_data(cfg)
    plan = build_plan(cfg, train_parts, graph)
    if plan is not None and cfg.lambda_hat is not None:
        accountant.check_lambda_hat(plan, cfg.lambda_hat)
    return graph, train_parts, test, plan


def _round_records(seed, run: engine.Run, insecure_no_noise: bool) -> list:
    """One report record per round of one seed's run."""
    agents = [str(i) for i in range(run.broadcasts.shape[1])]
    spent = run.spent.tolist() if run.spent is not None else [[]] * len(run.average_loss)
    return [{
        "seed": seed,
        "round": t,
        "average_loss": loss,
        "error_rate": error,
        "consensus_residual": residual,
        "broadcasts": dict(zip(agents, bits)),
        "cumulative_rho": {a: "inf" if insecure_no_noise else rho for a, rho in zip(agents, rhos)},
    } for t, (loss, error, residual, bits, rhos) in enumerate(zip(
        run.average_loss.tolist(), run.error_rate.tolist(), run.consensus_residual.tolist(),
        run.broadcasts.tolist(), spent))]


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    graph, train_parts, test, plan = build_experiment(cfg)
    solver_cfg = SolverConfig(beta=cfg.beta, max_iterations=cfg.max_iterations)
    if cfg.insecure_no_noise and cfg.algorithm != "nonprivate":
        print(
            "WARNING: --insecure-no-noise disables all privacy noise; "
            "this run provides NO differential privacy (epsilon = inf).",
            file=sys.stderr,
        )

    runs = {}  # seed -> engine.Run
    for seed in cfg.seeds:
        if cfg.algorithm == "nonprivate":
            lam = cfg.lambda_hat if cfg.lambda_hat is not None else 0.01
            runs[seed] = engine.run_nonprivate(
                train_parts, graph, cfg.eta, lam, cfg.T, solver_cfg, test=test
            )
        elif cfg.algorithm == "pp_admm":
            runs[seed] = engine.run_pp_admm(
                train_parts, graph, plan, cfg.eta, solver_cfg, seed,
                lambda_hat=cfg.lambda_hat, test=test,
                noise_disabled=cfg.insecure_no_noise,
            )
        else:
            runs[seed] = engine.run_ipp_admm(
                train_parts, graph, plan, cfg.eta, cfg.alpha, cfg.c_loss, solver_cfg, seed,
                lambda_hat=cfg.lambda_hat, test=test, noise_disabled=cfg.insecure_no_noise,
            )

    report = RunReport(
        config=dataclasses.asdict(cfg),
        rounds=[record for seed, run in runs.items()
                for record in _round_records(seed, run, cfg.insecure_no_noise)],
        summary=_summarize(runs, _privacy(runs, plan, cfg.insecure_no_noise), graph),
    )
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(report.to_ndjson())
    return report


def _privacy(runs, plan, insecure_no_noise: bool) -> dict | None:
    """The privacy block: per agent, the largest final spend of any one seed's run.

    Runs on different seeds are separate experiments, not composed, so the
    block is the worst single run and does not depend on the seeds' order.
    Without noise there is no guarantee: every rho and both epsilons read "inf".
    """
    if plan is None:
        return None
    worst = np.max([run.spent[-1] for run in runs.values()], axis=0)
    report = accountant.privacy_report(worst, plan.delta_total)
    if insecure_no_noise:
        report.update(per_agent_rho=dict.fromkeys(report["per_agent_rho"], "inf"),
                      total_rho="inf", epsilon_sufficient="inf", epsilon_conservative="inf")
    return report


def _summarize(runs, privacy, graph):
    """Per-round mean and std over seeds, privacy spend and broadcast counts."""

    def column(reduce, field):
        # (T, seeds): each round is one contiguous row, reduced as a 1-D array would be
        values = np.stack([getattr(run, field) for run in runs.values()], axis=1)
        return reduce(values, axis=1).tolist()

    return {
        "n_seeds": len(runs),
        "graph_edges": [list(e) for e in graph.edges],
        "mean_average_loss": column(np.mean, "average_loss"),
        "std_average_loss": column(np.std, "average_loss"),
        "mean_error_rate": column(np.mean, "error_rate"),
        "std_error_rate": column(np.std, "error_rate"),
        "privacy": privacy,
        "broadcast_counts": {
            str(seed): {str(i): int(n) for i, n in enumerate(run.broadcasts.sum(axis=0))}
            for seed, run in runs.items()
        },
    }


def validate_config(cfg: ExperimentConfig) -> list:
    """Check a config's derived objects without training; returns findings."""
    graph, train_parts, test, plan = build_experiment(cfg)
    notes = [
        f"graph: {cfg.topology} on {graph.n} agents, {len(graph.edges)} edges",
        f"data: {sum(p.n_samples for p in train_parts)} train / {test.n_samples} test, "
        f"d={train_parts[0].features.shape[2]}",
    ]
    if plan is not None:
        notes.append(
            f"plan: rho_total={plan.rho_total:.6g}, lambda_hat_floor={plan.lambda_hat_floor:.6g}"
        )
    return notes


def _add_override_args(parser):
    parser.add_argument("--config", help="flat key=value config file")
    for name, f in _FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if f.type == "bool" or isinstance(f.default, bool):
            parser.add_argument(flag, dest=name, action="store_const", const="true")
        else:
            parser.add_argument(flag, dest=name)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="padmm")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "plan", "validate"):
        _add_override_args(sub.add_parser(command))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    overrides = {name: getattr(args, name) for name in _FIELDS}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "run":
            report = run_experiment(cfg)
            if not cfg.output:
                sys.stdout.write(report.to_ndjson())
            return 0
        if args.command == "plan":
            _, _, _, plan = build_experiment(cfg)
            if plan is None:
                raise ConfigError("plan requires a private algorithm")
            print(json.dumps(dataclasses.asdict(plan), indent=2))
            return 0
        for note in validate_config(cfg):
            print(note)
        print("config OK")
        return 0
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"padmm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
