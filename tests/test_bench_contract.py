"""The benchmark tracer's contract with the package.

`bench/tracer.py` wraps each entry in its `TARGETS` by replacing the
attribute on its owner, so every name must stay a module or class attribute
that callers look up at call time.  A refactor that moves or inlines one of
them breaks the per-layer trace without failing any other test.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("padmm_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_owner_attribute(tracer):
    for owner, attr, _ in tracer.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_install_then_uninstall_restores_originals(tracer):
    from padmm import engine

    targets = [(owner, attr) for owner, attr, _ in tracer.TARGETS] + [(engine, "minimize")]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        t.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def traced_spans(tracer, capsys, algorithm):
    """Span name -> spans of one tiny traced `padmm run` of algorithm (4 agents, 3 rounds)."""
    from padmm import cli

    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["run", "--algorithm", algorithm, "--synthetic-n", "200",
                         "--n-agents", "4", "--topology", "ring", "--T", "3"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    by_name = {}
    for span in t.spans:
        by_name.setdefault(span.name, []).append(span)
    return by_name


COMMON_SPANS = {"cli.main", "cli.to_ndjson", "topology.build_graph", "data.prepare_data",
                "accountant.build_plan", "engine.run", "engine.dual_update", "solver.minimize",
                "metrics.average_loss", "metrics.error_rate", "metrics.consensus_residual"}
PRIVATE_SPANS = {"noise.gaussian_vector", "accountant.charge"}
GATE_SPANS = {"svt.check", "noise.laplace_scalar", "model.clipped_quality"}


def test_traced_runs_call_every_target(tracer, capsys):
    # a refactor that stops calling a traced name would silently zero a per-layer metric
    n, T = 4, 3
    spans = {algorithm: traced_spans(tracer, capsys, algorithm)
             for algorithm in ("nonprivate", "pp_admm", "ipp_admm")}
    assert set(spans["nonprivate"]) == COMMON_SPANS
    assert set(spans["pp_admm"]) == COMMON_SPANS | PRIVATE_SPANS
    assert set(spans["ipp_admm"]) == COMMON_SPANS | PRIVATE_SPANS | GATE_SPANS
    assert set().union(*spans.values()) == {name for _, _, name in tracer.TARGETS} | {
        "solver.minimize"}
    for by_name in spans.values():
        assert len(by_name["solver.minimize"]) == T
        assert all(span.evals >= 1 for span in by_name["solver.minimize"])
    pp, ipp = spans["pp_admm"], spans["ipp_admm"]
    assert len(pp["noise.gaussian_vector"]) == 2 * n * T  # b1 and b2, every agent and round
    assert len(pp["accountant.charge"]) == n * T
    assert len(ipp["svt.check"]) == n * T  # exhausted gates are checked too
    assert len(ipp["model.clipped_quality"]) == T
