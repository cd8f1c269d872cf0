"""Golden traces: tiny runs of each algorithm against committed NDJSON reports.

Each `tests/golden/<name>.cfg` is a `padmm run` config and `<name>.ndjson`
its report; for the private algorithms `<name>.plan.json` is its `padmm plan`
output.  A change that alters any released or evaluated number by more
than a relative 1e-9 fails here.  After a deliberate numerical change,
regenerate the files from the repository root with

    PYTHONPATH=src python -m padmm.cli run --config tests/golden/<name>.cfg \
        > tests/golden/<name>.ndjson
    PYTHONPATH=src python -m padmm.cli plan --config tests/golden/<name>.cfg \
        > tests/golden/<name>.plan.json

and say in the change description why the traces moved.
"""

import json
import math
from pathlib import Path

import pytest

from padmm import cli

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9


def assert_close(actual, expected, path="report"):
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        assert actual == expected, path
    elif isinstance(expected, (int, float)):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), path
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0), (
            f"{path}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{path}[{k}]")
    else:
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_close(actual[key], expected[key], f"{path}.{key}")


@pytest.mark.parametrize("name", ["nonprivate", "pp_admm", "ipp_admm"])
def test_report_matches_golden(name):
    cfg = cli.load_config(str(GOLDEN / f"{name}.cfg"), {})
    actual = cli.run_experiment(cfg).to_ndjson().splitlines()
    expected = (GOLDEN / f"{name}.ndjson").read_text().splitlines()
    assert len(actual) == len(expected)
    for line_num, (a, e) in enumerate(zip(actual, expected), start=1):
        assert_close(json.loads(a), json.loads(e), f"{name}.ndjson:{line_num}")


@pytest.mark.parametrize("name", ["pp_admm", "ipp_admm"])
def test_plan_matches_golden(name, capsys):
    assert cli.main(["plan", "--config", str(GOLDEN / f"{name}.cfg")]) == 0
    actual = json.loads(capsys.readouterr().out)
    expected = json.loads((GOLDEN / f"{name}.plan.json").read_text())
    assert_close(actual, expected, f"{name}.plan.json")
