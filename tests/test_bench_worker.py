"""The benchmark's calling convention still works against loopsing.

The benchmark worker builds a `RunConfig` by keyword and renders each report
with `Report.to_json`; its setup probe runs the command line on `z^2`.  A
trimmed field or a renamed method would make every benchmark report fail, so
both calls are made here as the benchmark makes them.
"""

from __future__ import annotations

import importlib
import json

import pytest

from loopsing.cli import main, validate_report

from conftest import bench_module


@pytest.fixture(scope="module")
def worker():
    return bench_module("worker")


@pytest.mark.parametrize("workload", ["functional", "jacobian", "tower"])
def test_worker_renders_the_first_case(worker, workload):
    case = worker.workloads.generate(workload, 1, 20)[0]
    text, status = worker.render(importlib.import_module("loopsing.cli.main"), case)
    assert validate_report(json.loads(text)) == []
    assert status == (0 if case.isolated else 1)


@pytest.mark.parametrize("workload", ["functional", "jacobian", "tower"])
def test_every_seed_one_report_validates(worker, workload):
    # Every case a 20-second benchmark run of seed 1 issues.
    cli_main = importlib.import_module("loopsing.cli.main")
    for case in worker.workloads.generate(workload, 1, 20):
        text, _ = worker.render(cli_main, case)
        assert validate_report(json.loads(text)) == [], case.source


def test_setup_probe(capsys):
    assert main(["-f", "z^2", "--format", "structured"]) == 0
    assert validate_report(json.loads(capsys.readouterr().out)) == []
