"""Smoke tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the program's src/ on the path)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.api import EngineOptions, RunConfig, Scenario  # noqa: E402

TINY = {
    "tiny_td": workloads.BatchWorkload(
        name="tiny_td",
        base=RunConfig(
            scheme="TD",
            failure="timeline",
            aggregate="sum",
            num_sensors=40,
            epochs=20,
            start_epoch=0,
            converge_epochs=10,
        ),
        chunk=10,
        short_setup=True,
    ),
    "tiny_tag": workloads.BatchWorkload(
        name="tiny_tag",
        base=RunConfig(
            scheme="TAG",
            topology="synthetic-scale",
            num_sensors=80,
            failure="global:0.2",
            aggregate="sum",
            epochs=12,
            engine=EngineOptions(state="packed"),
            retention="stream",
            storage="jsonl:.",
        ),
        chunk=128,
        short_setup=False,
    ),
    "tiny_service": workloads.ServiceWorkload(
        name="tiny_service",
        base=RunConfig(
            scheme="SD", failure="global:0.3", num_sensors=40, start_epoch=1000
        ),
        block_epochs=5,
        clients=(
            ((("SELECT count",), ("SELECT avg", "SELECT sum")), 5),
            ((("SELECT count GROUP BY region:2",),), 10),
        ),
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    table = tmp_path / "digests.json"
    table.write_text("{}")
    monkeypatch.setattr(run, "DIGESTS", table)
    monkeypatch.setattr(run, "WORKDIR", tmp_path / "work")
    return table


def _main(capsys, *args):
    code = run.main(["--seconds", "0", "--seed", "3", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(tiny, capsys, name, trace):
    code, result = _main(capsys, "--workload", name, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.END_TO_END if not trace else run.layer_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for metric in ("run_s", "setup_s", "epochs_per_s", "block_p50_s"):
            assert result["metrics"][metric]["value"] > 0


def _corrupt_one_estimate(monkeypatch):
    """Make the measurement simulator report one wrong estimate."""
    build = Scenario.build_simulator

    def build_simulator(self, scheme, checkpoint=None, audit=None,
                        on_result=None):
        def corrupted(result):
            if result.epoch == self.config.start_epoch + 3:
                result.estimate += 1.0
            on_result(result)

        return build(self, scheme, on_result=corrupted)

    monkeypatch.setattr(Scenario, "build_simulator", build_simulator)


def test_digest_gate_trips_on_a_corrupted_estimate(tiny, capsys, monkeypatch):
    workload = TINY["tiny_td"]
    clean = workload.unit(3, Tracer(), str(tiny.parent)).digest
    table = {"tiny_td": {"3": clean}}
    assert workloads.check_digest(table, "tiny_td", 3, clean) is None
    tiny.write_text(json.dumps(table))

    _corrupt_one_estimate(monkeypatch)
    corrupted = workload.unit(3, Tracer(), str(tiny.parent)).digest
    assert corrupted != clean
    assert "expected" in workloads.check_digest(table, "tiny_td", 3, corrupted)
    code, result = _main(capsys, "--workload", "tiny_td", "--trace", "0")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_units_agree_with_the_one_shot_run(tiny):
    for name in ("tiny_td", "tiny_tag"):
        workload = TINY[name]
        unit = workload.unit(4, Tracer(), str(tiny.parent))
        assert unit.digest == workload.reference_digest(4)


def test_self_times_account_for_the_unit():
    tracer = Tracer(record=True)
    TINY["tiny_service"].unit(2, tracer, ".")
    root = next(span for span in tracer.spans if span.name == "bench.unit")
    assert sum(tracer.self_times(0).values()) == pytest.approx(
        root.duration, rel=1e-9
    )
    layers = tracer.self_times(0)
    for name in ("service.subscribe", "service.boundary_block", "service.drain"):
        assert layers[name] > 0


def test_calibration_imports_nothing_from_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calib; "
        "calib.host_factor([calib.probe() for _ in range(3)]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('repro', 'numpy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "td_timeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(
        name for name in workloads.WORKLOADS if name not in TINY
    )
