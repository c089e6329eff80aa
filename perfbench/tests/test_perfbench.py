"""Tiny-size runs of every workload through the untraced and traced paths.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from perfbench import child, run
from perfbench.tracing import Tracer
from perfbench.workloads import BY_NAME, END_TO_END, PER_LAYER, benchmark_json

SCALE = 0.1  # virtual duration factor: steady 0.3 s, adversarial 1.5 s
# Computed by run.py: the overhead needs an untraced twin, the rest span seeds.
PARENT_ONLY = {"trace.overhead_s", "failed_share", "checks_failed", "committed_txs"}


def _bindings() -> dict:
    """Every attribute of every shardbft module and patched class, by identity."""
    import shardbft.assembler, shardbft.batcher, shardbft.consensus, shardbft.pools, shardbft.router  # noqa: E401

    owners = [m for name, m in sorted(sys.modules.items()) if name == "shardbft" or name.startswith("shardbft.")]
    owners += [
        shardbft.router.RouterNode, shardbft.batcher.BatcherNode, shardbft.consensus.ConsensusNode,
        shardbft.assembler.AssemblerNode, shardbft.pools.PrimaryPool, shardbft.pools.SecondaryPool,
    ]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == benchmark_json()


@pytest.mark.parametrize("name", list(BY_NAME))
def test_traced_run_matches_untraced_and_unwraps(name, tmp_path):
    doc = BY_NAME[name].scenario(505, SCALE)
    cfg, runner = child.prepare(doc)
    plain = child.measure(cfg, runner, tmp_path / "plain")
    before = _bindings()
    with Tracer() as tracer:
        assert _bindings() != before
        cfg, runner = child.prepare(doc)
        traced = child.measure(cfg, runner, tmp_path / "traced", tracer)
    assert _bindings() == before

    assert traced["report_sha256"] == plain["report_sha256"]
    assert traced["ledger_digests"] == plain["ledger_digests"]
    assert traced["virtual"] == plain["virtual"]
    for rep in (plain, traced):
        assert rep["roundtrip_ok"] and rep["recheck_ok"] and rep["quiescent"]
        assert rep["verdicts"]["agreement"] and rep["verdicts"]["no_loss_no_unbounded_dup"]
    layers = traced["layers"]
    assert set(layers) == {n for n, *_ in PER_LAYER} - PARENT_ONLY | {"trace.reconciles"}
    assert layers["trace.reconciles"]
    assert layers["runner.events"] == plain["events"]
    assert layers["router.calls"] > 0 and layers["batcher.calls"] > 0 and layers["core.sha256_calls"] > 0


def test_tracer_restores_bindings_when_the_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("simulated failure")
    assert _bindings() == before


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric(trace):
    result = run.run_workload("steady", seed=7, seconds=0, trace=trace, scale=SCALE)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == {n for n, *_ in wanted}
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_adversarial_shows_the_censorship_defect(tmp_path):
    """At seed 505 the censorship bound fails: the workload must show it."""
    cfg, runner = child.prepare(BY_NAME["adversarial"].scenario(505, 0.6))
    rep = child.measure(cfg, runner, tmp_path)
    assert rep["verdicts"] == {"agreement": True, "no_loss_no_unbounded_dup": True, "censorship_bound": False}
    assert rep["checks_failed"] == 1 and rep["virtual"]["failed_share"] > 0
    assert rep["virtual"]["hard_failed"] == 0


def test_run_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
