"""Benchmark entry point: host speed and virtual-time protocol numbers per workload.

    python3 perfbench/run.py --workload steady --seed 505 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 505                 # every workload, with a table
    python3 perfbench/run.py --write-spec               # regenerate BENCHMARK.json

Each repetition runs in a fresh child process (``perfbench/child.py``), so
set-up time and peak RSS belong to that repetition alone; repetitions run
one at a time. A run cycles through the workload's scenario seeds until
``--seconds`` have passed and every seed has run once. With ``--trace 1``
each seed runs twice, untraced then traced, and the run reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts transactions
that never reach the N-F ack quorum or are not committed at every correct
party, plus every transaction of a repetition that raised. Commits later
than the censorship bound are counted in ``failed_share``, not here. The
full record of a run (environment, verdicts, fingerprints, every
repetition) goes to ``.bench_build/perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.child import CALIBRATION_REF_S  # noqa: E402
from perfbench.workloads import BY_NAME, END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, benchmark_json  # noqa: E402

OUT = ROOT / ".bench_build" / "perfbench"
CHILD = ROOT / "perfbench" / "child.py"
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_TRACE_PAIRS = 2
HARD_PROPERTIES = ("agreement", "no_loss_no_unbounded_dup")


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target is not None and target.is_file() else ref
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    try:
        crypto_version = importlib.metadata.version("cryptography")
    except importlib.metadata.PackageNotFoundError:
        crypto_version = "missing"
    return {
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def spawn(scenario: dict, trace: int, out_dir: Path, deadline: float) -> dict:
    """One repetition in a fresh process; errors come back as ``{"error": ...}``."""
    cmd = [sys.executable, str(CHILD), "--scenario", json.dumps(scenario), "--out", str(out_dir),
           "--trace", str(trace)]
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s", "scenario_seed": scenario["seed"]}
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rep["scenario_seed"] = scenario["seed"]
    rep["trace"] = trace
    if "error" not in rep:
        rep["setup_s"] = rep.pop("ready_at") - spawned_at
    return rep


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """Every repetition of one benchmark run, and its verdicts and metrics."""
    workload = BY_NAME[name]
    seeds = workload.scenario_seeds(seed)
    out_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []
    i = 0
    while time.monotonic() < deadline:
        scenario = workload.scenario(seeds[i % len(seeds)], scale)
        modes = (0, 1) if trace else (0,)
        reps.extend(spawn(scenario, mode, out_dir, deadline) for mode in modes)
        i += 1
        enough = i >= (MIN_TRACE_PAIRS if trace else len(seeds))
        if enough and time.monotonic() - start >= seconds:
            break
    complete = i >= (MIN_TRACE_PAIRS if trace else len(seeds))
    expected_txs = {s: _tx_count(workload.scenario(s, scale)) for s in seeds}
    return summarize(name, seed, trace, reps, complete, expected_txs, time.monotonic() - start)


def _tx_count(scenario: dict) -> int:
    return max(1, int(round(scenario["tx_rate"] * scenario["duration"])))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(name, seed, trace, reps, complete, expected_txs, elapsed) -> dict:
    good = [r for r in reps if "error" not in r]
    problems: list[str] = [f"seed {r['scenario_seed']}: {r['error']}" for r in reps if "error" in r]
    if not complete:
        problems.append("time ran out before every scenario seed ran")
    for r in good:
        where = f"seed {r['scenario_seed']} trace {r['trace']}"
        for prop in HARD_PROPERTIES:
            if not r["verdicts"].get(prop, False):
                problems.append(f"{where}: {prop} FAIL")
        if not r["quiescent"]:
            problems.append(f"{where}: not quiescent")
        if not r["roundtrip_ok"]:
            problems.append(f"{where}: ledger round trip failed ({r['roundtrip_reason']})")
        if not r["recheck_ok"]:
            problems.append(f"{where}: offline re-check disagrees with the in-run verdicts")
        if r.get("layers") is not None and not r["layers"].pop("trace.reconciles"):
            problems.append(f"{where}: layer times exceed the simulate loop")
    # Determinism: every execution of one (config, seed), traced or not,
    # must produce the same report bytes and ledgers.
    first: dict[int, dict] = {}
    for r in good:
        ref = first.setdefault(r["scenario_seed"], r)
        if (r["report_sha256"], r["ledger_digests"]) != (ref["report_sha256"], ref["ledger_digests"]):
            problems.append(f"seed {r['scenario_seed']}: report differs between executions")

    attempted = sum(r["virtual"]["txs"] for r in good)
    failed = sum(r["virtual"]["hard_failed"] for r in good)
    for r in reps:
        if "error" in r:
            attempted += expected_txs[r["scenario_seed"]]
            failed += expected_txs[r["scenario_seed"]]
    untraced = [r for r in good if r["trace"] == 0]
    virt = [r["virtual"] for r in first.values()]
    # Host seconds are rescaled to the reference machine, one repetition at
    # a time, by the calibration loop timed in the same process.
    table = {
        "wall_s": _median(r["wall_s"] * r["ref_scale"] for r in untraced),
        "host_tx_per_s": _median(r["host_tx_per_s"] / r["ref_scale"] for r in untraced),
        "host_events_per_s": _median(r["host_events_per_s"] / r["ref_scale"] for r in untraced),
        "setup_s": _median(r["setup_s"] * r["ref_scale"] for r in untraced),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced),
        "raw_wall_s": _median(r["wall_s"] for r in untraced),
        "raw_setup_s": _median(r["setup_s"] for r in untraced),
        "calibration_s": _median(CALIBRATION_REF_S / r["ref_scale"] for r in untraced),
    }
    for key in ("virt_commit_p50_ms", "virt_commit_p99_ms", "virt_ack_p99_ms", "virt_tps"):
        table[key] = _median(v.get(key) for v in virt)
    # A seed whose repetition raised counts every one of its txs as failed.
    raised = {r["scenario_seed"] for r in reps if "error" in r}
    table["failed_share"] = _median(
        [1.0 for _ in raised] + [v["failed_share"] for s, v in zip(first, virt) if s not in raised]
    )
    table["checks_failed"] = _median(r["checks_failed"] for r in first.values())
    table["committed_txs"] = sum(v["committed"] for v in virt)

    if trace:
        traced = [r for r in good if r["trace"] == 1]
        layers = {key: _median(r["layers"].get(key) for r in traced) for key, *_ in PER_LAYER}
        pairs = [(u, t) for u, t in zip(reps[0::2], reps[1::2]) if "error" not in u and "error" not in t]
        layers["trace.overhead_s"] = _median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        for key in ("failed_share", "checks_failed", "committed_txs"):
            layers[key] = table[key]
        metrics = layers
    else:
        metrics = {key: table[key] for key, *_ in END_TO_END}
    missing = sorted(k for k, v in metrics.items() if v is None)
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "elapsed_s": elapsed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "missing": missing,
        "table": table,
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "scenario_seeds": list(first),
        "fingerprints": {
            str(s): {"report_sha256": r["report_sha256"], "ledger_digests": r["ledger_digests"],
                     "events": r["events"], "verdicts": r["verdicts"]}
            for s, r in first.items()
        },
        "reps": reps,
    }


TABLE_ORDER = ("wall_s", "host_tx_per_s", "host_events_per_s", "setup_s", "peak_rss_mb",
               "virt_commit_p50_ms", "virt_commit_p99_ms", "virt_ack_p99_ms", "virt_tps",
               "failed_share", "checks_failed", "raw_wall_s", "raw_setup_s", "calibration_s")
TABLE_UNITS = dict(UNITS, raw_wall_s="s", raw_setup_s="s", calibration_s="s")


def print_table(result: dict) -> None:
    table = result["table"]
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{'correct' if result['correct'] else 'NOT CORRECT'}, {len(result['reps'])} repetitions "
          f"in {result['elapsed_s']:.1f} s, {result['attempted']} txs attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for key in TABLE_ORDER:
        value = table.get(key)
        text = "n/a" if value is None else f"{value:.6g}"
        note = f"  (n={table['committed_txs']} committed txs)" if key.startswith("virt_commit") else ""
        print(f"   {key:<22}{text:>14} {TABLE_UNITS[key]}{note}")
    for seed, fp in result["fingerprints"].items():
        verdicts = " ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in sorted(fp["verdicts"].items()))
        print(f"   seed {seed}: report {fp['report_sha256'][:16]} events {fp['events']} {verdicts}")
    if result["trace"]:
        for key, unit, _better in PER_LAYER:
            value = result["metrics"].get(key)
            print(f"   {key:<32}{'n/a' if value is None else f'{value:.6g}':>14} {unit}")


def contract_line(result: dict) -> str:
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shardbft benchmark")
    parser.add_argument("--workload", choices=[*BY_NAME, "all"], default="all")
    parser.add_argument("--seed", type=int, default=505)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (ROOT / "src" / "shardbft" / "sim" / "runner.py").is_file():
        print("perfbench: the simulator sources (src/shardbft) are missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(BY_NAME) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace)
        result["environment"] = env
        OUT.mkdir(parents=True, exist_ok=True)
        record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
        print_table(result)
        results.append(result)
    print(contract_line(results[0]) if len(results) == 1 else json.dumps(
        {r["workload"]: json.loads(contract_line(r)) for r in results}))
    # A run that measured every metric exits 0; `correct` carries the verdict.
    return 0 if all(not r["missing"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
