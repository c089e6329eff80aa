"""One benchmark repetition in a fresh process.

    python3 perfbench/child.py --scenario '<scenario json>' --out DIR --trace 0|1

Imports the simulator from ``src/``, parses the scenario, builds the
``_Runner`` (everything up to here is set-up), then simulates and writes
``report.json``, ``series.csv`` and one ledger per correct party into DIR
(that is ``wall_s``). Outside the timed region it reads one ledger back and
verifies it offline, re-derives every property check from the artifacts,
and prints one JSON line with the repetition's host, virtual and (traced)
per-layer numbers. ``ready_at`` is ``time.monotonic()`` at the constructed
runner, so the parent can compute set-up time from its own spawn time.
``ref_scale`` rescales this process's host seconds to the reference
machine (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NODE_LAYERS = ("router", "batcher", "consensus", "assembler")
CALIBRATION_ITERATIONS = 80_000
CALIBRATION_REF_S = 0.2  # calibrate() takes exactly this long on the reference machine


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    The loop mixes what the simulator spends its time on: small sha256
    hashes, heap pushes and pops of tuples, and dict stores. The host's
    speed drifts by tens of percent over minutes; timing the loop right
    before and after a repetition tracks that drift, which the raw medians
    of a 30-s run cannot average out.
    """
    t0 = perf_counter()
    heap: list = []
    seen: dict = {}
    data = bytes(64)
    for i in range(CALIBRATION_ITERATIONS):
        digest = hashlib.sha256(data + i.to_bytes(8, "big")).digest()
        heapq.heappush(heap, (i * 7919 % 10007, i, digest))
        seen[digest[:8]] = i
        if len(heap) > 1000:
            heapq.heappop(heap)
    return perf_counter() - t0


def percentile(sorted_values: list[int], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def prepare(doc: dict):
    """Config parse and runner construction: the end of set-up."""
    from shardbft.sim.runner import _Runner
    from shardbft.sim.scenario import ScenarioConfig

    cfg = ScenarioConfig.from_dict(doc)
    return cfg, _Runner(cfg)


def _timed(fn, sink: dict, key: str):
    def wrapper(*args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            sink[key] = sink.get(key, 0.0) + perf_counter() - t0

    return wrapper


def virtual_metrics(report, bound_us: int) -> dict:
    """Virtual-time outcome of one run, from its per-transaction records."""
    records = report.tx_records
    commit = sorted(r.last_commit_us - r.submit_us for r in records if r.last_commit_us is not None)
    ack = sorted(r.ack_quorum_us - r.submit_us for r in records if r.ack_quorum_us is not None)
    hard = sum(1 for r in records if r.ack_quorum_us is None or r.last_commit_us is None)
    late = sum(
        1
        for r in records
        if r.ack_quorum_us is not None
        and r.last_commit_us is not None
        and r.last_commit_us - r.submit_us > bound_us
    )
    out = {"txs": len(records), "committed": len(commit), "hard_failed": hard, "late": late}
    out["failed_share"] = (hard + late) / len(records)
    if commit:
        out["virt_commit_p50_ms"] = percentile(commit, 0.50) / 1e3
        out["virt_commit_p99_ms"] = percentile(commit, 0.99) / 1e3
        span_us = max(r.last_commit_us for r in records if r.last_commit_us is not None) - min(
            r.submit_us for r in records
        )
        out["virt_tps"] = len(commit) / (span_us / 1e6)
    if ack:
        out["virt_ack_p99_ms"] = percentile(ack, 0.99) / 1e3
    return out


def measure(cfg, runner, out_dir: Path, tracer=None) -> dict:
    """Simulate, write artifacts, then check them; returns the rep's numbers."""
    from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
    from shardbft.core import header_digest, sha256
    from shardbft.sim import checks
    from shardbft.sim.report import report_to_json, write_csv

    phase: dict[str, float] = {}
    if tracer is not None:
        tracer.attach(runner)
    else:
        runner._schedule_clients = _timed(runner._schedule_clients, phase, "client_gen")
        runner._build_report = _timed(runner._build_report, phase, "build")
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = perf_counter()
    report = runner.run()
    t_run = perf_counter()
    text = report_to_json(report)
    (out_dir / "report.json").write_text(text, encoding="utf-8")
    t_csv = perf_counter()
    write_csv(report, out_dir / "series.csv")
    t_ledger = perf_counter()
    for party, blocks in sorted(report.ledgers.items()):
        write_ledger(out_dir / f"ledger_party{party}.bin", blocks)
    t_end = perf_counter()

    if tracer is not None:
        phase["client_gen"] = tracer.busy["runner.client_gen"]
        phase["build"] = tracer.busy["report.build"]
        loop_spans = (*NODE_LAYERS, "runner.sequencer", "runner.hub", "runner.goal_check")
        loop_busy = {k: tracer.busy[k] for k in loop_spans}
        verify_header_in_run = tracer.busy["assembler.verify_header"]
    loop_s = (t_run - t0) - phase["client_gen"] - phase["build"]

    # Offline round trip of one correct party's ledger.
    ref = cfg.correct_parties()[0]
    t_read = perf_counter()
    blocks = read_ledger(out_dir / f"ledger_party{ref}.bin", cfg.scheme)
    t_verify = perf_counter()
    ok, _seq, reason = verify_ledger_blocks(blocks, runner.party_pubs, cfg.n_parties, cfg.f)
    t_checked = perf_counter()
    chain = sha256(b"".join(header_digest(b.header) for b in blocks)).hex()
    roundtrip_ok = ok and chain == report.ledger_digests[ref] and len(blocks) == len(report.ledgers[ref])

    # Every verdict re-derived from the artifacts must match the in-run one.
    bound_us = cfg.censorship_bound_us()
    offline = {
        "agreement": checks.check_agreement(report.ledgers),
        "no_loss_no_unbounded_dup": checks.check_no_loss_no_unbounded_dup(report),
        "censorship_bound": checks.check_censorship_bound(report, bound_us),
    }
    recheck_ok = all(offline[name] == verdict for name, verdict in report.checks.items())

    virt = virtual_metrics(report, bound_us)
    events = sum(runner.send_seq.values())
    verdicts = {name: verdict["pass"] for name, verdict in report.checks.items()}
    checks_failed = sum(1 for v in verdicts.values() if not v)
    checks_failed += (not report.quiescent) + (not roundtrip_ok)
    result = {
        "scenario_seed": cfg.seed,
        "wall_s": t_end - t0,
        "loop_s": loop_s,
        "events": events,
        "host_tx_per_s": virt["committed"] / (t_end - t0),
        "host_events_per_s": events / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "virtual": virt,
        "verdicts": verdicts,
        "checks_failed": checks_failed,
        "quiescent": report.quiescent,
        "roundtrip_ok": roundtrip_ok,
        "roundtrip_reason": reason,
        "recheck_ok": recheck_ok,
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "ledger_digests": {str(p): d for p, d in sorted(report.ledger_digests.items())},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, runner, report,
            loop_s=loop_s,
            loop_busy=loop_busy,
            verify_header_s=verify_header_in_run,
            phases={
                "report.to_json_s": t_csv - t_run,
                "report.csv_s": t_ledger - t_csv,
                "report.ledger_write_s": t_end - t_ledger,
                "assembler.read_ledger_s": t_verify - t_read,
                "assembler.verify_ledger_s": t_checked - t_verify,
            },
        )
    return result


def layer_metrics(tracer, runner, report, loop_s, loop_busy, verify_header_s, phases) -> dict:
    """Per-layer numbers of one traced repetition (names as in BENCHMARK.json)."""
    t = tracer
    m: dict[str, float] = {}
    for layer in NODE_LAYERS:
        m[f"{layer}.calls"] = t.calls[layer]
        m[f"{layer}.busy_s"] = t.busy[layer]
        m[f"{layer}.self_s"] = t.self_s(layer)
    m["router.verify_calls"] = t.layer_count("router", "verify")
    m["router.sha256_calls"] = t.layer_count("router", "sha256")
    m["router.rejects"] = sum(sum(r.rejects.values()) for r in report.tx_records)
    m["pools.calls"] = t.calls["pools"]
    m["pools.busy_s"] = t.busy["pools"]
    batches = sum(s["batches"] for s in report.per_shard.values())
    m["batcher.batches"] = batches
    m["batcher.txs_per_batch"] = sum(s["txs"] for s in report.per_shard.values()) / max(batches, 1)
    m["batcher.sample_verify_s"] = t.busy["batcher.sample_verify"]
    for kind in ("verify", "sha256", "sign"):
        m[f"batcher.{kind}_calls"] = t.layer_count("batcher", kind)
    m["batcher.pull_requests"] = t.handled("batcher", "PullRequest")
    m["batcher.term_changes"] = len(report.term_changes)
    # Right-censored: a run without a term change reports its last commit.
    last_commit_us = max((r.last_commit_us for r in report.tx_records if r.last_commit_us is not None), default=0)
    first_change_us = report.term_changes[0][0] if report.term_changes else last_commit_us
    m["batcher.first_term_change_ms"] = first_change_us / 1e3
    rounds_handled = t.handled("consensus", "RoundDelivery")
    m["consensus.rounds"] = runner.round_no
    m["consensus.events_per_round"] = t.round_events / max(rounds_handled, 1)
    m["consensus.process_round_s"] = t.busy["consensus.process_round"]
    m["consensus.verify_calls"] = t.layer_count("consensus", "verify")
    m["consensus.headers"] = sum(len(c.headers) for c in runner.consensus.values())
    m["consensus.pending_max"] = max(
        (n for c in runner.consensus.values() for _t, n in c.pending_series), default=0
    )
    m["consensus.drops"] = sum(report.drops.values())
    ref = min(report.ledgers)
    fetches = t.handled("batcher", "AssemblerPull")
    m["assembler.blocks"] = len(report.ledgers[ref])
    m["assembler.fetches"] = fetches
    m["assembler.fetch_useful_ratio"] = t.fetch_useful / fetches if fetches else 1.0
    m["assembler.verify_header_s"] = verify_header_s
    m["crypto.sign_calls"] = t.calls["sign"]
    m["crypto.sign_s"] = t.busy["sign"]
    m["crypto.verify_calls"] = t.calls["verify"]
    m["crypto.verify_s"] = t.busy["verify"]
    m["crypto.verify_unique_ratio"] = len(t.verify_seen) / t.calls["verify"] if t.calls["verify"] else 1.0
    m["core.sha256_calls"] = t.calls["sha256"]
    m["core.sha256_s"] = t.busy["sha256"]
    m["runner.events"] = sum(runner.send_seq.values())
    m["runner.messages"] = t.messages
    m["runner.heap_peak"] = t.heap_peak
    m["runner.client_gen_s"] = t.busy["runner.client_gen"]
    m["runner.sequencer_s"] = t.busy["runner.sequencer"]
    m["runner.hub_s"] = t.busy["runner.hub"]
    m["runner.goal_check_s"] = t.busy["runner.goal_check"]
    m["runner.plumbing_self_s"] = loop_s - sum(loop_busy.values())
    m["runner.simulate_s"] = loop_s
    m["report.build_s"] = t.busy["report.build"]
    m["checks.agreement_s"] = t.busy["checks.agreement"]
    m["checks.no_loss_s"] = t.busy["checks.no_loss"]
    m["checks.censorship_s"] = t.busy["checks.censorship"]
    m.update(phases)
    m["trace.reconciles"] = m["runner.plumbing_self_s"] >= 0 and all(
        m[f"{layer}.self_s"] >= 0 for layer in NODE_LAYERS
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, help="scenario JSON, as in configs/")
    parser.add_argument("--out", required=True, help="directory for the run's artifacts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        cfg, runner = prepare(json.loads(args.scenario))
        ready_at = time.monotonic()
        before = calibrate()
        if args.trace:
            sys.path.insert(0, str(ROOT))
            from perfbench.tracing import Tracer

            with Tracer() as tracer:
                result = measure(cfg, runner, Path(args.out), tracer)
        else:
            result = measure(cfg, runner, Path(args.out))
        after = calibrate()
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    result["ready_at"] = ready_at
    result["ref_scale"] = CALIBRATION_REF_S / ((before + after) / 2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
