"""Run artifacts built once per transaction: the CSV series and the ack bitmask."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shardbft import messages as msg
from shardbft.sim.report import (
    JSON_CHUNK_RECORDS,
    RunReport,
    TxRecord,
    _percentile,
    iter_report_json,
    report_to_json,
    write_csv,
)
from shardbft.sim.runner import _Runner, run_scenario
from shardbft.sim.scenario import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _reference_write_csv(report: RunReport, path) -> None:
    """``write_csv`` as it was before the series was built incrementally:
    it re-sorts every latency seen so far for every row."""
    lat_by_time: list[tuple[int, int]] = []
    for r in report.tx_records:
        if r.first_commit_us is not None:
            lat_by_time.append((r.first_commit_us, r.first_commit_us - r.submit_us))
    lat_by_time.sort()
    pending = report.pending_series
    rows = ["time_s,committed_txs,mean_latency_s,p95_latency_s,pending_size"]
    lat_idx = 0
    seen: list[int] = []
    pend_idx = 0
    last_pending = 0
    for t, committed in report.throughput_series:
        while lat_idx < len(lat_by_time) and lat_by_time[lat_idx][0] <= t:
            seen.append(lat_by_time[lat_idx][1])
            lat_idx += 1
        while pend_idx < len(pending) and pending[pend_idx][0] <= t:
            last_pending = pending[pend_idx][1]
            pend_idx += 1
        ordered = sorted(seen)
        mean = sum(ordered) / len(ordered) / 1e6 if ordered else 0.0
        p95 = _percentile(ordered, 0.95) / 1e6
        rows.append(f"{t / 1e6:.6f},{committed},{mean:.6f},{p95:.6f},{last_pending}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _both_series(report: RunReport, tmp_path) -> tuple[bytes, bytes]:
    write_csv(report, tmp_path / "series.csv")
    _reference_write_csv(report, tmp_path / "reference.csv")
    return (tmp_path / "series.csv").read_bytes(), (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("name", ["baseline", "censorship", "failover"])
def test_series_matches_the_reference_on_shipped_configs(name, tmp_path):
    report = run_scenario(ScenarioConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text())))
    series, reference = _both_series(report, tmp_path)
    assert series == reference
    assert series.count(b"\n") == len(report.throughput_series) + 1 > 1


def test_series_matches_the_reference_with_zero_commits(tmp_path):
    # The run ends 20 ms in, before any batch can be ordered.
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc.update(duration=0.02, drain=0.0)
    report = run_scenario(ScenarioConfig.from_dict(doc))
    assert all(r.first_commit_us is None for r in report.tx_records)
    series, reference = _both_series(report, tmp_path)
    assert series == reference


def _report(records, throughput, pending) -> RunReport:
    return RunReport(
        config={},
        quiescent=True,
        end_time_us=0,
        tx_records=records,
        term_changes=[],
        reproposed_tx_ids=[],
        pending_series=pending,
        throughput_series=throughput,
        ledger_digests={},
        committed_total=0,
        duplicate_commits=0,
        bogus_batch_commits=0,
        per_shard={},
        drops={},
        checks={},
    )


@st.composite
def _reports(draw) -> RunReport:
    # Small ranges: latencies repeat, commits share times, and pending
    # points fall before, between and after the series times.
    records = []
    for i in range(draw(st.integers(0, 30))):
        submit = draw(st.integers(0, 2_000_000))
        latency = draw(st.none() | st.sampled_from([0, 1, 7, 150_000, 150_000, 2_345_678]))
        commit = None if latency is None else submit + latency
        records.append(TxRecord(i, b"", 0, 0, submit, first_commit_us=commit))
    times = sorted(draw(st.lists(st.integers(0, 5_000_000), max_size=12)))
    throughput = [(t, draw(st.integers(0, 500))) for t in times]
    pending_times = sorted(draw(st.lists(st.integers(-1, 6_000_000), max_size=12)))
    pending = [(t, draw(st.integers(0, 40))) for t in pending_times]
    return _report(records, throughput, pending)


def _hand_built_report() -> RunReport:
    # Two commits at t=500 with latency 100, a third latency of 100 at t=900;
    # pending points before the first row, between rows and after the last.
    records = [
        TxRecord(0, b"", 0, 0, 400, first_commit_us=500),
        TxRecord(1, b"", 0, 0, 400, first_commit_us=500),
        TxRecord(2, b"", 0, 0, 800, first_commit_us=900),
        TxRecord(3, b"", 0, 0, 100, first_commit_us=900),
        TxRecord(4, b"", 0, 0, 100),
    ]
    throughput = [(500, 2), (500, 2), (900, 4), (1000, 0)]
    pending = [(0, 3), (600, 2), (900, 1), (2000, 7)]
    return _report(records, throughput, pending)


@settings(max_examples=100)
@given(_reports())
@example(_hand_built_report())
def test_series_matches_the_reference_on_generated_reports(report):
    with tempfile.TemporaryDirectory() as tmp:
        series, reference = _both_series(report, Path(tmp))
    assert series == reference


def _ack_runner() -> _Runner:
    doc = json.loads((CONFIGS / "censorship.json").read_text())
    doc.update(parties=7, faults=2, duration=0.2, tx_rate=50, adversaries=[])
    return _Runner(ScenarioConfig.from_dict(doc))


def test_ack_quorum_counts_distinct_parties():
    runner = _ack_runner()
    d = runner.d
    n, quorum = runner.cfg.n_parties, runner.cfg.n_parties - runner.cfg.f
    assert (n, quorum) == (7, 5)
    runner._schedule_clients()
    record = runner.tx_records[3]

    def reply(t, party, ok=True):
        # From the party's batcher of the tx's shard, landing at the hub at t.
        sender = d.batcher[party][record.shard]
        runner.push(t, sender, d.hub, msg.SubmissionReply(3, party, ok, "" if ok else "full"))
        runner._build_report(False)
        return record.acks, record.ack_quorum_us

    reply(1, 6)
    assert reply(2, 6) == (1 << 6, None)  # a repeated ok reply changes nothing
    assert reply(3, 2, ok=False) == (1 << 6, None)
    for t, party in ((4, 2), (5, 0), (6, 2), (7, 4)):
        reply(t, party)
    # Four distinct parties acked, one of them twice: no quorum yet.
    assert record.acks.bit_count() == 4
    assert record.ack_quorum_us is None
    assert record.rejects == {"full": 1}
    # The fifth distinct party (N - F at N=7) makes the quorum.
    assert reply(20, 5) == ((1 << 0) | (1 << 2) | (1 << 4) | (1 << 5) | (1 << 6), 20)
    mask = record.acks
    assert reply(21, 5) == (mask, 20)
    assert reply(22, 1)[1] == 20
    assert record.acks.bit_count() == 6
    # A reply that lands after duration + drain is never delivered.
    assert reply(runner.limit_us + 1, 3) == (mask | 1 << 1, 20)
    # The quorum is the fifth-earliest landing, whatever order the replies
    # were sent in.
    assert reply(10, 3)[1] == 10
    # Replies for one submission never touch another's record.
    assert all(r.acks == 0 and r.ack_quorum_us is None for r in runner.tx_records if r is not record)


def _observe_hub_replies(runner) -> list[tuple[int, msg.SubmissionReply]]:
    """(landing time, reply) of every message sent to the hub by another
    node, filled in as the run pushes them."""
    replies = []
    push, hub = runner.push, runner.d.hub

    def observed(t, sender, dest, message):
        if dest == hub and sender != hub:  # not one of the hub's own SubmitTx timers
            replies.append((t, message))
        push(t, sender, dest, message)

    runner.push = observed
    return replies


def test_report_acks_equal_the_distinct_parties_that_acked():
    runner = _ack_runner()
    quorum = runner.cfg.n_parties - runner.cfg.f
    replies = _observe_hub_replies(runner)
    report = runner.run()
    acked: dict[int, set] = {}
    quorum_at: dict[int, int] = {}
    for t, message in sorted(replies, key=lambda entry: entry[0]):
        assert t <= report.end_time_us  # a quiescent run ends with none in flight
        if message.ok:
            parties = acked.setdefault(message.submission_id, set())
            parties.add(message.party)
            if len(parties) == quorum:
                quorum_at.setdefault(message.submission_id, t)
    assert report.quiescent and quorum_at
    for record in report.tx_records:
        assert record.acks.bit_count() == len(acked.get(record.index, ()))
        assert record.ack_quorum_us == quorum_at.get(record.index)


@pytest.mark.parametrize(
    "edit",
    [
        {"drain": 0},
        {"gst": 0.4, "drain": 0.01},
        {"protocol": {"pool_capacity": 3}},
    ],
    ids=["no_drain", "late_gst_short_drain", "small_pools"],
)
def test_report_counts_exactly_the_replies_that_land_by_the_end(edit):
    # Replies still in flight when a run is cut at duration + drain never
    # reach the hub; every one that lands by then counts, ok or not.
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc = {**doc, **edit, "protocol": {**doc["protocol"], **edit.get("protocol", {})}}
    runner = _Runner(ScenarioConfig.from_dict(doc))
    quorum = runner.cfg.n_parties - runner.cfg.f
    replies = _observe_hub_replies(runner)
    report = runner.run()
    end = report.end_time_us
    landed = [(t, m) for t, m in replies if t <= end]
    acked: dict[int, dict[int, int]] = {}  # submission -> party -> earliest ok landing
    rejects: dict[int, dict[str, int]] = {}
    for t, message in landed:
        if message.ok:
            earliest = acked.setdefault(message.submission_id, {})
            earliest[message.party] = min(t, earliest.get(message.party, t))
        else:
            counts = rejects.setdefault(message.submission_id, {})
            counts[message.reason] = counts.get(message.reason, 0) + 1
    for record in report.tx_records:
        times = sorted(acked.get(record.index, {}).values())
        assert record.acks == sum(1 << party for party in acked.get(record.index, {}))
        assert record.ack_quorum_us == (times[quorum - 1] if len(times) >= quorum else None)
        assert record.rejects == rejects.get(record.index, {})
    if "pool_capacity" in doc["protocol"]:
        assert any(rejects.values())
    else:  # the run was cut with replies in flight
        assert not report.quiescent and len(landed) < len(replies)


def _record(i: int) -> TxRecord:
    # Every third tx is censored and never commits; every fifth has rejects.
    # Of every seven, the second has a reject reason that needs escaping,
    # the third a non-ASCII one, and the fourth acks 0 and every optional
    # field None.
    committed = i % 3 != 0
    rejects = {"stale": 2, "backpressure": 1} if i % 5 == 0 else {}
    if i % 7 == 1:
        rejects = {'q"uote': 1, "stale": 1}
    elif i % 7 == 2:
        rejects = {"caf\u00e9": 3}
    record = TxRecord(
        index=i,
        tx_id=i.to_bytes(32, "big"),
        client=i % 4,
        shard=i % 2,
        submit_us=1_000 * i,
        censored=not committed,
        acks=0b1011 if i % 2 else 0,
        ack_quorum_us=1_000 * i + 300 if i % 2 else None,
        rejects=rejects,
        first_commit_us=1_000 * i + 900 if committed else None,
        last_commit_us=1_000 * i + 1_200 if committed else None,
        commit_count=4 if committed else 0,
    )
    if i % 7 == 3:
        record.acks = 0
        record.ack_quorum_us = record.first_commit_us = record.last_commit_us = None
    return record


def _record_dict(r: TxRecord) -> dict:
    """A tx record as ``report.json`` holds it."""
    return {
        "index": r.index,
        "tx_id": r.tx_id.hex(),
        "client": r.client,
        "shard": r.shard,
        "submit_us": r.submit_us,
        "censored": r.censored,
        "acks": r.acks.bit_count(),
        "ack_quorum_us": r.ack_quorum_us,
        "rejects": r.rejects,
        "first_commit_us": r.first_commit_us,
        "last_commit_us": r.last_commit_us,
        "commit_count": r.commit_count,
    }


def _synthetic_report(records: list[TxRecord]) -> RunReport:
    return RunReport(
        config={"seed": 3, "protocol": {"alpha": 0.25}, "name": "caf\u00e9"},
        quiescent=False,
        end_time_us=9_000_000,
        tx_records=records,
        term_changes=[(860_000, 1, 1)],
        reproposed_tx_ids=["ab" * 32],
        pending_series=[(0, 0), (20_000, 7)],
        throughput_series=[(100_000, 3)],
        ledger_digests={0: "00" * 32, 2: "ff" * 32},
        committed_total=len(records),
        duplicate_commits=1,
        bogus_batch_commits=0,
        per_shard={0: {"batches": 2, "txs": 5}},
        drops={"stale_epoch": 3, "bad_signature": 1},
        checks={"agreement": {"pass": True}, "no_loss_no_unbounded_dup": {"pass": False, "lost": 2}},
    )


@pytest.mark.parametrize("count", [0, 1, JSON_CHUNK_RECORDS, JSON_CHUNK_RECORDS + 1])
def test_chunked_encoding_equals_one_shot_dumps(count):
    report = _synthetic_report([_record(i) for i in range(count)])
    whole = {**report.head_dict(), "txs": [_record_dict(r) for r in report.tx_records]}
    expected = json.dumps(whole, sort_keys=True, separators=(",", ":")) + "\n"
    assert report_to_json(report) == expected
    pieces = list(iter_report_json(report))
    assert "".join(pieces) == expected
    # The head, one piece per started chunk, and the closing.
    assert len(pieces) == 2 + -(-count // JSON_CHUNK_RECORDS)
    assert json.loads(expected)["txs"][-1:] == [_record_dict(r) for r in report.tx_records[-1:]]
