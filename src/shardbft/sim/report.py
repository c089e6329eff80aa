"""Run artifacts: per-transaction records, series, canonical JSON, CSV.

Reports are deterministic byte-for-byte for a given (config, seed): all
times are integer microseconds, all collections are built in event order,
and JSON is emitted with sorted keys.
"""

from __future__ import annotations

import json
from bisect import insort
from collections.abc import Iterator

from ..record import Record

# Transaction records encoded per piece of ``report.json``: only one chunk's
# values are alive at a time, so the encoder's transient memory stays flat as
# runs grow.
JSON_CHUNK_RECORDS = 256

# One tx record of ``report.json``, keys sorted and compact, as ``json.dumps`` writes it.
_TX_TEMPLATE = (
    '{"ack_quorum_us":%s,"acks":%d,"censored":%s,"client":%d,"commit_count":%d,"first_commit_us":%s,'
    '"index":%d,"last_commit_us":%s,"rejects":%s,"shard":%d,"submit_us":%d,"tx_id":"%s"}'
)


class TxRecord(Record):
    __slots__ = _fields = (
        "index", "tx_id", "client", "shard", "submit_us", "censored", "acks", "ack_quorum_us", "rejects",
        "first_commit_us", "last_commit_us", "commit_count", "holders",
    )

    def __init__(
        self,
        index: int,
        tx_id: bytes,
        client: int,
        shard: int,
        submit_us: int,
        censored: bool = False,
        acks: int = 0,
        ack_quorum_us: int | None = None,
        rejects: dict | None = None,
        first_commit_us: int | None = None,
        last_commit_us: int | None = None,
        commit_count: int = 0,
        holders: int = 0,
    ):
        self.index = index
        self.tx_id = tx_id
        self.client = client
        self.shard = shard
        self.submit_us = submit_us
        self.censored = censored
        self.acks = acks  # bitmask of the parties that acked
        self.ack_quorum_us = ack_quorum_us
        self.rejects = {} if rejects is None else rejects
        self.first_commit_us = first_commit_us
        self.last_commit_us = last_commit_us
        self.commit_count = commit_count
        # Bitmask of the correct parties whose ledgers hold the tx; not in report.json.
        self.holders = holders


class RunReport(Record):
    # The in-memory artifacts ``ledgers`` and ``party_keys`` (party -> public
    # key) are written separately, as ledger files, and stay outside == and
    # repr: ``ledger_digests`` stands for the ledgers, ``config`` for the keys.
    _fields = (
        "config", "quiescent", "end_time_us", "tx_records", "term_changes", "reproposed_tx_ids", "pending_series",
        "throughput_series", "ledger_digests", "committed_total", "duplicate_commits", "bogus_batch_commits",
        "per_shard", "drops", "checks",
    )
    __slots__ = (*_fields, "ledgers", "party_keys")

    def __init__(
        self,
        config: dict,
        quiescent: bool,
        end_time_us: int,
        tx_records: list[TxRecord],
        term_changes: list[tuple[int, int, int]],  # (time_us, shard, new_term)
        reproposed_tx_ids: list[str],
        pending_series: list[tuple[int, int]],
        throughput_series: list[tuple[int, int]],
        ledger_digests: dict[int, str],
        committed_total: int,
        duplicate_commits: int,
        bogus_batch_commits: int,
        per_shard: dict[int, dict],
        drops: dict[str, int],
        checks: dict[str, dict],
        ledgers: dict | None = None,
        party_keys: dict | None = None,
    ):
        self.config = config
        self.quiescent = quiescent
        self.end_time_us = end_time_us
        self.tx_records = tx_records
        self.term_changes = term_changes
        self.reproposed_tx_ids = reproposed_tx_ids
        self.pending_series = pending_series
        self.throughput_series = throughput_series
        self.ledger_digests = ledger_digests
        self.committed_total = committed_total
        self.duplicate_commits = duplicate_commits
        self.bogus_batch_commits = bogus_batch_commits
        self.per_shard = per_shard
        self.drops = drops
        self.checks = checks
        self.ledgers = {} if ledgers is None else ledgers
        self.party_keys = {} if party_keys is None else party_keys

    def all_checks_pass(self) -> bool:
        return all(entry["pass"] for entry in self.checks.values())

    def head_dict(self) -> dict:
        """Every top-level ``report.json`` field except ``txs``, which
        ``iter_report_json`` encodes from ``tx_records`` a chunk at a time."""
        return {
            "config": self.config,
            "quiescent": self.quiescent,
            "end_time_us": self.end_time_us,
            "term_changes": [
                {"time_us": t, "shard": s, "new_term": n} for t, s, n in self.term_changes
            ],
            "reproposed_tx_ids": self.reproposed_tx_ids,
            "pending_series": [[t, n] for t, n in self.pending_series],
            "throughput_series": [[t, n] for t, n in self.throughput_series],
            "ledger_digests": {str(p): d for p, d in self.ledger_digests.items()},
            "committed_total": self.committed_total,
            "duplicate_commits": self.duplicate_commits,
            "bogus_batch_commits": self.bogus_batch_commits,
            "per_shard": {str(s): v for s, v in self.per_shard.items()},
            "drops": dict(sorted(self.drops.items())),
            "checks": self.checks,
        }


def iter_report_json(report: RunReport) -> Iterator[str]:
    """Yield ``report.json`` in pieces: the head, then the ``txs`` array a
    chunk of ``JSON_CHUNK_RECORDS`` records at a time, then the closing.

    The pieces join to exactly the one-shot ``json.dumps`` of the whole
    document with sorted keys and compact separators: ``txs`` sorts after
    every other top-level key, so it is the last member of the object, and
    each chunk is the inside of that array's encoding for its records,
    written by ``_TX_TEMPLATE`` (the encoder runs only on a non-empty ``rejects``).
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    head = report.head_dict()
    assert max(head) < "txs", "the txs array must be the last member of report.json"
    yield encode(head)[:-1] + ',"txs":['
    records = report.tx_records
    for start in range(0, len(records), JSON_CHUNK_RECORDS):
        chunk = records[start : start + JSON_CHUNK_RECORDS]
        # One format per chunk: a string per record raised perfbench's censor peak RSS 0.65 MB.
        values = tuple(
            value
            for r in chunk
            for value in (
                "null" if r.ack_quorum_us is None else r.ack_quorum_us, r.acks.bit_count(),
                "true" if r.censored else "false", r.client, r.commit_count,
                "null" if r.first_commit_us is None else r.first_commit_us, r.index,
                "null" if r.last_commit_us is None else r.last_commit_us,
                encode(r.rejects) if r.rejects else "{}", r.shard, r.submit_us, r.tx_id.hex(),
            )
        )
        yield ("," if start else "") + ",".join([_TX_TEMPLATE] * len(chunk)) % values
    yield "]}\n"


def report_to_json(report: RunReport) -> str:
    return "".join(iter_report_json(report))


def _percentile(sorted_values: list[int], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def write_csv(report: RunReport, path) -> None:
    """Time series: committed txs, latency stats, pending share count."""
    lat_by_time: list[tuple[int, int]] = []
    for r in report.tx_records:
        if r.first_commit_us is not None:
            lat_by_time.append((r.first_commit_us, r.first_commit_us - r.submit_us))
    lat_by_time.sort()
    pending = report.pending_series
    rows = ["time_s,committed_txs,mean_latency_s,p95_latency_s,pending_size"]
    lat_idx = 0
    # The latencies committed so far, kept sorted, and their exact sum.
    ordered: list[int] = []
    total = 0
    pend_idx = 0
    last_pending = 0
    for t, committed in report.throughput_series:
        while lat_idx < len(lat_by_time) and lat_by_time[lat_idx][0] <= t:
            latency = lat_by_time[lat_idx][1]
            insort(ordered, latency)
            total += latency
            lat_idx += 1
        while pend_idx < len(pending) and pending[pend_idx][0] <= t:
            last_pending = pending[pend_idx][1]
            pend_idx += 1
        mean = total / len(ordered) / 1e6 if ordered else 0.0
        p95 = _percentile(ordered, 0.95) / 1e6
        rows.append(f"{t / 1e6:.6f},{committed},{mean:.6f},{p95:.6f},{last_pending}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def summarize(report_dict: dict) -> str:
    """Human-readable stats table for a report, recounted from its records."""
    txs = report_dict["txs"]
    committed = [t for t in txs if t["first_commit_us"] is not None]
    latencies = sorted(t["first_commit_us"] - t["submit_us"] for t in committed)
    mean = sum(latencies) / len(latencies) / 1e6 if latencies else 0.0
    p95 = _percentile(latencies, 0.95) / 1e6
    end_s = report_dict["end_time_us"] / 1e6
    lines = []
    lines.append(f"{'metric':<28}{'value':>14}")
    lines.append("-" * 42)
    lines.append(f"{'txs submitted':<28}{len(txs):>14}")
    lines.append(f"{'txs committed':<28}{len(committed):>14}")
    lines.append(f"{'commits (incl. dups)':<28}{report_dict['committed_total']:>14}")
    lines.append(f"{'duplicate commits':<28}{report_dict['duplicate_commits']:>14}")
    lines.append(f"{'term changes':<28}{len(report_dict['term_changes']):>14}")
    lines.append(f"{'run time (s)':<28}{end_s:>14.3f}")
    tput = report_dict["committed_total"] / end_s if end_s > 0 else 0.0
    lines.append(f"{'throughput (tx/s)':<28}{tput:>14.1f}")
    lines.append(f"{'mean latency (s)':<28}{mean:>14.4f}")
    lines.append(f"{'p95 latency (s)':<28}{p95:>14.4f}")
    lines.append("")
    lines.append(f"{'shard':<8}{'batches':>10}{'txs':>10}")
    lines.append("-" * 28)
    for shard, stats in sorted(report_dict["per_shard"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"{shard:<8}{stats['batches']:>10}{stats['txs']:>10}")
    lines.append("")
    lines.append(f"{'check':<28}{'verdict':>10}")
    lines.append("-" * 38)
    for name, entry in sorted(report_dict["checks"].items()):
        lines.append(f"{name:<28}{'PASS' if entry['pass'] else 'FAIL':>10}")
    return "\n".join(lines)
