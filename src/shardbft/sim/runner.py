"""Seeded discrete-event simulation of a full deployment.

One virtual clock (integer microseconds), one event heap. Events are
ordered by (time, sender id, per-sender sequence) so ties are broken
deterministically. The heap holds only traffic in flight: client arrivals
wait in a sorted list and are fed onto it in chunks. Per-link latency is
sampled from a seeded RNG; messages sent before GST may be delayed
arbitrarily (but land by GST + Delta), after GST every correct-to-correct
message lands within the declared bound.
Node CPU time is free: this is a protocol-logic simulator, not a
performance model.

The total-order primitive is a trusted sequencer in the harness, to which
each batcher submits its shares and complaints once. It only orders: every
round_interval it cuts a round, less any event equal to one already in it,
for every consensus node. A repeat is ordered again; consensus refuses it.
"""

from __future__ import annotations

import heapq
import random
from itertools import chain

from .. import messages as msg
from ..assembler import AssemblerNode
from ..batcher import BatcherNode
from ..behaviors import CENSOR_TX, CRASH, INJECT_BOGUS
from ..consensus import ConsensusNode
from ..core import Transaction, header_digest, sha256, tx_signing_bytes, u64
from ..crypto import KeyPair, keygen, sign
from ..router import RouterNode, map_to_shard, validate_transaction
from .checks import (
    check_agreement,
    check_censorship_bound,
    check_no_loss_no_unbounded_dup,
    check_validity,
)
from .report import RunReport, TxRecord
from .scenario import ScenarioConfig

SEQUENCER = 0
HUB = 1

_NEVER = 1 << 62

# Client arrivals move from the held-back list onto the heap this many at a time.
ARRIVAL_CHUNK = 256
# Sender of the heap entry that feeds the next chunk. It is due when the
# first held-back arrival is, and at equal time sorts before every real
# sender, so every entry pops in the order it would from one big heap.
_FEED = -1


def derive_keys(role: bytes, seed: int, count: int, scheme: str) -> dict[int, KeyPair]:
    """The keypairs of parties (``b"party"``) or clients (``b"client"``) for a seed."""
    return {i: keygen(sha256(role + u64(seed) + u64(i)), scheme) for i in range(count)}


def link_delay_sampler(rng: random.Random, base_us: int, jitter_us: int):
    """A function returning ``base_us + rng.randint(0, jitter_us)`` (no draw
    when ``jitter_us`` is 0).

    It inlines CPython's ``randint``: one ``getrandbits`` of the width's bit
    length, redrawn while out of range. The calls on ``rng`` are the same,
    so the stream and every later draw are unchanged.
    """
    if not jitter_us:
        return lambda: base_us
    width = jitter_us + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits

    def link_delay() -> int:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return base_us + r

    return link_delay


class Deployment:
    """The one description of a run that every node reads: the scenario's
    parameters, the keys, and the node-id layout.

    Ids run sequencer (0), hub (1), then one router, one consensus node and
    one assembler per party, then the batchers party-major:
    ``router[p]``, ``consensus[p]``, ``assembler[p]`` and ``batcher[p][s]``.
    A party or shard past the last one raises IndexError.
    """

    sequencer = SEQUENCER
    hub = HUB

    def __init__(self, cfg: ScenarioConfig):
        n, k = self.n, self.k = cfg.n_parties, cfg.shard_count
        self.f, self.seed, self.scheme, self.protocol = cfg.f, cfg.seed, cfg.scheme, cfg.protocol
        self.sample_count = cfg.protocol.resolved_sample_count()
        self.adversaries = {a.party: a for a in cfg.adversaries}
        self.party_keys = derive_keys(b"party", cfg.seed, n, cfg.scheme)
        self.party_pubs = {p: kp.public for p, kp in self.party_keys.items()}
        self.client_keys = derive_keys(b"client", cfg.seed, cfg.clients, cfg.scheme)
        self.client_directory = {c: kp.public for c, kp in self.client_keys.items()}
        self.router = tuple(range(2, 2 + n))
        self.consensus = tuple(range(2 + n, 2 + 2 * n))
        self.assembler = tuple(range(2 + 2 * n, 2 + 3 * n))
        first = 2 + 3 * n
        self.batcher = tuple(tuple(range(first + p * k, first + (p + 1) * k)) for p in range(n))
        self.node_count = first + n * k


class _Ctx:
    __slots__ = ("runner", "node_id")

    def __init__(self, runner, node_id: int):
        self.runner = runner
        self.node_id = node_id

    def now(self) -> int:
        return self.runner.now_us

    def send(self, dest: int, message) -> None:
        self.runner.network_send(self.node_id, dest, message)

    def schedule(self, delay_us: int, message) -> None:
        self.runner.push(self.runner.now_us + delay_us, self.node_id, self.node_id, message)


class _Runner:
    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.now_us = 0
        self.heap: list = []
        self.held_arrivals: list = []  # heap entries, latest first
        self.send_seq: dict[int, int] = {}
        self.rng_net = random.Random(self._derive(b"net"))
        self._link_delay = link_delay_sampler(self.rng_net, cfg.latency.base_us, cfg.latency.jitter_us)
        self.rng_client = random.Random(self._derive(b"client"))

        d = self.d = Deployment(cfg)
        self.party_pubs = d.party_pubs
        self.consensus = {p: ConsensusNode(d, p) for p in range(d.n)}
        self.assemblers = {p: AssemblerNode(d, p) for p in range(d.n)}
        self.batchers = {(p, s): BatcherNode(d, p, s) for p in range(d.n) for s in range(d.k)}
        routers = [RouterNode(d, p) for p in range(d.n)]
        self.nodes: list = [None] * d.node_count
        self.party_of = [-1] * d.node_count
        for node in chain(routers, self.consensus.values(), self.assemblers.values(), self.batchers.values()):
            self.nodes[node.node_id] = node
            self.party_of[node.node_id] = node.party
        self.ctxs = [None if node is None else _Ctx(self, nid) for nid, node in enumerate(self.nodes)]
        # Deliveries due at or after these times are dropped when queued:
        # everything to a crashed party's nodes from its crash on, and others'
        # traffic to the lossy party's nodes from GST on.
        crash_at = {a.party: a.crash_at_us for a in cfg.adversaries if a.kind == CRASH}
        self.crash_us = [crash_at.get(party, _NEVER) for party in self.party_of]
        self.drop_us = [
            min(crash, cfg.gst_us) if party == cfg.lossy_party else crash
            for party, crash in zip(self.party_of, self.crash_us)
        ]
        self.tx_records: list[TxRecord] = []
        # Sequencer state.
        self.round_buffer: list = []
        self.round_no = 0

    # --- plumbing ---------------------------------------------------------

    def _derive(self, tag: bytes) -> int:
        return int.from_bytes(sha256(tag + u64(self.cfg.seed)), "big")

    def push(self, t: int, sender: int, dest: int, message) -> None:
        seq = self.send_seq.get(sender, 0)
        self.send_seq[sender] = seq + 1
        if t < self.drop_us[dest] or (sender == dest and t < self.crash_us[dest]):
            heapq.heappush(self.heap, (t, sender, seq, dest, message))

    def delivery_time(self, at: int) -> int:
        gst = self.cfg.gst_us
        if at < gst:
            # Adversarial pre-GST scheduling, still bounded by GST + Delta.
            slack = (gst - at) + self.cfg.delta_us
            chosen = at + self.rng_net.randint(self._link_delay(), slack)
            return min(chosen, gst + self._link_delay())
        return at + self._link_delay()

    def network_send(self, sender: int, dest: int, message) -> None:
        now = self.now_us
        if now >= self.cfg.gst_us:
            self.push(now + self._link_delay(), sender, dest, message)
        else:
            self.push(self.delivery_time(now), sender, dest, message)

    # --- clients -----------------------------------------------------------

    def _schedule_clients(self) -> None:
        cfg = self.cfg
        count = cfg.resolved_tx_count()
        # Arrivals take their delays from rng_net and their HUB sequence
        # numbers in submission order, exactly as if each were pushed.
        seq = self.send_seq.get(HUB, 0)
        drop_us = self.drop_us
        arrivals = []
        for i in range(count):
            t = cfg.duration_us * i // count
            client = i % cfg.clients
            if cfg.tx_size >= 8:
                payload = u64(i) + self.rng_client.randbytes(cfg.tx_size - 8)
            else:
                payload = self.rng_client.randbytes(cfg.tx_size)
            tx = Transaction(
                client, payload, sign(self.d.client_keys[client], tx_signing_bytes(client, payload))
            )
            censored = any(a.censors(tx) for a in cfg.adversaries)
            record = TxRecord(
                index=i,
                tx_id=tx.tx_id,
                client=client,
                shard=map_to_shard(tx.tx_id, cfg.shard_count),
                submit_us=t,
                censored=censored,
            )
            self.tx_records.append(record)
            submit = msg.SubmitTx(tx, i)  # one object, pushed to every router
            for router in self.d.router:
                at = self.delivery_time(t)
                if at < drop_us[router]:
                    arrivals.append((at, HUB, seq, router, submit))
                seq += 1
        self.send_seq[HUB] = seq
        arrivals.sort(reverse=True)
        self.held_arrivals = arrivals
        self._feed_arrivals()

    def _feed_arrivals(self) -> None:
        """Move the next chunk of held-back arrivals onto the heap."""
        held, heap = self.held_arrivals, self.heap
        for _ in range(min(ARRIVAL_CHUNK, len(held))):
            heapq.heappush(heap, held.pop())
        if held:
            heapq.heappush(heap, (held[-1][0], _FEED, 0, SEQUENCER, None))

    def _on_hub(self, message: msg.SubmissionReply) -> None:
        record = self.tx_records[message.submission_id]
        if message.ok:
            record.acks |= 1 << message.party
            if record.ack_quorum_us is None and record.acks.bit_count() >= self.cfg.n_parties - self.cfg.f:
                record.ack_quorum_us = self.now_us
        else:
            record.rejects[message.reason] = record.rejects.get(message.reason, 0) + 1

    # --- total-order sequencer ----------------------------------------------------

    def _on_sequencer(self, message) -> None:
        if isinstance(message, msg.RoundTick):
            if self.round_buffer:
                self.round_no += 1
                delivery = msg.RoundDelivery(self.round_no, tuple(dict.fromkeys(self.round_buffer)))
                self.round_buffer = []
                for dest in self.d.consensus:
                    self.network_send(SEQUENCER, dest, delivery)
            self.push(
                self.now_us + self.cfg.protocol.round_interval_us, SEQUENCER, SEQUENCER, msg.RoundTick()
            )
        else:  # a share or complaint, the object its batcher built
            self.round_buffer.append(message)

    # --- main loop ------------------------------------------------------------------

    def run(self) -> RunReport:
        cfg = self.cfg
        self._schedule_clients()
        for node in self.batchers.values():
            node.start(self.ctxs[node.node_id])
        self.push(cfg.protocol.round_interval_us, SEQUENCER, SEQUENCER, msg.RoundTick())

        # Bound here, not in __init__, so handlers patched after construction count.
        handles = [None if node is None else node.handle for node in self.nodes]
        ctxs = self.ctxs

        heap, heappop = self.heap, heapq.heappop
        limit = cfg.duration_us + cfg.drain_us
        duration = cfg.duration_us
        quiescent = False
        processed = 0
        while heap:
            t, sender, _seq, dest, message = heappop(heap)
            if t > limit:
                break
            self.now_us = t
            if dest == SEQUENCER:
                if sender == _FEED:
                    self._feed_arrivals()
                    continue
                self._on_sequencer(message)
            elif dest == HUB:
                self._on_hub(message)
            else:
                handles[dest](message, ctxs[dest])
            processed += 1
            if processed % 128 == 0 and t > duration and self._goal_met():
                quiescent = True
                break
        if not quiescent:
            quiescent = self._goal_met()
        return self._build_report(quiescent)

    def _network_idle(self) -> bool:
        """Nothing queued except self-timers and the entry that feeds arrivals
        (a delivery that is dropped is never queued)."""
        queued = chain(self.heap, self.held_arrivals)
        return all(sender == dest or sender == _FEED for _t, sender, _seq, dest, _m in queued)

    def _goal_met(self) -> bool:
        correct = self.cfg.correct_parties()
        # Equal heights leave no header buffered and no batch being fetched:
        # consensus p publishes to assembler p only the next_block_seq headers
        # it made, each appended once indexing its batches popped their fetches.
        heights = {len(self.assemblers[p].ledger) for p in correct}
        heights.update(self.consensus[p].state.next_block_seq for p in correct)
        if len(heights) != 1:
            return False
        for p in correct:
            for s in range(self.cfg.shard_count):
                for tx_id in self.batchers[(p, s)].pool.tx_index:
                    # Pool residue is fine once the tx is committed everywhere
                    # (a diverged secondary can never persist the winning
                    # batch for a seq it filled during an old term).
                    if any(tx_id not in self.assemblers[q].inclusion_times for q in correct):
                        return False
        for record in self.tx_records:
            if record.ack_quorum_us is None:
                continue
            for p in correct:
                if record.tx_id not in self.assemblers[p].inclusion_times:
                    return False
        return self._network_idle()

    # --- report ----------------------------------------------------------------------

    def _build_report(self, quiescent: bool) -> RunReport:
        cfg = self.cfg
        correct = cfg.correct_parties()
        ref = correct[0]
        ref_asm = self.assemblers[ref]
        ref_cons = self.consensus[ref]
        kinds = {a.kind for a in cfg.adversaries}

        reproposed_ids = chain.from_iterable(
            self.batchers[(p, s)].reproposed_tx_ids for p in correct for s in range(cfg.shard_count)
        )
        reproposed = [tx_id.hex() for tx_id in dict.fromkeys(reproposed_ids)]

        ledgers = {p: list(self.assemblers[p].ledger) for p in correct}
        ledger_digests = {
            p: sha256(b"".join(header_digest(b.header) for b in ledgers[p])).hex() for p in correct
        }

        per_shard: dict[int, dict] = {s: {"batches": 0, "txs": 0} for s in range(cfg.shard_count)}
        commit_counts: dict[bytes, int] = {}
        # Only an inject_bogus primary builds a tx that its router did not
        # validate, so without one the count is 0 and is not taken.
        count_bogus = INJECT_BOGUS in kinds
        bogus_batches = 0
        directory, max_tx_size = self.d.client_directory, cfg.protocol.max_tx_size
        alpha = cfg.protocol.alpha
        for block in ledgers[ref]:
            for batch in block.batches:
                stats = per_shard[batch.shard]
                stats["batches"] += 1
                stats["txs"] += len(batch.txs)
                for tx in batch.txs:
                    commit_counts[tx.tx_id] = commit_counts.get(tx.tx_id, 0) + 1
                if count_bogus and batch.txs:
                    invalid = sum(
                        1 for tx in batch.txs if validate_transaction(tx, directory, max_tx_size) is not None
                    )
                    if invalid > (1 - alpha) * len(batch.txs):
                        bogus_batches += 1

        drops: dict[str, int] = {}
        for p in correct:
            for reason, count in self.consensus[p].drops.items():
                drops[reason] = drops.get(reason, 0) + count

        # The run is over: nothing writes these maps again, so they are not copied.
        inclusion = {p: self.assemblers[p].inclusion_times for p in correct}
        for record in self.tx_records:
            times = [inclusion[p].get(record.tx_id) for p in correct]
            known = [x for x in times if x is not None]
            record.first_commit_us = min(known) if known else None
            record.last_commit_us = max(known) if len(known) == len(correct) else None
            record.commit_count = commit_counts.get(record.tx_id, 0)
        duplicate_commits = sum(c - 1 for c in commit_counts.values() if c > 1)

        report = RunReport(
            config=cfg.to_dict(),
            quiescent=quiescent,
            end_time_us=self.now_us,
            tx_records=self.tx_records,
            term_changes=list(ref_cons.term_change_log),
            reproposed_tx_ids=reproposed,
            pending_series=list(ref_cons.pending_series),
            throughput_series=list(ref_asm.throughput_series),
            ledger_digests=ledger_digests,
            committed_total=ref_asm.committed_txs,
            duplicate_commits=duplicate_commits,
            bogus_batch_commits=bogus_batches,
            per_shard=per_shard,
            drops=drops,
            checks={},
            ledgers=ledgers,
            inclusion=inclusion,
            party_keys=self.party_pubs,
        )
        report.checks["agreement"] = check_agreement(ledgers)
        report.checks["no_loss_no_unbounded_dup"] = check_no_loss_no_unbounded_dup(report)
        if CENSOR_TX in kinds:
            report.checks["censorship_bound"] = check_censorship_bound(report, cfg.censorship_bound_us())
        if INJECT_BOGUS in kinds:
            report.checks["validity"] = check_validity(report)
        return report


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute one scenario; deterministic for a given (config, seed)."""
    return _Runner(cfg).run()
