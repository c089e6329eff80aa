"""Seeded discrete-event simulation of a full deployment.

One virtual clock (integer microseconds), one event heap. Events are
ordered by (time, sender id, per-sender sequence) so ties are broken
deterministically. Each (sender, dest) link draws its latency from its
own RNG, seeded from the run seed and the two ids, so a message's delay
depends only on the messages sent before it on the same link, never on
traffic elsewhere. Messages sent before GST may be delayed arbitrarily
(but land by GST + Delta); after GST every correct-to-correct message
lands within the declared bound.
Node CPU time is free: this is a protocol-logic simulator, not a
performance model.

The total-order primitive is a trusted sequencer in the harness, to which
each batcher submits its shares and complaints once. It only orders: every
round_interval it cuts a round of everything submitted since the last, for
every consensus node. A repeat is ordered again; consensus counts it once.

Every delivery goes through one handler table indexed by node id: the
sequencer (0) and the client hub (1) are runner methods in it next to the
nodes' ``handle``, and each acts through its own context, as a node does.
The hub is the clients' open loop: on its own timer it sends each tx to
every router at the tx's submit time, then sets the timer for the next.
Nothing it receives changes what it sends, so a reply to it is tallied
when sent, as of its landing time, not queued: it counts iff it lands by
duration + drain, and the network is not idle until the last has landed.
"""

from __future__ import annotations

import heapq
import random
from array import array
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

# After `duration` the goal is checked on this virtual-time tick, so a run
# stops when the goal holds, not after some count of deliveries.
GOAL_CHECK_US = 20_000


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
        self.send_seq: dict[int, int] = {}
        self.limit_us = cfg.duration_us + cfg.drain_us
        self.rng_client = random.Random(self._derive(b"client"))

        d = self.d = Deployment(cfg)
        # links[sender][dest] is that link's delay sampler, made on first use.
        self.links = [[None] * d.node_count for _ in range(d.node_count)]
        self.link_rngs: dict[tuple[int, int], random.Random] = {}
        self.party_pubs = d.party_pubs
        self.consensus = {p: ConsensusNode(d, p) for p in range(d.n)}
        self.assemblers = {p: AssemblerNode(d, p) for p in range(d.n)}
        self.batchers = {(p, s): BatcherNode(d, p, s) for p in range(d.n) for s in range(d.k)}
        routers = [RouterNode(d, p) for p in range(d.n)]
        self.nodes: list = [None] * d.node_count
        for node in chain(routers, self.consensus.values(), self.assemblers.values(), self.batchers.values()):
            self.nodes[node.node_id] = node
        self.ctxs = [_Ctx(self, nid) for nid in range(d.node_count)]
        # Deliveries due at or after these times are dropped when queued:
        # everything to a crashed party's nodes from its crash on.
        crash_at = {a.party: a.crash_at_us for a in cfg.adversaries if a.kind == CRASH}
        self.crash_us = [_NEVER if node is None else crash_at.get(node.party, _NEVER) for node in self.nodes]
        self.tx_records: list[TxRecord] = []
        self.submissions: list[msg.SubmitTx] = []  # the hub's, in submission order
        # The hub's tally: landed[i * n + p] is the earliest landing of party p's ok
        # replies to submission i; hub_busy_us the latest of any reply, counted or not.
        self.landed = array("q", [_NEVER]) * (cfg.resolved_tx_count() * d.n)
        self.hub_busy_us = 0
        # Sequencer state.
        self.round_buffer: list = []
        self.round_no = 0

    # --- plumbing ---------------------------------------------------------

    def _derive(self, tag: bytes) -> int:
        return int.from_bytes(sha256(tag + u64(self.cfg.seed)), "big")

    def push(self, t: int, sender: int, dest: int, message) -> None:
        seq = self.send_seq.get(sender, 0)
        self.send_seq[sender] = seq + 1
        if dest != HUB or sender == HUB:
            if t < self.crash_us[dest]:
                heapq.heappush(self.heap, (t, sender, seq, dest, message))
            return
        # A reply to the hub, applied to its record as of its landing time t.
        self.hub_busy_us = max(self.hub_busy_us, t)
        if t > self.limit_us:
            return
        record = self.tx_records[message.submission_id]
        if message.ok:
            record.acks |= 1 << message.party
            i = message.submission_id * self.d.n + message.party
            if t < self.landed[i]:
                self.landed[i] = t
        else:
            record.rejects[message.reason] = record.rejects.get(message.reason, 0) + 1

    def _new_link(self, sender: int, dest: int):
        rng = self.link_rngs[sender, dest] = random.Random(self._derive(b"net" + u64(sender) + u64(dest)))
        latency = self.cfg.latency
        link = self.links[sender][dest] = link_delay_sampler(rng, latency.base_us, latency.jitter_us)
        return link

    def network_send(self, sender: int, dest: int, message) -> None:
        now = self.now_us
        link = self.links[sender][dest] or self._new_link(sender, dest)
        gst = self.cfg.gst_us
        if now >= gst:
            self.push(now + link(), sender, dest, message)
        else:
            # Adversarial pre-GST scheduling, still bounded by GST + Delta.
            slack = (gst - now) + self.cfg.delta_us
            chosen = now + self.link_rngs[sender, dest].randint(link(), slack)
            self.push(min(chosen, gst + link()), sender, dest, message)

    # --- clients -----------------------------------------------------------

    def _schedule_clients(self) -> None:
        cfg = self.cfg
        count, clients, duration, shards = cfg.resolved_tx_count(), cfg.clients, cfg.duration_us, cfg.shard_count
        keys, randbytes, filler = self.d.client_keys, self.rng_client.randbytes, cfg.tx_size - 8
        censors = [a for a in cfg.adversaries if a.kind == CENSOR_TX]
        records, submissions = self.tx_records, self.submissions
        for i in range(count):
            client = i % clients
            payload = u64(i) + randbytes(filler)
            tx = Transaction(client, payload, sign(keys[client], tx_signing_bytes(client, payload)))
            censored = bool(censors) and any(a.censors(tx) for a in censors)
            shard = map_to_shard(tx.tx_id, shards)
            records.append(TxRecord(i, tx.tx_id, client, shard, duration * i // count, censored))
            submissions.append(msg.SubmitTx(tx, i))  # one object, sent to every router
        self.push(records[0].submit_us, HUB, HUB, submissions[0])

    def _on_hub(self, message: msg.SubmitTx, ctx) -> None:
        """The hub's own timer: submit, then wait for the next."""
        for router in self.d.router:
            ctx.send(router, message)
        i = message.submission_id + 1
        if i < len(self.submissions):
            ctx.schedule(self.tx_records[i].submit_us - self.now_us, self.submissions[i])

    # --- total-order sequencer ----------------------------------------------------

    def _on_sequencer(self, message, ctx) -> None:
        if isinstance(message, msg.RoundTick):
            if self.round_buffer:
                self.round_no += 1
                delivery = msg.RoundDelivery(self.round_no, tuple(self.round_buffer))
                self.round_buffer = []
                for dest in self.d.consensus:
                    ctx.send(dest, delivery)
            ctx.schedule(self.cfg.protocol.round_interval_us, msg.RoundTick())
        else:  # a share or complaint, the object its batcher built
            self.round_buffer.append(message)

    # --- main loop ------------------------------------------------------------------

    def run(self) -> RunReport:
        cfg = self.cfg
        self._schedule_clients()
        ctxs = self.ctxs
        for node in self.batchers.values():
            node.start(ctxs[node.node_id])
        ctxs[SEQUENCER].schedule(cfg.protocol.round_interval_us, msg.RoundTick())

        # Bound here, not in __init__, so handlers patched after construction count.
        handles = [self._on_sequencer, self._on_hub, *(node.handle for node in self.nodes[2:])]

        heap, heappop = self.heap, heapq.heappop
        limit = self.limit_us
        check_at = min(cfg.duration_us + GOAL_CHECK_US, limit)
        quiescent = False
        while True:
            if not heap or heap[0][0] > check_at:
                # Every delivery due by check_at is handled: the run stops
                # here if the goal holds, whatever traffic led up to it.
                self.now_us = check_at
                quiescent = self._goal_met()
                if quiescent or check_at == limit:
                    break
                check_at = min(check_at + GOAL_CHECK_US, limit)
                continue
            t, _sender, _seq, dest, message = heappop(heap)
            self.now_us = t
            handles[dest](message, ctxs[dest])
        return self._build_report(quiescent)

    def _network_idle(self) -> bool:
        """Nothing queued except self-timers (a delivery that is dropped is
        never queued), and every reply to the hub landed."""
        return self.hub_busy_us <= self.now_us and all(sender == dest for _t, sender, _seq, dest, _m in self.heap)

    def _goal_met(self) -> bool:
        correct = self.cfg.correct_parties()
        # Equal heights leave no header buffered and no batch being fetched:
        # consensus p publishes to assembler p only the next_block_seq headers
        # it made, each appended once indexing its batches popped their fetches.
        heights = {len(self.assemblers[p].ledger) for p in correct}
        heights.update(self.consensus[p].state.next_block_seq for p in correct)
        if len(heights) != 1 or not self._network_idle():
            return False
        for p in correct:
            for s in range(self.cfg.shard_count):
                for tx_id in self.batchers[(p, s)].pool.tx_index:
                    # Pool residue is fine once the tx is committed everywhere
                    # (a diverged secondary can never persist the winning
                    # batch for a seq it filled during an old term).
                    if any(tx_id not in self.assemblers[q].inclusion_times for q in correct):
                        return False
        inclusion = [self.assemblers[p].inclusion_times for p in correct]
        quorum = self.cfg.n_parties - self.cfg.f
        return all(
            record.tx_id in times
            for record in self.tx_records
            if record.acks.bit_count() >= quorum
            for times in inclusion
        )

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

        inclusion = [self.assemblers[p].inclusion_times for p in correct]
        n, quorum, landed = self.d.n, cfg.n_parties - cfg.f, self.landed
        for record in self.tx_records:
            first = last = None
            held = 0  # correct parties that commit the tx
            for times_of in inclusion:
                t = times_of.get(record.tx_id)
                if t is not None:
                    held += 1
                    if first is None or t < first:
                        first = t
                    if last is None or t > last:
                        last = t
            record.first_commit_us = first
            record.last_commit_us = last if held == len(correct) else None
            record.commit_count = commit_counts.get(record.tx_id, 0)
            if record.acks.bit_count() >= quorum:  # the quorum-th earliest party to ack
                i = record.index * n
                record.ack_quorum_us = sorted(landed[i : i + n])[quorum - 1]
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
