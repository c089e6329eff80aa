"""Builders shared by the unit tests: transactions, batches, pending
attestation shares, a deployment wired to the fixture keys, a context
that records what a node does, a run checked after every delivery, and
the batcher forks and deposed correct primaries a finished run holds."""

from __future__ import annotations

from shardbft.core import Batch, Transaction, tx_signing_bytes
from shardbft.crypto import sign
from shardbft.sim.runner import Deployment, _Runner
from shardbft.sim.scenario import ProtocolParams, ScenarioConfig


def make_tx(client: int, payload: bytes, keys) -> Transaction:
    return Transaction(client, payload, sign(keys[client], tx_signing_bytes(client, payload)))


def make_batch(txs, shard=0, seq=0, term=0, primary=0) -> Batch:
    return Batch(shard, seq, term, primary, tuple(txs))


def as_pending(shares) -> dict:
    """Consensus pending shares in their stored form: key -> the set of its
    signers, keys in first-appearance order."""
    pending: dict = {}
    for share in shares:
        pending.setdefault(share.key, set()).add(share.signer)
    return pending


def pending_oracle(pending_shares, batch, f):
    """Brute-force round rule over the concatenated shares: returns the
    per-slot winners in first-appearance order (in each slot, the first key
    F+1 distinct signers attest), the other keys of those slots, and the
    shares that stay pending (those of every slot without a winner)."""
    shares = [*pending_shares, *batch]
    signers: dict = {}
    for share in shares:
        signers.setdefault(share.key, set()).add(share.signer)
    winners, slots = [], set()
    for key, who in signers.items():  # first-appearance order
        if len(who) >= f + 1 and key.slot() not in slots:
            winners.append(key)
            slots.add(key.slot())
    dropped = {key for key in signers if key.slot() in slots} - set(winners)
    return winners, dropped, [share for share in shares if share.key.slot() not in slots]


def batcher_forks(runner, cfg) -> list[tuple[int, int]]:
    """Every (shard, seq) at which two correct batchers of the shard hold
    ledger batches of different terms, for seq up to the highest seq among
    the thresholded keys of the shard's correct batchers: ROADMAP item 1's
    batcher agreement, judged when ``runner`` has run."""
    forks = []
    for shard in range(cfg.shard_count):
        batchers = [runner.batchers[party, shard] for party in cfg.correct_parties()]
        top = max((key.seq for batcher in batchers for key in batcher.thresholded), default=-1)
        for seq in range(top + 1):
            if len({batcher.ledger[seq].term for batcher in batchers if seq < batcher.height}) > 1:
                forks.append((shard, seq))
    return forks


def deposed_correct_primaries(runner, cfg) -> list[tuple[int, int]]:
    """Every (shard, term) whose primary (``term % n``) is correct, which
    began at or after GST + Delta and which a later term ended, as the first
    correct consensus node's ``term_change_log`` records them: ROADMAP item
    16's "no correct primary deposed after GST + Delta", judged when
    ``runner`` has run. Term 0 begins at time 0."""
    correct = cfg.correct_parties()
    after = cfg.gst_us + cfg.delta_us
    current = {shard: (0, 0) for shard in range(cfg.shard_count)}  # shard -> (term, began at)
    deposed = []
    for at, shard, term in runner.consensus[correct[0]].term_change_log:
        old, began = current[shard]
        if began >= after and old % cfg.n_parties in correct:
            deposed.append((shard, old))
        current[shard] = (term, at)
    return deposed


def make_deployment(party_keys=None, client_directory=None, n=4, f=1, shards=1, seed=42, **protocol):
    """A deployment of ``n`` parties, with the fixtures' keys where given;
    keyword arguments override ``ProtocolParams`` fields."""
    cfg = ScenarioConfig(n_parties=n, f=f, shard_count=shards, seed=seed, protocol=ProtocolParams(**protocol))
    d = Deployment(cfg)
    if party_keys is not None:
        d.party_keys = party_keys
        d.party_pubs = {p: party_keys[p].public for p in range(n)}
    if client_directory is not None:
        d.client_directory = client_directory
    return d


def run_checked(cfg: ScenarioConfig, check):
    """Run ``cfg``, calling ``check(node, message)`` after each delivery to a
    node (the sequencer and the hub are not nodes); returns the report.

    Each node instance's ``handle`` is wrapped before ``run()`` binds its
    handler table, so the check sees the state that delivery left."""
    runner = _Runner(cfg)
    for node in runner.nodes[2:]:
        node.handle = _checked(node, node.handle, check)
    return runner.run()


def _checked(node, handle, check):
    def checked(message, ctx):
        handle(message, ctx)
        check(node, message)

    return checked


class StubCtx:
    """Minimal NodeContext for unit-testing nodes in isolation."""

    def __init__(self, now_us: int = 0):
        self.time = now_us
        self.sent: list[tuple[int, object]] = []
        self.timers: list[tuple[int, object]] = []

    def now(self) -> int:
        return self.time

    def send(self, dest, message):
        self.sent.append((dest, message))

    def schedule(self, delay_us, message):
        self.timers.append((self.time + delay_us, message))

    def take_sent(self):
        out = self.sent
        self.sent = []
        return out
