"""Builders shared by the unit tests: transactions, batches, pending
attestation shares, a deployment wired to the fixture keys, and a context
that records what a node does."""

from __future__ import annotations

from shardbft.core import Batch, Transaction, tx_signing_bytes
from shardbft.crypto import sign
from shardbft.sim.runner import Deployment
from shardbft.sim.scenario import ProtocolParams, ScenarioConfig


def make_tx(client: int, payload: bytes, keys) -> Transaction:
    return Transaction(client, payload, sign(keys[client], tx_signing_bytes(client, payload)))


def make_batch(txs, shard=0, seq=0, term=0, primary=0) -> Batch:
    return Batch(shard, seq, term, primary, tuple(txs))


def as_pending(shares) -> dict:
    """Consensus pending shares in their stored form: key -> signer -> the
    first share of that signer, keys in first-appearance order."""
    pending: dict = {}
    for share in shares:
        pending.setdefault(share.key(), {}).setdefault(share.signer, share)
    return pending


def pending_oracle(pending_shares, batch, f):
    """Brute-force round rule over the concatenated shares: returns the
    per-slot winners in first-appearance order (in each slot, the first key
    F+1 distinct signers attest), the other keys of those slots, and the
    shares that stay pending (those of every slot without a winner)."""
    shares = [*pending_shares, *batch]
    signers: dict = {}
    for share in shares:
        signers.setdefault(share.key(), set()).add(share.signer)
    winners, slots = [], set()
    for key, who in signers.items():  # first-appearance order
        if len(who) >= f + 1 and key.slot() not in slots:
            winners.append(key)
            slots.add(key.slot())
    dropped = {key for key in signers if key.slot() in slots} - set(winners)
    return winners, dropped, [share for share in shares if share.key().slot() not in slots]


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
