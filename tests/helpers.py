"""Builders shared by the unit tests: transactions, batches, a deployment
wired to the fixture keys, and a context that records what a node does."""

from __future__ import annotations

from shardbft.core import Batch, Transaction, tx_signing_bytes
from shardbft.crypto import sign
from shardbft.sim.runner import Deployment
from shardbft.sim.scenario import ProtocolParams, ScenarioConfig


def make_tx(client: int, payload: bytes, keys) -> Transaction:
    return Transaction(client, payload, sign(keys[client], tx_signing_bytes(client, payload)))


def make_batch(txs, shard=0, seq=0, term=0, primary=0) -> Batch:
    return Batch(shard, seq, term, primary, tuple(txs))


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
