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


def pending_oracle(pending_shares, batch, f, excluded_slots=frozenset()):
    """Brute-force round rule over the concatenated shares: returns the keys
    F+1 distinct signers attest outside ``excluded_slots`` (the extraction
    set), and the per-slot winners and losers among them in first-appearance
    order."""
    shares = [*pending_shares, *batch]
    first: dict = {}
    signers: dict = {}
    for i, share in enumerate(shares):
        first.setdefault(share.key(), i)
        signers.setdefault(share.key(), set()).add(share.signer)
    extracted = {k for k, who in signers.items() if len(who) >= f + 1 and k.slot() not in excluded_slots}
    winners, losers, slots = [], [], set()
    for key in sorted(extracted, key=first.__getitem__):
        (losers if key.slot() in slots else winners).append(key)
        slots.add(key.slot())
    return extracted, winners, losers


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
