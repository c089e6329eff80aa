from __future__ import annotations

import pytest

from shardbft.core import Batch, Transaction, sha256, tx_signing_bytes, u64
from shardbft.crypto import SCHEME_TEST_MAC, keygen, sign


@pytest.fixture
def client_keys():
    return {c: keygen(sha256(b"test-client" + u64(c))) for c in range(8)}


@pytest.fixture
def client_directory(client_keys):
    return {c: kp.public for c, kp in client_keys.items()}


@pytest.fixture
def party_keys():
    return {p: keygen(sha256(b"test-party" + u64(p))) for p in range(8)}


def make_tx(client: int, payload: bytes, keys) -> Transaction:
    return Transaction(client, payload, sign(keys[client], tx_signing_bytes(client, payload)))


def make_batch(txs, shard=0, seq=0, term=0, primary=0) -> Batch:
    return Batch(shard, seq, term, primary, tuple(txs))


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


@pytest.fixture
def scheme():
    return SCHEME_TEST_MAC
