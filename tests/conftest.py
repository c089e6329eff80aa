from __future__ import annotations

import pytest

from shardbft.core import sha256, u64
from shardbft.crypto import SCHEME_TEST_MAC, keygen


@pytest.fixture
def client_keys():
    return {c: keygen(sha256(b"test-client" + u64(c))) for c in range(8)}


@pytest.fixture
def client_directory(client_keys):
    return {c: kp.public for c, kp in client_keys.items()}


@pytest.fixture
def party_keys():
    return {p: keygen(sha256(b"test-party" + u64(p))) for p in range(8)}


@pytest.fixture
def scheme():
    return SCHEME_TEST_MAC
