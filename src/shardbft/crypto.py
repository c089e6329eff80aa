"""Pluggable signature schemes.

Two schemes share one interface:

* ``test_mac`` -- a deterministic keyed MAC (HMAC-SHA256). Verification
  recomputes the MAC, so the "public" key equals the secret key. This is the
  default for simulations: it is fast, reproducible, and unforgeable by
  construction as long as the harness never signs with a key on behalf of a
  node that does not own it.
* ``standard_signature`` -- Ed25519 via the ``cryptography`` package, for runs
  that want a real asymmetric scheme. The package is imported on the first
  Ed25519 key operation, so a ``test_mac`` process never loads it.

Key generation is deterministic in the seed so that whole simulations replay
bit-for-bit.

``verify`` is a pure function of its full ``(public, message, signature)``
arguments, so it is memoized: a simulation runs every party in one process
and re-checks the same triple at each of them. Every caller still calls it;
only the primitive runs once per distinct triple (see ``verify.cache_info()``).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

SCHEME_TEST_MAC = "test_mac"
SCHEME_ED25519 = "standard_signature"

SCHEMES = (SCHEME_TEST_MAC, SCHEME_ED25519)

_SIG_LEN = {SCHEME_TEST_MAC: 32, SCHEME_ED25519: 64}

# Distinct (public, message, signature) verdicts kept by ``verify``: several
# times the largest per-run working set seen (about 6.7k triples).
VERIFY_CACHE_SIZE = 1 << 14
# Ed25519 key objects kept, keyed by raw key bytes: one per party and client.
_KEY_CACHE_SIZE = 256


@dataclass(frozen=True, slots=True)
class Signature:
    scheme: str
    data: bytes
    # The hash the generated one would give, computed once: ``verify``'s
    # memo hashes its signature argument on every call.
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.scheme, self.data)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class KeyPair:
    scheme: str
    secret: bytes
    public: bytes


def keygen(seed: bytes, scheme: str = SCHEME_TEST_MAC) -> KeyPair:
    """Derive a keypair deterministically from a 32-byte seed."""
    if scheme == SCHEME_TEST_MAC:
        secret = hashlib.sha256(b"mac-key" + seed).digest()
        return KeyPair(scheme, secret, secret)
    if scheme == SCHEME_ED25519:
        raw = hashlib.sha256(b"ed25519-key" + seed).digest()
        pub = _private_key(raw).public_key().public_bytes_raw()
        return KeyPair(scheme, raw, pub)
    raise ValueError(f"unknown signature scheme: {scheme!r}")


def sign(key: KeyPair, message: bytes) -> Signature:
    if key.scheme == SCHEME_TEST_MAC:
        return Signature(key.scheme, hmac.digest(key.secret, message, "sha256"))
    if key.scheme == SCHEME_ED25519:
        return Signature(key.scheme, _private_key(key.secret).sign(message))
    raise ValueError(f"unknown signature scheme: {key.scheme!r}")


# The Ed25519 backend is imported in the three functions below. The key
# caches run an import once per key, and ``_invalid_signature`` runs only on
# a failed check, so a verify pays no import.
@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _private_key(raw: bytes) -> Ed25519PrivateKey:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(raw)


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _public_key(raw: bytes) -> Ed25519PublicKey:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    # A malformed key raises ValueError, which lru_cache never stores.
    return Ed25519PublicKey.from_public_bytes(raw)


def _invalid_signature() -> type[Exception]:
    # Called only while an exception propagates out of an Ed25519 check, by
    # which time ``_public_key`` has loaded the backend.
    from cryptography.exceptions import InvalidSignature

    return InvalidSignature


@lru_cache(maxsize=VERIFY_CACHE_SIZE)
def verify(public: bytes, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` is a valid signature over ``message`` under ``public``.

    Malformed signature or key bytes yield False, never an exception.
    Memoized on the full argument triple (equal bytes, not identity); both
    verdicts are cached, which is sound because verification is
    deterministic.
    """
    expected = _SIG_LEN.get(sig.scheme)
    if expected is None or len(sig.data) != expected:
        return False
    if sig.scheme == SCHEME_TEST_MAC:
        want = hmac.digest(public, message, "sha256")
        return hmac.compare_digest(want, sig.data)
    try:
        _public_key(public).verify(sig.data, message)
        return True
    except (ValueError, _invalid_signature()):
        return False
