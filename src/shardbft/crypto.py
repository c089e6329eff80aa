"""Pluggable signature schemes.

Two schemes share one interface:

* ``test_mac`` -- a deterministic keyed MAC (HMAC-SHA256). Verification
  recomputes the MAC, so the "public" key equals the secret key. This is the
  default for simulations: it is fast, reproducible, and unforgeable by
  construction as long as the harness never signs with a key on behalf of a
  node that does not own it. Each key keeps two SHA-256 states, fed its
  inner and its outer padded block once (RFC 2104); a MAC copies both.
* ``standard_signature`` -- Ed25519 (RFC 8032), for runs that want a real
  asymmetric scheme. Its backend is chosen once per process, on the first
  Ed25519 key operation, from what loads: the system libsodium through
  ``ctypes`` if it loads and reproduces RFC 8032's TEST 1, else the
  ``cryptography`` package, imported when that fallback is built. Each
  backend object owns its key caches. Both give the same keys, signatures
  and, on every key ``keygen`` derives, verdicts, so no simulation depends on
  the choice; on a small-order public key OpenSSL accepts forgeries that
  libsodium refuses. A ``test_mac`` process loads neither.

Key generation is deterministic in the seed so that whole simulations replay
bit-for-bit.

``verify`` is a pure function of its full ``(public, message, signature)``
arguments, so it is memoized: a simulation runs every party in one process
and re-checks the same triple at each of them. Every caller still calls it;
only the primitive runs once per distinct triple (see ``verify.cache_info()``).

Where the signatures are known in advance, two bulk calls do the work up
front: ``sign_all`` signs a list, and ``verify_ahead`` fills ``verify``'s
memo with a list of triples before anyone asks for them. They split the
list into one contiguous chunk per CPU this process may run on, one thread
per chunk, only when the Ed25519 backend releases the GIL while it computes
(libsodium through ``ctypes``) and there is more than one CPU. Otherwise
``sign_all`` is the plain loop and ``verify_ahead`` does nothing: the first
caller's own ``verify`` does that work, as it would anyway.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

SCHEME_TEST_MAC = "test_mac"
SCHEME_ED25519 = "standard_signature"

SCHEMES = (SCHEME_TEST_MAC, SCHEME_ED25519)

_ED25519_SIG_LEN = 64
_SIG_LEN = {SCHEME_TEST_MAC: 32, SCHEME_ED25519: _ED25519_SIG_LEN}
# A public key is 32 bytes in both schemes, and so is an Ed25519 secret.
PUBLIC_KEY_LEN = _SECRET_LEN = 32

# Distinct (public, message, signature) verdicts kept by ``verify``: several
# times the largest per-run working set seen (about 6.7k triples).
VERIFY_CACHE_SIZE = 1 << 14
# Ed25519 key objects and ``test_mac`` key states kept: one per party and client.
_KEY_CACHE_SIZE = 256


class Signature(NamedTuple):
    # A tuple, so ``verify``'s memo hashes it in C on every call.
    scheme: str
    data: bytes


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
        return KeyPair(scheme, raw, _ed25519().public_key(raw))
    raise ValueError(f"unknown signature scheme: {scheme!r}")


# RFC 2104 over SHA-256's 64-byte block: byte tables that XOR a key with its
# inner (0x36) and outer (0x5c) pad.
_BLOCK_LEN = 64
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _mac_state(secret: bytes) -> tuple:
    """The SHA-256 states fed ``secret``'s inner and outer padded block: only ever copied."""
    if len(secret) > _BLOCK_LEN:
        secret = hashlib.sha256(secret).digest()
    block = secret.ljust(_BLOCK_LEN, b"\0")
    return hashlib.sha256(block.translate(_INNER_PAD)), hashlib.sha256(block.translate(_OUTER_PAD))


def _mac(secret: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104): H(K ^ opad || H(K ^ ipad || message))."""
    inner, outer = _mac_state(secret)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def sign(key: KeyPair, message: bytes) -> Signature:
    if key.scheme == SCHEME_TEST_MAC:
        return Signature(key.scheme, _mac(key.secret, message))
    if key.scheme == SCHEME_ED25519:
        return Signature(key.scheme, _ed25519().sign(key.secret, message))
    raise ValueError(f"unknown signature scheme: {key.scheme!r}")


# --- Ed25519 backends ---------------------------------------------------------
# Each takes raw bytes: ``public_key(secret)``, ``sign(secret, message)`` and
# ``verify(public, message, signature)``. A secret of the wrong length raises
# ValueError; a key or signature of the wrong length verifies False.

# RFC 8032 section 7.1, TEST 1: the secret, its public key, and the signature
# of the empty message.
_TEST1_SECRET = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
_TEST1_PUBLIC = bytes.fromhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
_TEST1_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def _passes_test1(backend) -> bool:
    return (
        backend.public_key(_TEST1_SECRET) == _TEST1_PUBLIC
        and backend.sign(_TEST1_SECRET, b"") == _TEST1_SIGNATURE
        and backend.verify(_TEST1_PUBLIC, b"", _TEST1_SIGNATURE)
    )


class _Cryptography:
    """Ed25519 through the ``cryptography`` package (OpenSSL)."""

    name = "cryptography"
    # Its verify measured 0.67-1.05x as fast on two threads as on one.
    releases_gil = False

    def __init__(self):
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

        # What a check that does not verify raises.
        self._rejects = (ValueError, InvalidSignature)
        # One key object per raw key, that is per party and client. A malformed
        # key raises ValueError, which lru_cache never stores.
        self._private_key = lru_cache(maxsize=_KEY_CACHE_SIZE)(Ed25519PrivateKey.from_private_bytes)
        self._public_key = lru_cache(maxsize=_KEY_CACHE_SIZE)(Ed25519PublicKey.from_public_bytes)

    def public_key(self, secret: bytes) -> bytes:
        return self._private_key(secret).public_key().public_bytes_raw()

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return self._private_key(secret).sign(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        try:
            self._public_key(public).verify(signature, message)
            return True
        except self._rejects:
            return False


class _Sodium:
    """Ed25519 through libsodium's ``crypto_sign_ed25519_*`` functions.

    Every length is checked here, before a pointer crosses into C.
    """

    name = "libsodium"
    # ctypes drops the GIL for the length of each call into C.
    releases_gil = True

    def __init__(self, lib):
        import ctypes

        ptr, size = ctypes.c_char_p, ctypes.c_ulonglong
        for fn, argtypes, restype in (
            (lib.sodium_init, [], ctypes.c_int),
            (lib.crypto_sign_ed25519_seed_keypair, [ptr, ptr, ptr], ctypes.c_int),
            # The NULL second argument is the optional signature-length output.
            (lib.crypto_sign_ed25519_detached, [ptr, ctypes.c_void_p, ptr, size, ptr], ctypes.c_int),
            (lib.crypto_sign_ed25519_verify_detached, [ptr, ptr, size, ptr], ctypes.c_int),
        ):
            fn.argtypes, fn.restype = argtypes, restype
        if lib.sodium_init() < 0:
            raise OSError("sodium_init failed")
        self._buffer = ctypes.create_string_buffer
        self._seed_keypair = lib.crypto_sign_ed25519_seed_keypair
        self._sign_detached = lib.crypto_sign_ed25519_detached
        self._verify_detached = lib.crypto_sign_ed25519_verify_detached
        # (public key, 64-byte signing key) per secret: one per party and client.
        self._keypair = lru_cache(maxsize=_KEY_CACHE_SIZE)(self._expand)

    def _expand(self, secret: bytes) -> tuple[bytes, bytes]:
        if len(secret) != _SECRET_LEN:
            raise ValueError(f"an Ed25519 secret is {_SECRET_LEN} bytes, got {len(secret)}")
        public, signing = self._buffer(PUBLIC_KEY_LEN), self._buffer(2 * _SECRET_LEN)
        self._seed_keypair(public, signing, secret)
        return public.raw, signing.raw

    def public_key(self, secret: bytes) -> bytes:
        return self._keypair(secret)[0]

    def sign(self, secret: bytes, message: bytes) -> bytes:
        signing = self._keypair(secret)[1]
        signature = self._buffer(_ED25519_SIG_LEN)
        self._sign_detached(signature, None, message, len(message), signing)
        return signature.raw

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(public) != PUBLIC_KEY_LEN or len(signature) != _ED25519_SIG_LEN:
            return False
        return self._verify_detached(signature, message, len(message), public) == 0


def _load_sodium():
    # By soname: ``ctypes.util.find_library`` would run ldconfig in a subprocess.
    import ctypes

    try:
        return ctypes.CDLL("libsodium.so.23")
    except OSError:
        return ctypes.CDLL("libsodium.so")


@lru_cache(maxsize=None)
def _ed25519() -> _Sodium | _Cryptography:
    """This process's Ed25519 backend, chosen on its first call: libsodium if
    it loads, initialises and reproduces TEST 1, else ``cryptography``."""
    try:
        sodium = _Sodium(_load_sodium())
    except (OSError, AttributeError):  # not installed, or a symbol missing
        return _Cryptography()
    return sodium if _passes_test1(sodium) else _Cryptography()


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
        want = _mac(public, message)
        return hmac.compare_digest(want, sig.data)
    return _ed25519().verify(public, message, sig.data)


# --- bulk calls ---------------------------------------------------------------


def _workers(scheme: str) -> int:
    """Threads that share a bulk call on ``scheme``: one per CPU this process
    may run on when the Ed25519 backend releases the GIL, else 1."""
    if scheme != SCHEME_ED25519 or not _ed25519().releases_gil:
        return 1
    return len(os.sched_getaffinity(0))


def _in_chunks(fn, items: list, workers: int) -> list:
    """``[fn(*item) for item in items]``, one contiguous chunk per thread; the
    calling thread works the first. The first failing chunk's exception is
    raised, which is the one the plain loop would raise."""
    size = -(-len(items) // workers)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    done: list = [None] * len(chunks)

    def work(j: int) -> None:
        try:
            done[j] = [fn(*item) for item in chunks[j]]
        except BaseException as exc:
            done[j] = exc

    threads = [threading.Thread(target=work, args=(j,)) for j in range(1, len(chunks))]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for part in done:
        if isinstance(part, BaseException):
            raise part
    return [out for part in done for out in part]


def sign_all(pairs: list[tuple[KeyPair, bytes]]) -> list[Signature]:
    """``[sign(key, message) for key, message in pairs]``, in order."""
    workers = _workers(pairs[0][0].scheme) if len(pairs) > 1 else 1
    if workers == 1:
        return [sign(key, message) for key, message in pairs]
    return _in_chunks(sign, pairs, workers)


def verify_ahead(triples: list[tuple[bytes, bytes, Signature]]) -> None:
    """Fill ``verify``'s memo with each ``(public, message, signature)`` triple,
    where threads make that pay (see the module docstring)."""
    workers = _workers(triples[0][2].scheme) if len(triples) > 1 else 1
    if workers > 1:
        _in_chunks(verify, triples, workers)
