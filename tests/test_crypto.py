import dataclasses
import hashlib
import hmac
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shardbft
from shardbft.crypto import (
    SCHEME_ED25519,
    SCHEME_TEST_MAC,
    Signature,
    keygen,
    sign,
    verify,
)

BOTH = [SCHEME_TEST_MAC, SCHEME_ED25519]


@pytest.mark.parametrize("scheme", BOTH)
def test_keygen_deterministic(scheme):
    seed = bytes(range(32))
    assert keygen(seed, scheme) == keygen(seed, scheme)


@pytest.mark.parametrize("scheme", BOTH)
def test_distinct_seeds_distinct_public_keys(scheme):
    rng = random.Random(11)
    n = 1000 if scheme == SCHEME_TEST_MAC else 200
    pubs = {keygen(rng.randbytes(32), scheme).public for _ in range(n)}
    assert len(pubs) == n


@pytest.mark.parametrize("scheme", BOTH)
def test_sign_verify_round_trip(scheme):
    kp = keygen(b"\x01" * 32, scheme)
    sig = sign(kp, b"hello")
    assert verify(kp.public, b"hello", sig)


def test_test_mac_is_hmac_sha256():
    # The reference is the HMAC object the one-shot digest replaced.
    kp = keygen(b"\x05" * 32, SCHEME_TEST_MAC)
    for message in (b"", b"hello", bytes(range(256)) * 9):
        want = hmac.new(kp.secret, message, hashlib.sha256).digest()
        assert sign(kp, message) == Signature(SCHEME_TEST_MAC, want)
        assert verify(kp.public, message, Signature(SCHEME_TEST_MAC, want))
        assert not verify(kp.public, message + b"!", Signature(SCHEME_TEST_MAC, want))


@pytest.mark.parametrize("scheme", BOTH)
def test_signature_hash_is_computed_once_and_unchanged(scheme):
    # The generated hash's value, computed at construction.
    sig = sign(keygen(b"\x07" * 32, scheme), b"message")
    assert hash(sig) == hash((sig.scheme, sig.data))
    twin = Signature(sig.scheme, sig.data)
    object.__setattr__(twin, "_hash", 0)
    assert twin == sig and repr(twin) == repr(sig)
    assert "_hash" not in repr(sig)
    assert [f.name for f in dataclasses.fields(Signature) if f.compare] == ["scheme", "data"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.data = b"x"


@pytest.mark.parametrize("scheme", BOTH)
def test_tampered_message_rejected(scheme):
    kp = keygen(b"\x02" * 32, scheme)
    rng = random.Random(5)
    for _ in range(50):
        message = rng.randbytes(rng.randint(1, 64))
        sig = sign(kp, message)
        flipped = bytearray(message)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        assert not verify(kp.public, bytes(flipped), sig)


@pytest.mark.parametrize("scheme", BOTH)
def test_foreign_key_rejected(scheme):
    rng = random.Random(9)
    for _ in range(30):
        a = keygen(rng.randbytes(32), scheme)
        b = keygen(rng.randbytes(32), scheme)
        message = rng.randbytes(24)
        assert not verify(b.public, message, sign(a, message))


@pytest.mark.parametrize("scheme", BOTH)
def test_malformed_signature_is_false_not_exception(scheme):
    kp = keygen(b"\x03" * 32, scheme)
    assert not verify(kp.public, b"m", Signature(scheme, b""))
    assert not verify(kp.public, b"m", Signature(scheme, b"short"))
    assert not verify(kp.public, b"m", Signature("bogus-scheme", b"\x00" * 64))


def test_signature_lengths_fixed():
    mac = sign(keygen(b"\x04" * 32, SCHEME_TEST_MAC), b"m")
    ed = sign(keygen(b"\x04" * 32, SCHEME_ED25519), b"m")
    assert len(mac.data) == 32
    assert len(ed.data) == 64


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        keygen(b"\x00" * 32, "unknown")


# --- the verify memo ---------------------------------------------------------


def _flip(data: bytes, i: int) -> bytes:
    out = bytearray(data)
    out[i] ^= 0x01
    return bytes(out)


@pytest.mark.parametrize("scheme", BOTH)
def test_memo_one_flipped_byte_turns_true_to_false(scheme):
    kp = keygen(b"\x05" * 32, scheme)
    message = b"memoized message"
    sig = sign(kp, message)
    assert verify(kp.public, message, sig)
    for i in (0, len(kp.public) // 2, len(kp.public) - 1):
        assert not verify(_flip(kp.public, i), message, sig)
    for i in (0, len(message) - 1):
        assert not verify(kp.public, _flip(message, i), sig)
    for i in (0, len(sig.data) - 1):
        assert not verify(kp.public, message, Signature(scheme, _flip(sig.data, i)))
    assert verify(kp.public, message, sig)


def _fresh(public: bytes, message: bytes, sig: Signature):
    """Equal arguments in new objects: the memo keys on bytes, not identity."""
    return bytes(bytearray(public)), bytes(bytearray(message)), Signature(sig.scheme, bytes(bytearray(sig.data)))


@pytest.mark.parametrize("scheme", BOTH)
def test_memo_repeated_calls_agree_and_hit(scheme):
    kp = keygen(b"\x06" * 32, scheme)
    good = (kp.public, b"m", sign(kp, b"m"))
    bad = (kp.public, b"m", Signature(scheme, _flip(good[2].data, 3)))
    assert verify(*good) and not verify(*bad)
    hits = verify.cache_info().hits
    for _ in range(3):
        assert verify(*_fresh(*good)) and not verify(*_fresh(*bad))
    assert verify.cache_info().hits == hits + 6


@pytest.mark.parametrize("scheme", BOTH)
def test_memo_cached_false_never_turns_true(scheme):
    kp = keygen(b"\x07" * 32, scheme)
    other = keygen(b"\x08" * 32, scheme)
    message = b"who signed this"
    forged = sign(other, message)
    assert not verify(kp.public, message, forged)
    # Warm the cache with the genuine triple; the forged one stays False.
    assert verify(kp.public, message, sign(kp, message))
    assert verify(other.public, message, forged)
    assert not verify(kp.public, message, forged)


@pytest.mark.parametrize("public", [b"", b"\x01" * 31, b"\x01" * 33])
def test_malformed_ed25519_public_key_false_on_every_call(public):
    sig = sign(keygen(b"\x09" * 32, SCHEME_ED25519), b"m")
    assert verify(public, b"m", sig) is False
    assert verify(public, b"m", sig) is False


# Runs in a fresh interpreter: this test process has long since loaded the
# Ed25519 backend through the tests above.
_LAZY_BACKEND_SCRIPT = """
import sys
import tempfile
from pathlib import Path

from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
from shardbft.crypto import SCHEME_ED25519, Signature, keygen, sign, verify
from shardbft.sim.report import report_to_json
from shardbft.sim.runner import run_scenario
from shardbft.sim.scenario import ScenarioConfig

cfg = ScenarioConfig.from_dict({"duration": 0.5, "tx_rate": 40})
report = run_scenario(cfg)
assert cfg.scheme == "test_mac" and report.all_checks_pass() and report_to_json(report)
party = min(report.ledgers)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ledger.bin"
    write_ledger(path, report.ledgers[party])
    blocks = read_ledger(path, cfg.scheme)
assert blocks and verify_ledger_blocks(blocks, report.party_keys, cfg.n_parties, cfg.f)[0]
assert "cryptography" not in sys.modules, "a test_mac run loaded the Ed25519 backend"

kp = keygen(bytes(32), SCHEME_ED25519)
assert "cryptography" in sys.modules
sig = sign(kp, b"m")
assert verify(kp.public, b"m", sig)
assert verify(kp.public, b"n", sig) is False
assert verify(b"\\x01" * 31, b"m", sig) is False
assert verify(kp.public, b"m", Signature(SCHEME_ED25519, bytes(64))) is False
"""


def test_test_mac_run_never_loads_the_ed25519_backend():
    src = str(Path(shardbft.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_BACKEND_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
