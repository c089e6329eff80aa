import contextlib
import hashlib
import hmac
import io
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from test_regression import _rebind

import families

import shardbft
from shardbft import crypto
from shardbft.cli import main
from shardbft.crypto import (
    SCHEME_ED25519,
    SCHEME_TEST_MAC,
    KeyPair,
    Signature,
    keygen,
    sign,
    verify,
)
from shardbft.sim import runner as runner_module
from shardbft.sim.runner import run_scenario
from shardbft.sim.scenario import ScenarioConfig

# The Ed25519 tests below run twice: on the backend this process selected
# (libsodium wherever it loads), and on the ``cryptography`` fallback.
ED25519_FALLBACK = f"{SCHEME_ED25519}-cryptography"


@pytest.fixture
def swap_backend(monkeypatch):
    """``swap_backend(b)`` runs Ed25519 on ``b`` for the rest of the test. The
    verify memo is emptied at the swap and at teardown, so no verdict of one
    backend answers for the other."""

    def swap(backend) -> None:
        monkeypatch.setattr(crypto, "_ed25519", lambda: backend)
        verify.cache_clear()

    yield swap
    verify.cache_clear()


@pytest.fixture(params=[SCHEME_TEST_MAC, SCHEME_ED25519, ED25519_FALLBACK])
def scheme(request, swap_backend):
    if request.param == ED25519_FALLBACK:
        swap_backend(crypto._Cryptography())
        return SCHEME_ED25519
    return request.param


def test_keygen_deterministic(scheme):
    seed = bytes(range(32))
    assert keygen(seed, scheme) == keygen(seed, scheme)


def test_distinct_seeds_distinct_public_keys(scheme):
    rng = random.Random(11)
    n = 1000 if scheme == SCHEME_TEST_MAC else 200
    pubs = {keygen(rng.randbytes(32), scheme).public for _ in range(n)}
    assert len(pubs) == n


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


@pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 200])
@pytest.mark.parametrize("message_len", [0, 1, 300])
def test_test_mac_is_hmac_sha256_at_every_key_length(key_len, message_len):
    # Keys past SHA-256's 64-byte block are hashed first (RFC 2104); keygen
    # only makes 32-byte keys, so no run reaches that rule.
    rng = random.Random(key_len * 1000 + message_len)
    key, message = rng.randbytes(key_len), rng.randbytes(message_len)
    assert crypto._mac(key, message) == hmac.digest(key, message, "sha256")
    assert crypto._mac(key, message) == hmac.digest(key, message, "sha256")  # from the kept state


def test_test_mac_key_states_are_copied_never_updated():
    # Each key's two pad states are kept and copied for every MAC. Interleaving
    # signs and verifies across keys and messages would carry one message
    # into the next if a kept state were ever updated in place. The messages
    # are fresh, so no verify is answered from its memo.
    keys = [keygen(bytes([i]) * 32, SCHEME_TEST_MAC) for i in range(3)]
    rng = random.Random(11)
    for round_no in range(40):
        kp = keys[rng.randrange(len(keys))]
        message = round_no.to_bytes(2, "big") + rng.randbytes(rng.randrange(0, 200))
        want = hmac.digest(kp.secret, message, "sha256")
        if rng.random() < 0.5:
            assert sign(kp, message) == Signature(SCHEME_TEST_MAC, want)
        else:
            assert verify(kp.public, message, Signature(SCHEME_TEST_MAC, want))
            assert not verify(kp.public, message, Signature(SCHEME_TEST_MAC, bytes(32)))
    assert crypto._mac_state.cache_info().currsize >= len(keys)


def test_signature_hash_is_computed_once_and_unchanged(scheme):
    # The field tuple's hash: the verify memo's key.
    sig = sign(keygen(b"\x07" * 32, scheme), b"message")
    assert hash(sig) == hash((sig.scheme, sig.data))
    twin = Signature(sig.scheme, sig.data)
    assert twin == sig and hash(twin) == hash(sig)
    assert repr(twin) == repr(sig) == f"Signature(scheme={scheme!r}, data={sig.data!r})"
    with pytest.raises(AttributeError):
        sig.data = b"x"
    other = SCHEME_ED25519 if scheme == SCHEME_TEST_MAC else SCHEME_TEST_MAC
    assert Signature(other, sig.data) != sig


def test_tampered_message_rejected(scheme):
    kp = keygen(b"\x02" * 32, scheme)
    rng = random.Random(5)
    for _ in range(50):
        message = rng.randbytes(rng.randint(1, 64))
        sig = sign(kp, message)
        flipped = bytearray(message)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        assert not verify(kp.public, bytes(flipped), sig)


def test_foreign_key_rejected(scheme):
    rng = random.Random(9)
    for _ in range(30):
        a = keygen(rng.randbytes(32), scheme)
        b = keygen(rng.randbytes(32), scheme)
        message = rng.randbytes(24)
        assert not verify(b.public, message, sign(a, message))


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
    with pytest.raises(ValueError):
        sign(KeyPair("unknown", b"\x00" * 32, b"\x00" * 32), b"m")


# --- the verify memo ---------------------------------------------------------


def _flip(data: bytes, i: int) -> bytes:
    out = bytearray(data)
    out[i] ^= 0x01
    return bytes(out)


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


def test_memo_repeated_calls_agree_and_hit(scheme):
    kp = keygen(b"\x06" * 32, scheme)
    good = (kp.public, b"m", sign(kp, b"m"))
    bad = (kp.public, b"m", Signature(scheme, _flip(good[2].data, 3)))
    assert verify(*good) and not verify(*bad)
    hits = verify.cache_info().hits
    for _ in range(3):
        assert verify(*_fresh(*good)) and not verify(*_fresh(*bad))
    assert verify.cache_info().hits == hits + 6


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
def test_malformed_ed25519_public_key_false_on_every_call(public, swap_backend):
    # On the selected backend, then on the fallback, whose key cache must never
    # keep a key that failed to load. The direct calls go past the verify memo.
    for backend in (crypto._ed25519(), crypto._Cryptography()):
        swap_backend(backend)
        sig = sign(keygen(b"\x09" * 32, SCHEME_ED25519), b"m")
        assert verify(public, b"m", sig) is False
        assert verify(public, b"m", sig) is False
        assert backend.verify(public, b"m", sig.data) is False
        assert backend.verify(public, b"m", sig.data) is False


# --- bulk calls ----------------------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` gives this process an affinity mask of ``k`` CPUs for the
    rest of the test."""

    def set_cpus(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_cpus


@pytest.fixture
def threads_started(monkeypatch):
    """The threads started from here on, in order."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def _threaded(scheme: str, cpu_count: int) -> bool:
    return scheme == SCHEME_ED25519 and crypto._ed25519().releases_gil and cpu_count > 1


@pytest.mark.parametrize("cpu_count", [1, 3])
def test_bulk_calls_give_the_per_item_results_in_order(scheme, cpus, threads_started, cpu_count):
    cpus(cpu_count)
    keys = [keygen(bytes([i + 20]) * 32, scheme) for i in range(3)]
    pairs = [(keys[i % 3], b"bulk %d" % i) for i in range(40)]
    signatures = crypto.sign_all(pairs)
    assert signatures == [sign(key, message) for key, message in pairs]
    triples = [(key.public, message, sig) for (key, message), sig in zip(pairs, signatures)]
    public, sig = keys[0].public, signatures[0]
    triples += [
        (public, b"bulk 0", Signature(scheme, _flip(sig.data, 5))),  # forged
        (keys[1].public, b"bulk 0", sig),  # another client's key
        (public[:31], b"bulk 0", sig),
        (public + b"\1", b"bulk 0", sig),  # HMAC pads a key with zeros: not b"\0"
        (public, b"bulk 0", Signature(scheme, sig.data[:-1])),
        (public, b"bulk 0", Signature(scheme, sig.data + b"\0")),
    ]
    verify.cache_clear()
    want = [verify(*triple) for triple in triples]
    assert want == [True] * 40 + [False] * 6
    verify.cache_clear()
    crypto.verify_ahead(triples)
    # Warmed only where threads pay; otherwise each verify below does the work.
    threaded = _threaded(scheme, cpu_count)
    assert verify.cache_info().currsize == (len(triples) if threaded else 0)
    assert [verify(*triple) for triple in triples] == want
    assert verify.cache_info().misses == len(triples)
    # Two of three chunks in a thread of their own, for each call.
    assert len(threads_started) == (4 if threaded else 0)


def test_bulk_sign_raises_in_the_caller_what_the_loop_raises(scheme, cpus):
    cpus(3)
    good = keygen(b"\x0a" * 32, scheme)
    short_secret = KeyPair(SCHEME_ED25519, b"\x01" * 31, good.public)
    unknown = KeyPair("unknown", b"\x00" * 32, b"\x00" * 32)
    # Chunks of four: a bad key at `at`, and maybe another in the last chunk.
    cases = [(0, short_secret, unknown), (5, short_secret, unknown), (2, unknown, short_secret)]
    cases += [(11, short_secret, None), (11, unknown, None)]
    for at, key, later in cases:
        pairs = [(good, b"m%d" % i) for i in range(12)]
        if later is not None:
            pairs[11] = (later, b"m")
        pairs[at] = (key, b"m")
        with pytest.raises(ValueError) as loop:
            [sign(k, m) for k, m in pairs]
        with pytest.raises(ValueError) as bulk:
            crypto.sign_all(pairs)
        assert str(bulk.value) == str(loop.value)


def test_bulk_calls_lose_nothing_on_more_threads_than_cores(sodium, swap_backend, cpus, threads_started):
    # Eight threads and a switch every microsecond: a lost memo update would
    # show as a second miss, a lost result as a wrong or missing signature.
    swap_backend(sodium)
    cpus(8)
    keys = [keygen(bytes([i + 40]) * 32, SCHEME_ED25519) for i in range(4)]
    pairs = [(keys[i % 4], b"stress %d" % i) for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        signatures = crypto.sign_all(pairs)
        triples = [(key.public, message, sig) for (key, message), sig in zip(pairs, signatures)]
        crypto.verify_ahead(triples)
    finally:
        sys.setswitchinterval(interval)
    assert signatures == [sign(key, message) for key, message in pairs]
    info = verify.cache_info()
    assert info.misses == info.currsize == len(triples) and info.hits == 0
    assert all(verify(*triple) for triple in triples)
    assert verify.cache_info().misses == len(triples)
    assert len(threads_started) == 14


@pytest.mark.parametrize("case", ["test_mac", "fallback", "one_cpu"])
def test_a_run_that_cannot_gain_starts_no_thread(case, swap_backend, cpus, threads_started):
    doc = families.config("pinned/ed25519_short")
    cpus(1 if case == "one_cpu" else 2)
    if case == "test_mac":
        doc["scheme"] = SCHEME_TEST_MAC
    elif case == "fallback":
        swap_backend(crypto._Cryptography())
    report = run_scenario(ScenarioConfig.from_dict(doc))
    assert report.all_checks_pass()
    assert threads_started == []


def test_a_libsodium_run_signs_and_warms_on_threads(sodium, swap_backend, cpus, threads_started):
    # 50 txs, one window: one worker thread signs, one warms the memo.
    swap_backend(sodium)
    cpus(2)
    run_scenario(families.load("pinned/ed25519_short"))
    assert len(threads_started) == 2


def test_no_client_triple_is_verified_twice(monkeypatch, cpus):
    # Windows of 16 submissions: every warmed verdict is read from the memo,
    # never evicted and verified again, and no router races the warm-up.
    monkeypatch.setattr(runner_module, "VERIFY_WINDOW", 16)
    cpus(2)
    memo, calls = verify, []

    def counting(public, message, sig):
        calls.append((public, message, sig))
        return memo(public, message, sig)

    _rebind(monkeypatch, memo, counting)
    memo.cache_clear()
    run_scenario(families.load("pinned/ed25519_short"))
    assert memo.cache_info().misses == len(set(calls))


# --- the two Ed25519 backends -------------------------------------------------

L = 2**252 + 27742317777372353535851937790883648493  # the prime order of Ed25519's base point


@pytest.fixture(scope="module")
def sodium():
    try:
        return crypto._Sodium(crypto._load_sodium())
    except OSError:
        pytest.skip("libsodium does not load on this machine")


OPENSSL = crypto._Cryptography()


def test_libsodium_is_selected_wherever_it_loads(sodium):
    assert crypto._ed25519().name == "libsodium"


def test_both_backends_pass_rfc8032_test1(sodium):
    # OpenSSL computes TEST 1's bytes itself, so this also checks the constants.
    assert crypto._passes_test1(sodium) and crypto._passes_test1(OPENSSL)


def test_backends_give_identical_keys_and_signatures(sodium):
    rng = random.Random(14)
    for n in range(100):
        secret = rng.randbytes(32)
        message = rng.randbytes(n * 3)  # 0 to 297 bytes
        public = sodium.public_key(secret)
        assert public == OPENSSL.public_key(secret)
        signature = sodium.sign(secret, message)
        assert signature == OPENSSL.sign(secret, message)
        assert sodium.verify(public, message, signature) and OPENSSL.verify(public, message, signature)


def test_backends_give_equal_verdicts(sodium):
    rng = random.Random(15)
    for _ in range(100):
        secret, other = rng.randbytes(32), rng.randbytes(32)
        public = OPENSSL.public_key(secret)
        message = rng.randbytes(rng.randint(1, 300))
        signature = OPENSSL.sign(secret, message)
        cases = {
            (public, message, signature): True,
            (public, _flip(message, rng.randrange(len(message))), signature): False,
            (public, message, _flip(signature, rng.randrange(len(signature)))): False,
            (_flip(public, rng.randrange(len(public))), message, signature): False,
            (OPENSSL.public_key(other), message, signature): False,
            (public[:31], message, signature): False,
            (public + b"\0", message, signature): False,
            (public, message, signature[:63]): False,
            (public, message, signature + b"\0"): False,
        }
        for (key, msg, sig), want in cases.items():
            assert sodium.verify(key, msg, sig) is want
            assert OPENSSL.verify(key, msg, sig) is want


def test_backends_reject_malformed_secrets_alike(sodium):
    for secret in (b"", b"\x01" * 31, b"\x01" * 33):
        for backend in (sodium, OPENSSL):
            with pytest.raises(ValueError):
                backend.public_key(secret)
            with pytest.raises(ValueError):
                backend.sign(secret, b"m")


def test_libsodium_rejects_a_small_order_public_key(sodium):
    # The all-zero key encodes a point A of order 4. With S = 0 and R = [j]A,
    # the plain equation [S]B = R + [k]A holds whenever j + k = 0 (mod 4),
    # k = SHA-512(R || A || M) mod L: a signature forged without any secret.
    # OpenSSL checks that equation alone and accepts it; libsodium refuses a
    # small-order key.
    zero = bytes(32)
    multiples = [b"\x01" + bytes(31), zero, bytes.fromhex("ec" + "ff" * 30 + "7f"), bytes(31) + b"\x80"]
    forged = []
    for n in range(64):
        message = n.to_bytes(2, "big")
        for j, r in enumerate(multiples):
            k = int.from_bytes(hashlib.sha512(r + zero + message).digest(), "little") % L
            if (j + k) % 4 == 0:
                forged.append((message, r + bytes(32)))
    assert forged
    for message, signature in forged:
        assert sodium.verify(zero, message, signature) is False


def test_libsodium_rejects_a_non_canonical_s(sodium):
    secret = bytes(range(32))
    public = sodium.public_key(secret)
    signature = sodium.sign(secret, b"m")
    s = int.from_bytes(signature[32:], "little")
    assert sodium.verify(public, b"m", signature)
    assert sodium.verify(public, b"m", signature[:32] + (s + L).to_bytes(32, "little")) is False


# --- falling back to ``cryptography`` ----------------------------------------


@pytest.fixture
def reselect():
    """The backend is chosen afresh inside the test and again after it."""
    crypto._ed25519.cache_clear()
    verify.cache_clear()
    yield
    crypto._ed25519.cache_clear()
    verify.cache_clear()


def _refuse_to_load():
    raise OSError("libsodium.so.23: cannot open shared object file")


_real_load_sodium = crypto._load_sodium


def _miscomputing_sodium():
    """The real library, except that every signature comes out one bit off."""
    lib = _real_load_sodium()
    sign_detached = lib.crypto_sign_ed25519_detached

    def wrong(signature, length, message, size, secret):
        done = sign_detached(signature, length, message, size, secret)
        signature[0] = bytes([signature.raw[0] ^ 1])
        return done

    class Miscomputing:
        def __getattr__(self, name):
            return getattr(lib, name)

    fake = Miscomputing()
    fake.crypto_sign_ed25519_detached = wrong
    return fake


def test_a_miscomputing_library_fails_test1(sodium):
    # The wrapper loads and initialises; only the known answer gives it away.
    assert not crypto._passes_test1(crypto._Sodium(_miscomputing_sodium()))


def _run_outputs(tmp_path, name) -> dict:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(families.config("pinned/ed25519_short")))
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("loader", [_refuse_to_load, _miscomputing_sodium], ids=["no_library", "wrong_answer"])
def test_fallback_writes_the_same_run(sodium, reselect, monkeypatch, tmp_path, loader):
    on_sodium = _run_outputs(tmp_path, "libsodium")
    assert crypto._ed25519().name == "libsodium"
    crypto._ed25519.cache_clear()
    verify.cache_clear()
    monkeypatch.setattr(crypto, "_load_sodium", loader)
    assert crypto._ed25519().name == "cryptography"
    assert _run_outputs(tmp_path, "fallback") == on_sodium


# Runs in a fresh interpreter: this test process has long since loaded both
# Ed25519 backends through the tests above.
_LAZY_BACKEND_SCRIPT = """
import sys
import tempfile
from pathlib import Path

from shardbft import crypto
from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
from shardbft.crypto import SCHEME_ED25519, Signature, keygen, sign, verify
from shardbft.sim.report import report_to_json
from shardbft.sim.runner import run_scenario
from shardbft.sim.scenario import ScenarioConfig


def loaded():
    maps = Path("/proc/self/maps").read_text()
    return {"cryptography": "cryptography" in sys.modules, "libsodium": "libsodium" in maps}


cfg = ScenarioConfig.from_dict({"duration": 0.5, "tx_rate": 40})
report = run_scenario(cfg)
assert cfg.scheme == "test_mac" and report.all_checks_pass() and report_to_json(report)
party = min(report.ledgers)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ledger.bin"
    write_ledger(path, report.ledgers[party])
    blocks = read_ledger(path, cfg.scheme)
assert blocks and verify_ledger_blocks(blocks, report.party_keys, cfg.n_parties, cfg.f)[0]
assert loaded() == {"cryptography": False, "libsodium": False}, f"a test_mac run loaded {loaded()}"

kp = keygen(bytes(32), SCHEME_ED25519)
selected = crypto._ed25519().name
assert loaded() == {"cryptography": selected == "cryptography", "libsodium": selected == "libsodium"}, loaded()
sig = sign(kp, b"m")
assert verify(kp.public, b"m", sig)
assert verify(kp.public, b"n", sig) is False
assert verify(b"\\x01" * 31, b"m", sig) is False
assert verify(kp.public, b"m", Signature(SCHEME_ED25519, bytes(64))) is False
assert loaded() == {"cryptography": selected == "cryptography", "libsodium": selected == "libsodium"}, loaded()
"""


def test_test_mac_run_never_loads_the_ed25519_backend():
    src = str(Path(shardbft.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_BACKEND_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
