"""Regression guards that need no timing: call counts and golden digests.

The digests pin the exact bytes `shardbft run` writes for each shipped
config and for a few short scenarios that reach paths those do not. A change that only makes the
simulator faster must leave every one of them as it is; a change that is
meant to alter behaviour updates them and says why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter
from dataclasses import fields, is_dataclass
from itertools import chain
from pathlib import Path

import pytest

from shardbft import core, crypto, router
from shardbft import messages as msg
from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
from shardbft.behaviors import BEHAVIOR_KINDS, CENSOR_TX, CRASH
from shardbft.cli import main
from shardbft.router import REASON_BAD_SIGNATURE, REASON_MALFORMED, REASON_UNKNOWN_CLIENT
from shardbft.sim.report import report_to_json
from shardbft.sim.runner import _Runner, run_scenario
from shardbft.sim.scenario import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _ed25519_short() -> dict:
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc.update(scheme="standard_signature", duration=0.5, tx_rate=100.0)
    return doc


def _ordering_short() -> dict:
    # Same-slot keys of an equivocator, term changes and the pre-GST delay
    # branch: the ordering paths the shipped configs do not reach.
    doc = json.loads((CONFIGS / "censorship.json").read_text())
    doc.update(
        parties=7,
        faults=2,
        shards=3,
        duration=1.0,
        tx_rate=200,
        gst=0.5,
        seed=11,
        adversaries=[
            {"party": 0, "kind": "censor_tx", "censor_clients": [0]},
            {"party": 1, "kind": "equivocate_batch"},
        ],
    )
    return doc


def _late_gst() -> dict:
    # Every arrival is acked after `duration`, so goal checks run while
    # client arrivals are still held back from the event heap.
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc.update(duration=0.3, gst=0.6, tx_rate=1000)
    return doc


def _lossy() -> dict:
    # All traffic to party 2 is dropped after GST: the loop's lossy filter.
    return {
        "parties": 4,
        "faults": 1,
        "shards": 2,
        "seed": 9,
        "clients": 4,
        "tx_rate": 100.0,
        "tx_size": 32,
        "duration": 1.0,
        "delta": 0.2,
        "tob_delay_bound": 0.3,
        "latency": {"base": 0.002, "jitter": 0.008},
        "protocol": {
            "max_batch_size": 50,
            "max_batch_latency": 0.1,
            "round_interval": 0.02,
            "t_forward": 0.3,
            "t_complain": 0.3,
            "bucket_period": 0.05,
        },
        "drain": 3.0,
        "lossy_party": 2,
    }


def _adversarial_short(adversaries: list) -> dict:
    doc = json.loads((CONFIGS / "censorship.json").read_text())
    doc.update(
        parties=7, faults=2, shards=2, duration=1.0, tx_rate=200, seed=13, adversaries=adversaries
    )
    return doc


def _bogus_short() -> dict:
    # Bogus batches and a false complaint: two term changes and the
    # validity check.
    return _adversarial_short(
        [
            {"party": 0, "kind": "inject_bogus", "bogus_fraction": 0.5},
            {"party": 1, "kind": "false_complaint"},
        ]
    )


def _withhold_short() -> dict:
    return _adversarial_short(
        [{"party": 1, "kind": "withhold_bas"}, {"party": 2, "kind": "silent_secondary"}]
    )


SCENARIOS = {
    "baseline": lambda: json.loads((CONFIGS / "baseline.json").read_text()),
    "censorship": lambda: json.loads((CONFIGS / "censorship.json").read_text()),
    "failover": lambda: json.loads((CONFIGS / "failover.json").read_text()),
    "ed25519_short": _ed25519_short,
    "ordering_short": _ordering_short,
    "late_gst": _late_gst,
    "lossy": _lossy,
    "bogus_short": _bogus_short,
    "withhold_short": _withhold_short,
}

# `shardbft run` exits 1 for a run that loses acked txs or is not quiescent.
EXIT_CODES = {"lossy": 1}

# sha256 of every file `shardbft run` writes, recorded when the sequencer
# stopped deduplicating across rounds: the repeats it now orders shift the
# seeded link-delay stream (keys.json is as before).
GOLDEN = {
    "baseline": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "51445d7219c0aa74b2d7237b565b2f524c301e6a8178d2aac5cd51caa9083b2a",
        "ledger_party1.bin": "04287ce9643e7aeafafb59036d402523679c525fae34bfeb6d2ddef6fa39b344",
        "ledger_party2.bin": "931aea1de677d6fed17dbb447c6bdf4d995a62f8dfd3d374cfd2a4b65d3e41b3",
        "ledger_party3.bin": "da275d87ce2350c11bd33bc1a70e75a60bdac2b28ffa8dfd80f568ee1f69b6df",
        "report.json": "f5974c6ff7788a5dd59c8a35b63f662ea2bbafd837450a567b6b58341fa436d4",
        "series.csv": "5639ee3c21931c5a80d1045a883895a6757a2eddd72672630b00b6860a15d734",
    },
    "censorship": {
        "keys.json": "d706ce51eb146cdb1a0a9c48618efebc7cdf60ad8648f4f75e0a0f182c1f0abc",
        "ledger_party1.bin": "2f8959012e960156b5b330276c6d50f7c860ecba4080847a51dd964b602c5c1f",
        "ledger_party2.bin": "822ebcb7b85292809ad0c404703e1ac0b83c91e9438af857434870c5b92b3e0c",
        "ledger_party3.bin": "264a00bffad4bff43bf09e2cf2ba4e5ab6ccf0019d3943c2731ec3c6147ccd62",
        "report.json": "f4eca44d37b7366c9695ee626cb953c456524c88b13e445d6ebb5660eb75d080",
        "series.csv": "41dd9bcce2f9663d1635dd5bd25d2659dd8d4d71a23dbd70ed019d579b784b8f",
    },
    "failover": {
        "keys.json": "d70ef3aa1a46a60f0a09910258112568830bdbc47f76241e0e68c552dc3d244d",
        "ledger_party1.bin": "d8c0dd876bb2c62f44c945551fc22b481f089e2947fef94015663c49a82365b0",
        "ledger_party2.bin": "d8c0dd876bb2c62f44c945551fc22b481f089e2947fef94015663c49a82365b0",
        "ledger_party3.bin": "d8c0dd876bb2c62f44c945551fc22b481f089e2947fef94015663c49a82365b0",
        "report.json": "ae946696dd5cb47a16823397954ccecfd796146985218857af643d0502dbfa52",
        "series.csv": "05b6f5769b3b4f5bb711d5e0e047eb97cd8aed98f68cc0bc743e2760432f890e",
    },
    "ed25519_short": {
        "keys.json": "c3a878cd67b6f43e72f0c2112d2e66a7d1f3362d6f9bf291450ee3402c34080e",
        "ledger_party0.bin": "d3d95717d457e5ce8ad19faf218c66b9466889c02db7df69abcca9df690f18ce",
        "ledger_party1.bin": "4edb1569c914d106b3f89210e56347d36167c8bc32c5a958c2667c5572acd985",
        "ledger_party2.bin": "27532e9e2da460f22df815d209ddc9a79da7cf4334f8b4b02ab58e70ba9937ce",
        "ledger_party3.bin": "693e4e275c0495fb063fdf4931d357cb01575f80cc7b63474277134a445a501f",
        "report.json": "c39f4106c334ad7f86b3349ae1505a52e39ad74cc912ec0e299f8ad5219acfa1",
        "series.csv": "96d5d8e56277f24ddf4a072af96fbac3ad26990a0a33af00010ab5be0d55d9b4",
    },
    "ordering_short": {
        "keys.json": "158ffa11e8285c4f3fbd9fbab16bc581beaca0d383c16120a9c86b74d509baf5",
        "ledger_party2.bin": "c75310e4442c7971a216dfa8a78242d26aefaf1ae70a5034f14542c509037c60",
        "ledger_party3.bin": "23fa02c29c19cd03147f96ca3410b59f87854ce876c00ddd3e64d6c689cb170c",
        "ledger_party4.bin": "c9dd8f59017166d34547006a59c165edde757b7dfae64f7eff6df695163b4a6b",
        "ledger_party5.bin": "cf78dfdb8f9e8f7b81f3a0bc15290e3700432e97558df27371ea61d42b946326",
        "ledger_party6.bin": "49fbd9734a4d27703d91fe4332e52afd4f810c87a8d5697ba01934858628301b",
        "report.json": "bb913b0b6f89cd01c0c03f0bd8a9d300349427dc3f52bf30e4a89ce3a998ccea",
        "series.csv": "9a9744b92c6287e19d5f5b683ce918d25f42bd515b6821acd57adc4b94e59b46",
    },
    "late_gst": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "7e149b8411d65145f310c3b152187080c4438621ac06723a6e993d1c76fd334d",
        "ledger_party1.bin": "c8a1bd40a00fb6309fd86b78c86d50091f162fcc2e88ebb35502c79874ba87d9",
        "ledger_party2.bin": "c8a1bd40a00fb6309fd86b78c86d50091f162fcc2e88ebb35502c79874ba87d9",
        "ledger_party3.bin": "8fc3f829d7356b2263d0cd0c0d87b9446e72a36bd56acd13c34baf7414603ea4",
        "report.json": "226dd22a9258842432f56d99b379d8611f8b25b98623e172654b98bbac9a7708",
        "series.csv": "e1e2b803fdf46bf427788595e04c2daad8ae14f84ee62d079ceb32db763495e5",
    },
    "lossy": {
        "keys.json": "e1d82b639313285163f455ba185b4412eb704ce542a317b00fefbd49ba9440e1",
        "ledger_party0.bin": "33872047f5651c3d0df2afa78e3294bd3deb28390c1763d7af06805e0ee68bb8",
        "ledger_party1.bin": "33872047f5651c3d0df2afa78e3294bd3deb28390c1763d7af06805e0ee68bb8",
        "ledger_party2.bin": "32b2d992dfa2db0388b9101e8ba3886d5ccc5656eea17007c075500a054d60c5",
        "ledger_party3.bin": "33872047f5651c3d0df2afa78e3294bd3deb28390c1763d7af06805e0ee68bb8",
        "report.json": "132657bdb0c0f9e40064651c28d6bb7b08501859f46a61f7a27e8dd2c97a42f8",
        "series.csv": "05c3e6fbebe72b3638e96638190d9fbdbe4d337a0f944cdaf9dd491291eddbca",
    },
    "bogus_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party2.bin": "8ecca6d5ec4123d9721b9f18d1b544d3cbfe97786ac769e200e90516a8788847",
        "ledger_party3.bin": "30963ce89d398795913d8d80f6d176120a82d9ed179974561e71530354856355",
        "ledger_party4.bin": "75284d142ae9e0e2df5e6f787612d8bdf398347086a7a4c138eb1400d460113d",
        "ledger_party5.bin": "8d478b9c5dbd97b00b76b38ebfabbc3b3275080fcdd33ec0579013e12c771b43",
        "ledger_party6.bin": "736e239c7658835e06608c2b5cea63c25612e5479fcff54c7b9714c1f5e4f60a",
        "report.json": "17f950f93d3019fda6405ef0efdd5f0d7e7096a04be7580e8e7827f3982f6bef",
        "series.csv": "ee0a24048046f8f6d765145d67acfcfab119d15033170f60ccf466f1c4d0c044",
    },
    "withhold_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party0.bin": "7e207ae40a7fda96619fd3051f488c7808509383e2de95c67cbb29ab7e7f7bb8",
        "ledger_party3.bin": "1a098d7859ab38685b96cfa85bfac0ecc1e4d3f5d6619ef32cf6d60bd4e2e444",
        "ledger_party4.bin": "69d848b30933a705c68f441658ad61c9d8e61a657da0379b416fbcc44410ce86",
        "ledger_party5.bin": "8cd92e0f943d3ed73100ccb9c634eadc1d028662c27426487edd38b0d8bf17ab",
        "ledger_party6.bin": "5ba096c3c60440366ee94a2818f9d331670246d3af50a4363288be78d07ccd32",
        "report.json": "1ffe22e1781946c70a200c6cbcdd5067d3afba8734c024138feaf8b5cb99631c",
        "series.csv": "c5220a0e24b25d2373e3bacb719dc2cc8048af307a1a4b3510a83029c9d991a9",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_artifacts_match_golden_digests(name, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIOS[name]()))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CODES.get(name, 0)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[name]


def random_grid(rng_seed: int, count: int) -> list[dict]:
    """``count`` scenarios drawn from `configs/censorship.json` by a seeded
    generator: (N, F), 1-4 shards, rate, duration, GST and 0-F adversaries
    of any kind at distinct parties."""
    rng = random.Random(rng_seed)
    base = json.loads((CONFIGS / "censorship.json").read_text())
    docs = []
    for _ in range(count):
        n, f = rng.choice(((4, 1), (7, 2)))
        adversaries = []
        for party in rng.sample(range(n), rng.randint(0, f)):
            spec = {"party": party, "kind": rng.choice(BEHAVIOR_KINDS)}
            if spec["kind"] == CRASH:
                spec["crash_at"] = rng.choice((0.0, 0.25, 0.5))
            elif spec["kind"] == CENSOR_TX:
                spec["censor_clients"] = [rng.randrange(base["clients"])]
            adversaries.append(spec)
        docs.append(
            dict(
                base,
                parties=n,
                faults=f,
                shards=rng.randint(1, 4),
                seed=rng.randrange(1 << 20),
                tx_rate=rng.choice((100, 200, 400)),
                duration=rng.choice((1, 2)),
                gst=rng.choice((0, 0.5)),
                drain=5,
                adversaries=adversaries,
            )
        )
    return docs


def grid_digest(docs) -> str:
    """One sha256 over the `report.json` bytes of every scenario, in order."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(report_to_json(run_scenario(ScenarioConfig.from_dict(doc))).encode())
    return digest.hexdigest()


# Recorded when the sequencer stopped deduplicating across rounds, as
# GOLDEN was.
GRID_DIGEST = "b7dad06dc27f4d2cc6045f05f424ac788fc62aac09c45d20d5f6a3b1eeae6873"


def test_random_grid_reports_match_golden_digest():
    # All seven adversary kinds, alone and mixed, with and without GST, on
    # 1-4 shards at N=4 and N=7: combinations the pinned scenarios above
    # miss (among them a censor with GST > 0 and crashes at N=7).
    assert grid_digest(random_grid(20261018, 40)) == GRID_DIGEST


def _rebind(monkeypatch, original, replacement):
    """Rebind every module-level name for ``original``, wherever it was imported."""
    for name, module in list(sys.modules.items()):
        if name == "shardbft" or name.startswith("shardbft."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_verify_primitive_runs_once_per_distinct_triple(monkeypatch):
    memo = crypto.verify
    calls = []

    def counting(public, message, sig):
        calls.append((public, message, sig))
        return memo(public, message, sig)

    _rebind(monkeypatch, memo, counting)
    memo.cache_clear()
    run_scenario(ScenarioConfig.from_dict(_ed25519_short()))
    distinct = len(set(calls))
    info = memo.cache_info()
    assert distinct < crypto.VERIFY_CACHE_SIZE
    assert info.misses == distinct
    assert info.hits == len(calls) - distinct
    # Every party re-checks what the others checked: the memo must pay off.
    assert len(calls) > 3 * distinct


def test_ordering_payloads_are_encoded_once_per_object(monkeypatch):
    # Each share, complaint and header is encoded when it is built, and a
    # share or complaint once more where its batcher signs it. No node
    # encodes one again: 7 consensus nodes check every event twice.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    for name in ("encode_bas_payload", "encode_complaint_payload", "encode_header_payload"):
        _rebind(monkeypatch, getattr(core, name), counted(name, getattr(core, name)))
    for cls in (core.BatchAttestationShare, core.ComplaintVote, core.BlockHeader):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    signed = {b"\x42": 0, b"\x43": 0}
    sign = crypto.sign

    def counting_sign(keypair, message):
        if message[:1] in signed:
            signed[message[:1]] += 1
        return sign(keypair, message)

    _rebind(monkeypatch, sign, counting_sign)
    report = run_scenario(ScenarioConfig.from_dict(_ordering_short()))
    assert report.quiescent and report.all_checks_pass()
    assert calls["BatchAttestationShare"] == signed[b"\x42"] > 0
    assert calls["ComplaintVote"] == signed[b"\x43"] > 0
    assert calls["BlockHeader"] > 0
    assert calls["encode_bas_payload"] == calls["BatchAttestationShare"] + signed[b"\x42"]
    assert calls["encode_complaint_payload"] == calls["ComplaintVote"] + signed[b"\x43"]
    assert calls["encode_header_payload"] == calls["BlockHeader"]


def test_report_validates_txs_only_with_a_bogus_adversary(monkeypatch):
    # Without an inject_bogus party every committed tx passed its router's
    # check, so the report does not validate any again.
    validate = router.validate_transaction
    in_report, calls = [False], [0]

    def counting(tx, client_directory, max_tx_size):
        calls[0] += in_report[0]
        return validate(tx, client_directory, max_tx_size)

    _rebind(monkeypatch, validate, counting)
    for name, revalidates in (("baseline", False), ("bogus_short", True)):
        runner = _Runner(ScenarioConfig.from_dict(SCENARIOS[name]()))
        build = runner._build_report

        def observed(quiescent, build=build):
            in_report[0] = True
            try:
                return build(quiescent)
            finally:
                in_report[0] = False

        runner._build_report = observed
        calls[0] = 0
        report = runner.run()
        assert report.quiescent and report.all_checks_pass()
        assert (calls[0] > 0) == revalidates, name


def test_each_batch_is_encoded_once(monkeypatch, tmp_path):
    # The digest and every correct party's ledger file share one encoding.
    encode = core.encode_batch
    encoded = []

    def counting(batch):
        encoded.append(batch)  # holds each batch, so no id is reused
        return encode(batch)

    _rebind(monkeypatch, encode, counting)
    cfg = ScenarioConfig.from_dict(SCENARIOS["baseline"]())
    report = run_scenario(cfg)
    assert report.quiescent and report.all_checks_pass()
    for party, blocks in sorted(report.ledgers.items()):
        write_ledger(tmp_path / f"ledger_party{party}.bin", blocks)
    assert len(report.ledgers) == cfg.n_parties
    assert encoded and len(encoded) == len({id(batch) for batch in encoded})
    batches = {id(b): b for blocks in report.ledgers.values() for block in blocks for b in block.batches}
    assert batches.keys() <= {id(batch) for batch in encoded}
    for batch in batches.values():
        assert batch.encoded() == encode(batch)
        assert batch.digest() == core.sha256(batch.encoded())
        twin = core.Batch(batch.shard, batch.seq, batch.term, batch.primary, batch.txs)
        assert twin == batch and hash(twin) == hash(batch) and repr(twin) == repr(batch)
    for party in report.ledgers:
        blocks = read_ledger(tmp_path / f"ledger_party{party}.bin", cfg.scheme)
        assert verify_ledger_blocks(blocks, report.party_keys, cfg.n_parties, cfg.f) == (True, None, None)


def _observe_pushes(runner, observe):
    """Call ``observe(message)`` after every push, as the tracer wraps it."""
    push = runner.push

    def observed(t, sender, dest, message):
        push(t, sender, dest, message)
        observe(message)

    runner.push = observed


def test_event_count_and_heap_size_on_baseline():
    cfg = ScenarioConfig.from_dict(SCENARIOS["baseline"]())
    runner = _Runner(cfg)
    peak = [0]
    pushed = {}  # id -> message; holding each message keeps its id unique

    def track(message):
        peak[0] = max(peak[0], len(runner.heap))
        pushed[id(message)] = message

    _observe_pushes(runner, track)
    runner.run()
    # The count perfbench's host_events_per_s divides by, as before client
    # arrivals were held back from the heap.
    assert sum(runner.send_seq.values()) == 9481
    submissions = cfg.resolved_tx_count() * cfg.n_parties
    assert 0 < peak[0] < submissions
    # Distinct objects behind those events: a relay passes on the object it
    # got, and a share, complaint or batch goes out as itself to every peer.
    assert len(pushed) == 3493


def test_every_message_class_is_sent():
    # A message class that nothing sends is dead code; failover sends them all.
    runner = _Runner(ScenarioConfig.from_dict(SCENARIOS["failover"]()))
    sent = set()
    _observe_pushes(runner, lambda message: sent.add(type(message)))
    runner.run()
    defined = {c for c in vars(msg).values() if is_dataclass(c) and c.__module__ == msg.__name__}
    assert len(defined) > 10 and not defined - sent, defined - sent


def test_no_node_mutates_a_message_once_sent():
    runner = _Runner(ScenarioConfig.from_dict(_ordering_short()))
    sent = []

    def snapshot(message):
        sent.append((message, [getattr(message, f.name) for f in fields(message)]))

    _observe_pushes(runner, snapshot)
    schedule_clients = runner._schedule_clients

    def snapshot_arrivals():
        schedule_clients()
        for *_key, message in [*runner.heap, *runner.held_arrivals]:
            if message is not None:  # not the entry that feeds arrivals
                snapshot(message)

    runner._schedule_clients = snapshot_arrivals
    runner.run()
    assert len(sent) > 10_000
    for message, values in sent:
        assert [getattr(message, f.name) for f in fields(message)] == values, message


def test_routers_keep_no_state(monkeypatch):
    # A router's attributes are the same objects, with the same contents,
    # after every message it handles.
    def state(node):
        return {
            name: (id(value), value.copy() if isinstance(value, (dict, list, set)) else value)
            for name, value in vars(node).items()
        }

    handled = Counter()
    handle = router.RouterNode.handle

    def observed(node, message, ctx):
        before = state(node)
        handle(node, message, ctx)
        assert state(node) == before, type(message).__name__
        handled[type(message).__name__] += 1

    monkeypatch.setattr(router.RouterNode, "handle", observed)
    run_scenario(ScenarioConfig.from_dict(_ordering_short()))
    assert handled["SubmitTx"] > 1_000 and handled["SubmissionReply"] > 1_000


def test_protocol_objects_travel_as_themselves(monkeypatch):
    # A node passes on the object it received and sends a share, complaint
    # or persisted batch as the object it built, never a wrapper around it.
    runner = _Runner(ScenarioConfig.from_dict(_ordering_short()))
    d, nodes = runner.d, runner.nodes
    routers, batchers = set(d.router), set(chain.from_iterable(d.batcher))
    handling = {}  # router node id -> the message it is handling
    events = {}  # id -> share or complaint a batcher sent consensus
    stored = {nid: [] for nid in batchers}  # batches each batcher pushed to its assembler
    relayed = Counter()
    handle = router.RouterNode.handle

    def handle_and_note(node, message, ctx):
        handling[node.node_id] = message
        handle(node, message, ctx)

    monkeypatch.setattr(router.RouterNode, "handle", handle_and_note)
    send = runner.network_send

    def observe(sender, dest, message):
        if sender in routers:
            got = handling[sender]
            if dest == d.hub and message is not got:  # a reply to an invalid submission
                assert isinstance(got, msg.SubmitTx) and not message.ok
                assert message.reason in {REASON_MALFORMED, REASON_UNKNOWN_CLIENT, REASON_BAD_SIGNATURE}
            else:
                assert message is got and dest in (d.hub, *d.batcher[nodes[sender].party])
                relayed[type(message).__name__] += 1
        elif sender in batchers and dest in d.consensus:
            assert isinstance(message, (core.BatchAttestationShare, core.ComplaintVote))
            events[id(message)] = message
        elif sender in batchers and isinstance(message, core.Batch):
            assert dest == d.assembler[nodes[sender].party] and message is nodes[sender].ledger[-1]
            stored[sender].append(message)
        elif dest == d.sequencer:
            assert events[id(message)] is message
            relayed[type(message).__name__] += 1
        send(sender, dest, message)

    runner.network_send = observe
    runner.run()
    assert all(relayed[name] > 100 for name in ("SubmitTx", "SubmissionReply", "BatchAttestationShare"))
    assert relayed["ComplaintVote"] > 0
    for nid in batchers:
        assert [id(b) for b in stored[nid]] == [id(b) for b in nodes[nid].ledger]
