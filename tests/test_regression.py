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

# sha256 of every file `shardbft run` writes, recorded when consensus
# stopped notifying a batcher of a round that decided nothing for its shard:
# the fewer sends shift the seeded link-delay stream (keys.json is as before).
GOLDEN = {
    "baseline": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "aebb45528812673f5056b094e7f74700c8aa631eb14cf32b559f3c04b187ca90",
        "ledger_party1.bin": "25d9651f017a3146839f838b7298bd81acceed9c3ed71534fdb76ff2a6b5b357",
        "ledger_party2.bin": "52687a6452374689bbeff3552b08b0010922b8c43ed3c2dc0d6de7d314946cc5",
        "ledger_party3.bin": "8f2be660a844b39735f9be734d5057405e3ea6ea29852f2d330193e86fa98b70",
        "report.json": "416336f988e8b529a4d306f59fb0a68936fb60924358e5bc965379a71c434c32",
        "series.csv": "04a47646c62c456fe446c5c74571ba6a7d932e9caa1ab1d337a07fea141ae0ce",
    },
    "censorship": {
        "keys.json": "d706ce51eb146cdb1a0a9c48618efebc7cdf60ad8648f4f75e0a0f182c1f0abc",
        "ledger_party1.bin": "624b80573b0334891e12663ab5d6485689c5d7128f6dec75c62a4e529e4bc0ea",
        "ledger_party2.bin": "f10a710a4220dcc1a8b39850b4638cebd8da570fe13b5db986d4070e3796dfd2",
        "ledger_party3.bin": "678f5bf64cacebd04b05db6a3b7ee5449a6eb31dbb25d6cddc88065b10eca094",
        "report.json": "66e71fd0a192c06052d8f9449de480e02b2494797a0fbf939de650b8ba1367fa",
        "series.csv": "b4533146a71e2ea1cc692b0d9d68c0c8b63dc4d25cd74594aa558bd879adb511",
    },
    "failover": {
        "keys.json": "d70ef3aa1a46a60f0a09910258112568830bdbc47f76241e0e68c552dc3d244d",
        "ledger_party1.bin": "52d736d0b8d8d5fcb7ae8ad936c5de9d582203819e48c895c3a3c7b7b347241d",
        "ledger_party2.bin": "52d736d0b8d8d5fcb7ae8ad936c5de9d582203819e48c895c3a3c7b7b347241d",
        "ledger_party3.bin": "52d736d0b8d8d5fcb7ae8ad936c5de9d582203819e48c895c3a3c7b7b347241d",
        "report.json": "537fc302ce74aebb17e77d098eee7d0d75e3a65fd152b9f1ca69204a71dab004",
        "series.csv": "aeea89915bf90afc3a514bd31610eb0ca50a8e577872402128957d980e90ec39",
    },
    "ed25519_short": {
        "keys.json": "c3a878cd67b6f43e72f0c2112d2e66a7d1f3362d6f9bf291450ee3402c34080e",
        "ledger_party0.bin": "f81268f04e84ecefe6940f1b5f9270ba330d69d79816bf2dd088b733d998633c",
        "ledger_party1.bin": "1b8f4cc155ee8b21919e93b77dc92bbf3380a9a88f1fa9f6cbf7c2c659cec149",
        "ledger_party2.bin": "52f57ff6095c0190f2a1e3d201446d293ba27b814e761d9c2d82f0bade4e1e8f",
        "ledger_party3.bin": "cb1e1fe1b339f5bfb0ac0de1469cf275c7334c646828bf25f11c4d1fe3be610f",
        "report.json": "f15d69b03a881f6e5012b86a1778f812156fd274a1a9a9b9fbfc7618d3f0a19a",
        "series.csv": "86d492aa5df8488efdb68a0de621094a6c96ce46ca00c56229c5b888900ff584",
    },
    "ordering_short": {
        "keys.json": "158ffa11e8285c4f3fbd9fbab16bc581beaca0d383c16120a9c86b74d509baf5",
        "ledger_party2.bin": "c7aaf318bf8506b460da7196e8c8f21964048299aa755a858e57a1dabc710882",
        "ledger_party3.bin": "24d56bcbe9d7b7af502662aa450c89f776b8b7cc3cacda0c07571deb7dbf6de7",
        "ledger_party4.bin": "bfca9354ac9763d105b6b194922ea6843a87068d32d8e9d50e0b25b6c765ab06",
        "ledger_party5.bin": "6e00e78069d35bc262500458532fdf05740cc8f9a22b4d306886d883c23ffa61",
        "ledger_party6.bin": "21f4eda903bce46f9eda60380bbba4c1c1994d5c605117e61e352633305e0448",
        "report.json": "da385950d1629f9dd7d5a20f58e853f1c97be2121dae96538f5194f25b896d66",
        "series.csv": "f237dd4a77e1488a3ac00c0542bc8c2d04f3626e1b9ca7bf086c161618f068ad",
    },
    "late_gst": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "1ed9358ddb7e147be8de7eb3626862e56b6522ac696354ee59290d7b66fd0978",
        "ledger_party1.bin": "9a7b36e5bb8680eb9544297e9b941b5422b8480916333eaa59e12bfe3790f4fa",
        "ledger_party2.bin": "5f3b19a33650d79a4abf614519867e210ced53b6cc2f885fdaf2e2752ecf93ca",
        "ledger_party3.bin": "843f74323c7ffa5fafb113a27836caf38dca005338c9855db79570add3e183d8",
        "report.json": "8d5edc47851b28f8d7160d9fbc8e6fe4814ccbada4566e12d612abf7d358ae41",
        "series.csv": "0be50ffa960b82ddb2595207bf3dbeaab622e67605caab14bb6394cef8affd79",
    },
    "lossy": {
        "keys.json": "e1d82b639313285163f455ba185b4412eb704ce542a317b00fefbd49ba9440e1",
        "ledger_party0.bin": "9f3395548cd19a855d3442738d710c64f7f597adc5d1e3f4eb2a86fa2286ec53",
        "ledger_party1.bin": "9f3395548cd19a855d3442738d710c64f7f597adc5d1e3f4eb2a86fa2286ec53",
        "ledger_party2.bin": "32b2d992dfa2db0388b9101e8ba3886d5ccc5656eea17007c075500a054d60c5",
        "ledger_party3.bin": "9f3395548cd19a855d3442738d710c64f7f597adc5d1e3f4eb2a86fa2286ec53",
        "report.json": "829289a9273c80917722ccff1fb45610788971b2373b7a88fb320484f0e0682d",
        "series.csv": "aec0392efe5f5deac1403e04ce2ea809c38673f6fea2e2b1f43fc17f91a8a6dd",
    },
    "bogus_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party2.bin": "1c60b901b9f1419cb7a4804ae68e84fca5938545e39b95638cc977e94d2bbd98",
        "ledger_party3.bin": "aaacf81f425327a947cef7ea53236cea5ef9a3cdc2f960c599b86b34cf5adb7d",
        "ledger_party4.bin": "04874e5818bd3a03164fcdbed5ed636749ff6f8a51acf9732d83e83e8229d5a2",
        "ledger_party5.bin": "1bf3e0f20ca459cbacaf6cb21817a9672c5eef71ad6129c6a049267b7c8d01b3",
        "ledger_party6.bin": "0447c5524d66ef270fe3a315fd337623b03d47874e3ffefa023f56ea63d3e87c",
        "report.json": "ad6bc5ff1a54116f7fd0866fc66280ff6b39910fae767d0904887b78b46cf252",
        "series.csv": "35b763e05e1f825aed70be7e39ca08025a277821b2c24d54fa0b9f598837f91a",
    },
    "withhold_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party0.bin": "e35144d1ae9e1403962a9bbc27a1f0b07137bfbd1ad9d28ab9016a46a0b41e56",
        "ledger_party3.bin": "c7799a783e0c5aee479df9ec375c0998373ee84feccb84f0039df1d4eb1fc8d3",
        "ledger_party4.bin": "060f61e6871ed521839a7bcd32e3a7a94b484a741f6e3a15bc16e135929fe991",
        "ledger_party5.bin": "eccf669ba094e1e8ba26d52cc834f9b6aa9c1074191a1425c4d0af50f9b57138",
        "ledger_party6.bin": "6198038a5c8876194a7faaf17af001cd17fe5b6f1888b7f389181a53dacc24b2",
        "report.json": "20280714a77a16c93ee5cbad2060f96daecad0452e4c8eed48eeadc82a36e318",
        "series.csv": "3aea391b8491eb6e9cf15846f2327c43dd22886325f810e9ce6487900837bfc5",
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


# Recorded when consensus stopped notifying a batcher of a round that
# decided nothing for its shard, as GOLDEN was.
GRID_DIGEST = "5ac4f35ebb63c25653f0c722c68eab3a662a75ab51a0f86f4a6e922cec286a49"


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
    assert len(pushed) == 3495


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
