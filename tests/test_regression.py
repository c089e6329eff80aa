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
    "bogus_short": _bogus_short,
    "withhold_short": _withhold_short,
}

# sha256 of every file `shardbft run` writes, recorded when batchers began
# submitting each share and complaint once, straight to the total order: the
# one-hop path shifts the seeded link-delay stream (keys.json is as before).
GOLDEN = {
    "baseline": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "4c10b888b0cb76163887e43e3f7f34264c7e2e168d082abbfbd0810e94e9b9a0",
        "ledger_party1.bin": "a6db7f707ef5655fafbfdff47e4bf8541c5c8e6b63c412ae6911abc28a0a4d4e",
        "ledger_party2.bin": "74652ef2923ca8b92d1e1c340c66d484a5dfef3df4c7f323a9529fc928c08cf7",
        "ledger_party3.bin": "774743a68cc5d31033bcc823522f86a6ded0cf3d4b9263b4efb0e7c8a0f6ff9e",
        "report.json": "5ce26013ed19c156c2447cf30d19b83051f8d773f38fc5cf1ab1a2b21f771abe",
        "series.csv": "e735b1043d1ef8444b837966690c3c648b85138334c6328732c14ddda3c50d2c",
    },
    "censorship": {
        "keys.json": "d706ce51eb146cdb1a0a9c48618efebc7cdf60ad8648f4f75e0a0f182c1f0abc",
        "ledger_party1.bin": "df64dbe8b5268bc69533d63d4197df8f0ec1320171c6458733a4bf4392b9069a",
        "ledger_party2.bin": "0e1799f06c41fcc287945a8d693e1d38cb5afb63ee30cf77d72f2eafdcf9886b",
        "ledger_party3.bin": "14d59145b7f227c2c5401e1c9f2d0f5f1eb071992678b68091526a3ec5dee8b9",
        "report.json": "4e47f7a9e1877555a8b08e88879323e9eca0b034484b0ce6cc8bdf4118d88b80",
        "series.csv": "71fe5dcbb5ef9103cc591286b1215a3eb4d4cac1fa4d12264eb981caf8af2538",
    },
    "failover": {
        "keys.json": "d70ef3aa1a46a60f0a09910258112568830bdbc47f76241e0e68c552dc3d244d",
        "ledger_party1.bin": "c6e89f0b681a3b1ec9d0a11ef06fda005870ed1f24925db324c0d066ee1d0d6d",
        "ledger_party2.bin": "c6e89f0b681a3b1ec9d0a11ef06fda005870ed1f24925db324c0d066ee1d0d6d",
        "ledger_party3.bin": "c6e89f0b681a3b1ec9d0a11ef06fda005870ed1f24925db324c0d066ee1d0d6d",
        "report.json": "14b0413b22b5a3bbe693583f718429e22a870abccb976a636570a250d36a20b9",
        "series.csv": "afe17aa8173e0bd19464603eb88c105cde3d1e7697a7e6502538066c662dc306",
    },
    "ed25519_short": {
        "keys.json": "c3a878cd67b6f43e72f0c2112d2e66a7d1f3362d6f9bf291450ee3402c34080e",
        "ledger_party0.bin": "0f50edc678a017d3fbdfc369d93b3b0cad392c870d7d409b3bc79848e9c69c94",
        "ledger_party1.bin": "53d32d233e9d78d84aa89547ca80d1b3a86bf7e335d076e887548a6b70c52aaf",
        "ledger_party2.bin": "b13450969ca19c758b82c5087b082fa8156a827c1417345aa9dc1e2a613eff1e",
        "ledger_party3.bin": "3c1f4a23558bc6c84b4104605e802aa90636fd514c432a71a5dc35fa385b245b",
        "report.json": "d3f79dafd020de7f494d55cba93502989cd830ee1b3ec14962ddb0c12d62e76d",
        "series.csv": "70abd226a455541156bb9c71a0d6ec48d9461649ec1e950581e2e54e92d4619f",
    },
    "ordering_short": {
        "keys.json": "158ffa11e8285c4f3fbd9fbab16bc581beaca0d383c16120a9c86b74d509baf5",
        "ledger_party2.bin": "026e903b14f8886e2b624e38d29c9848f98936c84beeb80447aefb140be6a11d",
        "ledger_party3.bin": "d1ecbd112b094095de5662f96c550ecb2dce54114c446bdb2d183ddb2461e3dd",
        "ledger_party4.bin": "edecd5d1a1290dc1680545a9b711aec6d6488719b2849bdc1cea1b59b9ae3b67",
        "ledger_party5.bin": "66874a98630da33d8296f2fe2bd094127ba85ff528baaab319312498d8e189a4",
        "ledger_party6.bin": "5c5a924e9e5b8ee78f229d44cf59452479a4f2f679904b8e38bc0c7147bc3abd",
        "report.json": "526e6d59b2bd47174be015c7c4b28f72bf92f3436a86ed79bf918c15213b37e5",
        "series.csv": "f56dc3b9f648aa1e951d23e809d2737d7a7399091a5e044a2f67e702749b0c67",
    },
    "late_gst": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "72a870df4e17961f24b22ff4656c7e16bff975140e9736567b0314e3978ec72e",
        "ledger_party1.bin": "d23eb0fcd4ca8cf2cd39ac0cc72cd2a7029ef0ddf971bbacb22895fd6ef57c9b",
        "ledger_party2.bin": "efe1d84d57fd87fce4e336a1e3d36c81cdabd9af8730088e2d3608e7d2a4cf07",
        "ledger_party3.bin": "264ba6967cae4a8cdb1b0fea66ecda965040a3fbbe99602d2a7b4aa5180d96f1",
        "report.json": "e5c40bbee896a85c8eb8db2a8c4c6fd3238b4aa44598d5b621a504aea7ecfbf3",
        "series.csv": "bc03a4ff4525b7911229e5f0d978ca4c88d2ba18a0b5fe410674127e0b5cf467",
    },
    "bogus_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party2.bin": "7fe7588186946824a3c4c44e47ddc9152b4d884d955ff4361aae4c4fb8b45209",
        "ledger_party3.bin": "60c0e853a4b766ab0f041cfff1ad606c16482198f91e0cf3bc84828e034aa2da",
        "ledger_party4.bin": "d1de048d2303374167e3e15521f54178d56fa4552dffac40b3ec4b40c3bbf6f6",
        "ledger_party5.bin": "c078094ac638243ff4b2256ad38c6461371d2bc8e3ef006335e9a9088020e141",
        "ledger_party6.bin": "380ac69a713ecf344ac8822456df2954d1deca6df3c9119acf449913332581c4",
        "report.json": "9c3a8fa9db107e490fb7e92947e1203007bdacabc5eab008662edb46633ca3fe",
        "series.csv": "35e5683b38fa886e8fa6b5e74c47d6aa6227960b78e6da3c359e980574d34302",
    },
    "withhold_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party0.bin": "9030c8d515a6fde79d00b1bb647ca9470835f0f2c72673c32690b7807b931b72",
        "ledger_party3.bin": "c0a2b0642e20a53e2a50f4226a77a896e67cfcf967e93752f16e841bc81527dc",
        "ledger_party4.bin": "9bec874b3d3f2bf635077fedde7755940f2939feeb8d35384483b0ace829b9dc",
        "ledger_party5.bin": "bed52bb5eb01b93d982ce170c7fa296c83866e742dc4f941976e1458ce5ac480",
        "ledger_party6.bin": "26d813ae60be2992f420482a99ff80b41cf599baac9838823f143972bc88521e",
        "report.json": "4d4d758d9f40c3e965dbedad22fa9ae8f270db9717eb44e314b25947ffee71a4",
        "series.csv": "ff5a7ffe26372d3cbba17771910fa8a2ae81b99ed1bc3a1263ccc1e7ccafc091",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_artifacts_match_golden_digests(name, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIOS[name]()))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
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


# Recorded when batchers began submitting straight to the total order, as
# GOLDEN was.
GRID_DIGEST = "36cf33f648e6e413312de6cfca25c5719f5d724fc0110a4f4920868753bcda47"


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
    # arrivals were held back from the heap. Re-pinned from 9,481 when each
    # share became one submission to the total order instead of 4 sends to
    # the consensus nodes and up to 4 forwards: the 152 shares are 152
    # events, not 1,214 (-1,062). The shifted delay stream makes 30 blocks,
    # not 32: 24 header shares, 8 published headers, 28 round deliveries, 8
    # round ticks and 22 bucket ticks fewer (-90). 9,481 - 1,152 = 8,329.
    assert sum(runner.send_seq.values()) == 8329
    submissions = cfg.resolved_tx_count() * cfg.n_parties
    assert 0 < peak[0] < submissions
    # Distinct objects behind those events: a relay passes on the object it
    # got, and a share, complaint or batch goes out as itself. From 3,493,
    # the same 30-block run takes 8 header shares, 8 published headers, 7
    # rounds, 8 round ticks and 22 bucket ticks (-53).
    assert len(pushed) == 3440


def test_every_message_class_is_sent():
    # A message class that nothing sends is dead code; failover sends them all.
    runner = _Runner(ScenarioConfig.from_dict(SCENARIOS["failover"]()))
    sent = set()
    _observe_pushes(runner, lambda message: sent.add(type(message)))
    runner.run()
    defined = {c for c in vars(msg).values() if is_dataclass(c) and c.__module__ == msg.__name__}
    assert len(defined) > 10 and not defined - sent, defined - sent


def test_no_node_mutates_a_message_once_sent():
    # Longer than ordering_short, so that more than 10,000 messages are checked.
    runner = _Runner(ScenarioConfig.from_dict(dict(_ordering_short(), duration=1.3)))
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
    events = {}  # id -> share or complaint a batcher submitted, held so ids stay unique
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
        elif dest == d.sequencer:  # a batcher submits each share or complaint once
            assert sender in batchers and isinstance(message, (core.BatchAttestationShare, core.ComplaintVote))
            assert id(message) not in events
            events[id(message)] = message
            relayed[type(message).__name__] += 1
        elif sender in batchers and isinstance(message, core.Batch):
            assert dest == d.assembler[nodes[sender].party] and message is nodes[sender].ledger[-1]
            stored[sender].append(message)
        send(sender, dest, message)

    runner.network_send = observe
    runner.run()
    assert all(relayed[name] > 100 for name in ("SubmitTx", "SubmissionReply", "BatchAttestationShare"))
    assert relayed["ComplaintVote"] > 0
    for nid in batchers:
        assert [id(b) for b in stored[nid]] == [id(b) for b in nodes[nid].ledger]
