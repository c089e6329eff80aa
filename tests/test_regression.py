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
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from shardbft import core, crypto, router
from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
from shardbft.cli import main
from shardbft.sim.runner import _Runner, run_scenario
from shardbft.sim.scenario import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _ed25519_short() -> dict:
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc.update(scheme="standard_signature", duration=0.5, tx_rate=100.0)
    return doc


def _ordering_short() -> dict:
    # Ripe orphan keys, term changes and the pre-GST delay branch: the
    # ordering paths the shipped configs do not reach.
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

# sha256 of every file `shardbft run` writes, recorded before verify was
# memoized and tx_id cached (`ordering_short`: before the ordering payloads
# were cached; `late_gst` and `lossy`: before client arrivals were held
# back from the event heap; `bogus_short` and `withhold_short`: before the
# adversary types were merged and the pool carry-over was folded into one).
GOLDEN = {
    "baseline": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "27168759f71ff50ca8595279b561d910fca9c2bb3a2c3ae12a5395dd40be6dd8",
        "ledger_party1.bin": "161e872f3dfafb1ce3ae57cded0bf8d775d1874e87b6a7a7bb1e69a36299cbea",
        "ledger_party2.bin": "2bae87d1b4f5f6e2f8049e6a1f67c13c26a83c90675f5517269673e6a174d1c8",
        "ledger_party3.bin": "74d885d179524a529757b2cf17e5eebb3f51a8d766a05b4821c0ae4d7333fe83",
        "report.json": "9ee4cf98b742a0da81b93013a99a3d99fa5b68ea3f555dc6e5feb1e5d6c36086",
        "series.csv": "5365f31fa896db189e9e57ade31075f90a0f6702eb34a82810678c6f32506f04",
    },
    "censorship": {
        "keys.json": "d706ce51eb146cdb1a0a9c48618efebc7cdf60ad8648f4f75e0a0f182c1f0abc",
        "ledger_party1.bin": "798c84b4a75db8df787247f73b82b48c4559d806d408e03a7ca2fec3f735a39a",
        "ledger_party2.bin": "6f9ee11550b0c52a5a95921b19d9742979cc1c56fd04510d0464a892668c22e0",
        "ledger_party3.bin": "cb3ba50509580b3e7fe5e10709816d16e22f25c5390b03c55fc0b2aea47419b9",
        "report.json": "8f9f1f6842eae1d01b0b28e0734e302d5f7b7b280ca3d6f2b3b7abad4c438497",
        "series.csv": "9a061fea3e77aaf0d7a6bbb1ae565e529612b4f604b3710f1247d5e178e6d9d1",
    },
    "failover": {
        "keys.json": "d70ef3aa1a46a60f0a09910258112568830bdbc47f76241e0e68c552dc3d244d",
        "ledger_party1.bin": "52d736d0b8d8d5fcb7ae8ad936c5de9d582203819e48c895c3a3c7b7b347241d",
        "ledger_party2.bin": "52d736d0b8d8d5fcb7ae8ad936c5de9d582203819e48c895c3a3c7b7b347241d",
        "ledger_party3.bin": "52d736d0b8d8d5fcb7ae8ad936c5de9d582203819e48c895c3a3c7b7b347241d",
        "report.json": "2ac63ce4bda4df94cc5d95de113038a69503166889e652c2761516c2704759c5",
        "series.csv": "c31f18dda63c98f0cd10df723b75a36faf698d1c780a50c58b7b5df7a8cb29a5",
    },
    "ed25519_short": {
        "keys.json": "c3a878cd67b6f43e72f0c2112d2e66a7d1f3362d6f9bf291450ee3402c34080e",
        "ledger_party0.bin": "68c1fbf50a07beba7b616aecb00de17f105b79e403fb421b4e8ddf70abdcceee",
        "ledger_party1.bin": "e87227e3f5e6bb99120623b4152d04c702bf6e3f1aa079e37121b7af99250979",
        "ledger_party2.bin": "e9f86be5488cbb53f737505d2bcb2b0d9220cd28ad7baa208048a0aeda9ca520",
        "ledger_party3.bin": "30bfd086387184e2bcc74aecdf1d228bb4058b663cb38184867ed12debab69ec",
        "report.json": "adbbb5e6cec7fb336922e22c99177fab02c93b5279920445a2badbea1284f56e",
        "series.csv": "f849a943320d9223dc6b7a946cba8791ffe741c4e70fa02ca1feef8e077741f7",
    },
    "ordering_short": {
        "keys.json": "158ffa11e8285c4f3fbd9fbab16bc581beaca0d383c16120a9c86b74d509baf5",
        "ledger_party2.bin": "d392728db7abb83d3e06c7693c682b57c29922658026ed6caf983efa1fea71b2",
        "ledger_party3.bin": "262151833a3c709562904417c06adf79adbd4de4eb928b03d84cea298f27eeca",
        "ledger_party4.bin": "e4e7e05f1ecd0d7de240d107edee18e6c1d90998ef63c4424b90669a6aa27cd7",
        "ledger_party5.bin": "b669619803d16c21b754b9c2ab9c264b45f3805e45ac6690b6ecc1f2e3f602e3",
        "ledger_party6.bin": "2237ad9ba6cf008f4181a40c6626c7003c7416864432e300c64f5d608d9b8e90",
        "report.json": "13e645e8cb337c0893e9f67cd910227776d6fa8ea9ce97ceaa1e59796ea4f7b4",
        "series.csv": "e1c6c7b5e23a797e1e406d8b11f40dd91c56d7307812e7eb8a7d3ae6e7689581",
    },
    "late_gst": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "00ef7c49541c20bd93a9fd4e32b619d8cade1808245c520542530bc35c1a5b3c",
        "ledger_party1.bin": "75c44a5a45b2e85ce0f880dc698041fd2ba66752684b880d9622a9cdc4a6fcf4",
        "ledger_party2.bin": "2f5c2faedc63ef761c3141afd75f94a011d08c4794b84154bdaddbcaf6b31a6e",
        "ledger_party3.bin": "a08e13ba44b7083c5df60eff9fa120e0b0292fbc3fca704732ca548ad860e07a",
        "report.json": "a09dba9d3dcc73d72a953f5e6665dafd19d8672ac8d06f546cbb364c0ea7c6a5",
        "series.csv": "dcc65c520e444e8a57fa85168a7f62253a9c8e928319cb24404b7fad43b7d59a",
    },
    "lossy": {
        "keys.json": "e1d82b639313285163f455ba185b4412eb704ce542a317b00fefbd49ba9440e1",
        "ledger_party0.bin": "7b5386562ff074dc734531170d39585369b9e0cbfe5184dd5384a21783558acf",
        "ledger_party1.bin": "7b5386562ff074dc734531170d39585369b9e0cbfe5184dd5384a21783558acf",
        "ledger_party2.bin": "32b2d992dfa2db0388b9101e8ba3886d5ccc5656eea17007c075500a054d60c5",
        "ledger_party3.bin": "7b5386562ff074dc734531170d39585369b9e0cbfe5184dd5384a21783558acf",
        "report.json": "0d4fd0771fba85417da060209b98f6fec11c5648d51db53949081c18e8d6eeb2",
        "series.csv": "3856cd9fe0f02bca4f1a19fad9da857e3e7683bd6dbd6f7db747e845f62d29f2",
    },
    "bogus_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party2.bin": "d480c289869b3990a78ceb1c8b1b123fb43df36b6300673b80eef964eea21530",
        "ledger_party3.bin": "97ec181b7eedd0fb4c1e4b570cf31cddb0bdb24e0c6fd241295bf6e0b4410fc0",
        "ledger_party4.bin": "89d45e4a2f54023f393d4337ffc1695bca7dc5ca731b0da093ece361b27b75ad",
        "ledger_party5.bin": "ff6a0ce46f963d8989b02f139de75bf5ecce3981c73c4b34378c3c06cc1cb11c",
        "ledger_party6.bin": "e258d5a0c2fd6e69b0eb2ad061dfef0c19ec248d3ca9770eadee95ce17c03599",
        "report.json": "4fcd4e7700e7eabf1f20148da181c2dd0bac80e55034ded09832588f60d788ff",
        "series.csv": "0349dbaf51df8ec9aa6952761047e8045cd53e8d085edb39747948693dba648b",
    },
    "withhold_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party0.bin": "7c8f698cc77e2b77854cc1c99fcab12a7e52c0eef63f520fc5d1c20cd4a81cd2",
        "ledger_party3.bin": "9605068b2bbda9ef868bfb35ce12807745bfe565520659ffc37a071f4fa5c25b",
        "ledger_party4.bin": "f44975ae514ea01503b010e04510a57c93b1a59080b3f46ee4c086c9e392966c",
        "ledger_party5.bin": "69a320ede04d6f050e00730ea629b6fd8ff998fbe0ed7f0f5b1fbfa0e3100c38",
        "ledger_party6.bin": "d1bd0ad4cb585737b0163e06707931fc4bba100a76805fe44a9897646e91a663",
        "report.json": "00d2dddee9e45713f044cd9d031e423a516d3d1648108878221ee2231924c946",
        "series.csv": "e2eca0d808323456e4af44d9cf144cdd724e9c61e21875f5939f3a623e7d23b9",
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

    def track(_message):
        peak[0] = max(peak[0], len(runner.heap))

    _observe_pushes(runner, track)
    runner.run()
    # The count perfbench's host_events_per_s divides by, as before client
    # arrivals were held back from the heap.
    assert sum(runner.send_seq.values()) == 9481
    submissions = cfg.resolved_tx_count() * cfg.n_parties
    assert 0 < peak[0] < submissions


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
