"""Regression guards that need no timing: call counts and golden digests.

The digests pin the exact bytes `shardbft run` writes for each shipped
config and for a few short scenarios that reach paths those do not (the
``pinned/NAME`` and ``grid/20261018/I`` names of `tests/families.py`). A
change that only makes the simulator faster must leave every one of them as
it is; a change that is meant to alter behaviour updates them and says why.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from shardbft import core, crypto, router
from shardbft import messages as msg
from shardbft.assembler import read_ledger, verify_ledger_blocks, write_ledger
from shardbft.cli import main
from shardbft.record import Record
from shardbft.router import REASON_BAD_SIGNATURE, REASON_MALFORMED, REASON_UNKNOWN_CLIENT
from shardbft.sim.report import report_to_json
from shardbft.sim.runner import _Runner, run_scenario
from shardbft.sim.scenario import ScenarioConfig

from families import PINNED, config, load

# sha256 of every file `shardbft run` writes, recorded when each batcher began
# acknowledging straight to the hub. Only report.json moved, by its ack
# times: with one delay stream per link, the ledgers and series.csv are
# those of the two-hop ack.
GOLDEN = {
    "baseline": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "6cdc2071607fc414f0e9549b29cd704fd5c0175592bb4736c931547442790cab",
        "ledger_party1.bin": "bb7f38be4e92ee6c349c13aebd3014aad1b547c2138b93e6a676418004cf8e4a",
        "ledger_party2.bin": "3130e2f169fc67359bd2deebee1e0c8f625d9133856d081cc671b443b7336489",
        "ledger_party3.bin": "c58e037e5bf83582f1cda7247e548e07142292df17b46c3241d6eeb43d61bd5f",
        "report.json": "aac90c13292151d11ae3d547a07d701e54022432519675c4db763caf304d444e",
        "series.csv": "1b8b1550196e53a54a343f936615ef9e8765e07dbc1d9c988136521d2b68a21f",
    },
    "censorship": {
        "keys.json": "d706ce51eb146cdb1a0a9c48618efebc7cdf60ad8648f4f75e0a0f182c1f0abc",
        "ledger_party1.bin": "3e0b318e147fcdcadf5c1b4d9faedd85398b757c2f3ce648372a980adcf2a55e",
        "ledger_party2.bin": "4d167f4a128457c9adf3c1cfbfc1b136f84f68c8792ff361df51628550a94544",
        "ledger_party3.bin": "4dfe115ff4254e6335118100e4a58321d094db4cd8aac211c568c5fda293904d",
        "report.json": "b5741e89df3938a1e090376eb92b70d46fcee285454f250ad92607bab9534bac",
        "series.csv": "81e72fa68d71fa489f2b71ed27fc2d22f6da30336a808adf07111e45b58b88ef",
    },
    "failover": {
        "keys.json": "d70ef3aa1a46a60f0a09910258112568830bdbc47f76241e0e68c552dc3d244d",
        "ledger_party1.bin": "4934b16c868b0b97824ceef00fa9a43bce3b9559354ecd56d8658b50c508eebd",
        "ledger_party2.bin": "4934b16c868b0b97824ceef00fa9a43bce3b9559354ecd56d8658b50c508eebd",
        "ledger_party3.bin": "4934b16c868b0b97824ceef00fa9a43bce3b9559354ecd56d8658b50c508eebd",
        "report.json": "a140c964c9c94413b872b6d191857e750d9ec04a8552e7900db4ee6bc907450b",
        "series.csv": "e052fc3bfea6fbd20336f69b3e8b81668751cfa0302740d917648ce89ffa1592",
    },
    "ed25519_short": {
        "keys.json": "c3a878cd67b6f43e72f0c2112d2e66a7d1f3362d6f9bf291450ee3402c34080e",
        "ledger_party0.bin": "6d6062c3153bdf8a4d551a4761728031015ea98eff90d7e255196cde9bdb9789",
        "ledger_party1.bin": "32f330b065ff36898afc46be5c5c8a5ffdea923bbda63fda0172fd9c88349470",
        "ledger_party2.bin": "0c9b591315a90103d56f049a943c8915bc5214fe0922028a1dc095699f63f42e",
        "ledger_party3.bin": "f8652a20c7f11d04711c4563060f297b01aabe65a779a3e54d0daec8510cf2f3",
        "report.json": "46bfb571b1f515020f2917dac75cedec51c1f7c1323954130c6a8a4aa0fc30b5",
        "series.csv": "0f5062f3919dbf56db3e6229f210f9e7c39e06917a87c349a66200b361b40ffd",
    },
    "ordering_short": {
        "keys.json": "158ffa11e8285c4f3fbd9fbab16bc581beaca0d383c16120a9c86b74d509baf5",
        "ledger_party2.bin": "443abff38a1867b25e987522a3bc32ca98171ec6da6308bca2b3fba332d542c6",
        "ledger_party3.bin": "6836816b6fc8bc8c6cf294b806a50b9d2730efdfa46999213cb77169f3d8d724",
        "ledger_party4.bin": "33edb605d6be6af399374b1cefecba274d85fe28997426f2c63942a463700806",
        "ledger_party5.bin": "5e2ec7c0c2bf1514998e472b1b004e4441cbbb1e9772111e4400732030c00124",
        "ledger_party6.bin": "464749b03022b1be8d12201cfa1931235eb102b6f18d5aaee9509a98eba38bf5",
        "report.json": "85aee1ca244358713904c5160e598d3ef441745e05addf0be1b1bf1022f5be33",
        "series.csv": "f4027c2c6a596f7f4841015934fecc01217c255fb873b794d8019c5215fe1e64",
    },
    "late_gst": {
        "keys.json": "52f14feccb2b10dbd0b719133180e6c0747d2ca92d07ea33dbbab7dcd650b33b",
        "ledger_party0.bin": "206e242d67b69d5be62be0611c0787a875632a4ac1c39446bc29946fd7bf4a2e",
        "ledger_party1.bin": "8502c5d64067925f14e9776b46e54742c7e75276f505dde006551833ad13eb76",
        "ledger_party2.bin": "38a1a42c86bbfbc64fc6eec41716372e91bc921c4ab8039f70cad08a0a720ffb",
        "ledger_party3.bin": "7f3e94bca11c345b96c8ddbed9c9724b8baf92fff421c1e8d471def8a9397958",
        "report.json": "23898316ad71155ebe62a5b41f2376c21fd37a44902a5ab5b76d66e52f116d6d",
        "series.csv": "217921959f084c5a7fb9c8c6327fa3f732cfa8573d5d08c8949510d07f819bbe",
    },
    "bogus_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party2.bin": "b11bb7f0ab5512876346d4f9a3d3ec5ced52132f9793dbd8465241b448307a32",
        "ledger_party3.bin": "47f95bfa38bc72e823b4ffcc2655d0030460a0bb04dc4b4508a52650d8ce70a0",
        "ledger_party4.bin": "0076f52f46c826bbcfe5455f7fdb9462888581de959a01ff37d3d9531c73330f",
        "ledger_party5.bin": "c5c3e69cc4fb509257acf80aeaaf247500a225fe6e9c9ff3ce40a9f91b3570a0",
        "ledger_party6.bin": "ed1dfbe82400ce1d2795f6c5f68d19902a7003db74c2358f899663dd234e6b44",
        "report.json": "275b07a5f25fa05b1091e89d199b62f3283d35fa2f3692d91e2e417ffcee94d6",
        "series.csv": "c85a946dbce4e365853aaafb55090375f38e9fbc45b12ce6a66e469fe9629fdb",
    },
    "withhold_short": {
        "keys.json": "12fcc0fde07f64cdfe7b091e7e054daa2a2c297e51ea89c41148f0f76c5d2910",
        "ledger_party0.bin": "cbdd655ab9135dd50e3853f8c037a9558d3baa9570a08326d53ab408fc469b6d",
        "ledger_party3.bin": "56c90adc74cd3d3f8e4f828003f07854d6d3b6f2b158f9bbd3d9e213fa1036b5",
        "ledger_party4.bin": "b8934c3cda9e1dc91080e8a82a3750d6211622920d42a038c75da6764036d114",
        "ledger_party5.bin": "2e59e037d1aeffe36f4b6acc128c6cd2d2f7b748545147b4b8e9bbcf2ab0e7f7",
        "ledger_party6.bin": "241834bc8f3b992ba8e185e430b112b70b99a596c768207f1bef0b756e722071",
        "report.json": "524aa25e8eeec6226e30de5552624143917a5509825e1d74eef2050f2f92cd05",
        "series.csv": "34f20faf8b43187e56eb4727f5ebdcfc3f019410632bd9589bd34fd11f1cb81f",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_artifacts_match_golden_digests(name, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config(f"pinned/{name}")))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[name]


def grid_digest(names) -> str:
    """One sha256 over the `report.json` bytes of every named scenario, in order."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(report_to_json(run_scenario(load(name))).encode())
    return digest.hexdigest()


# Recorded when each batcher began acknowledging straight to the hub, as
# GOLDEN was.
GRID_DIGEST = "be07324294cd716a2d51186601b1fe94eba20d95061e0ef2f888138140032a5e"


def test_random_grid_reports_match_golden_digest():
    # All seven adversary kinds, alone and mixed, with and without GST, on
    # 1-4 shards at N=4 and N=7: combinations the pinned scenarios above
    # miss (among them a censor with GST > 0 and crashes at N=7).
    assert grid_digest(f"grid/20261018/{i}" for i in range(40)) == GRID_DIGEST


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
    run_scenario(load("pinned/ed25519_short"))
    distinct = len(set(calls))
    info = memo.cache_info()
    assert distinct < crypto.VERIFY_CACHE_SIZE
    assert info.misses == distinct
    assert info.hits == len(calls) - distinct
    # Every party re-checks what the others checked: the memo must pay off.
    assert len(calls) > 3 * distinct


@pytest.mark.parametrize("name", ["steady", "censor", "ed25519"])
def test_the_memo_keeps_every_verdict_a_benchmark_run_reads_again(monkeypatch, name):
    # VERIFY_CACHE_SIZE is sized by reuse distance, not by a run's distinct
    # triples, which outnumber it on steady and censor: still no verdict is
    # evicted before a later check reads it, so the primitive runs once per
    # distinct triple. ed25519's hub warms the memo a window ahead.
    memo = crypto.verify
    calls = []

    def counting(public, message, sig):
        calls.append((public, message, sig))
        return memo(public, message, sig)

    _rebind(monkeypatch, memo, counting)
    memo.cache_clear()
    run_scenario(load(f"perfbench/{name}/505"))
    info, distinct = memo.cache_info(), len(set(calls))
    assert info.maxsize == crypto.VERIFY_CACHE_SIZE
    assert info.misses == distinct
    assert distinct > crypto.VERIFY_CACHE_SIZE or name == "ed25519"


def test_each_transaction_builds_its_signing_bytes_once(monkeypatch):
    # The client generator signs the bytes it built and hands them to the
    # Transaction, which keeps them instead of building them again.
    built = core.tx_signing_bytes
    calls = []

    def counting(client_id, payload):
        calls.append(client_id)
        return built(client_id, payload)

    _rebind(monkeypatch, built, counting)
    runner = _Runner(load("perfbench/steady/505"))
    runner.run()
    assert len(calls) == len(runner.submissions) == 6000
    for submission in runner.submissions:
        tx = submission.tx
        assert tx.signing_bytes == built(tx.client_id, tx.payload)
        assert tx.tx_id == hashlib.sha256(tx.signing_bytes).digest()


def test_ordering_payloads_are_encoded_once_per_object(monkeypatch):
    # Each header is encoded when it is built. Each share or complaint is
    # encoded once, where its batcher signs it, and the object it builds
    # keeps those bytes. No node encodes one again: 7 consensus nodes check
    # every event twice.
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("encode_bas_payload", "encode_complaint_payload", "encode_header_payload"):
        _rebind(monkeypatch, getattr(core, name), counted(name, getattr(core, name)))
    for cls in (core.BatchAttestationShare, core.ComplaintVote, core.BlockHeader):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    for cls in (core.BatchAttestationShare, core.ComplaintVote):  # how a batcher builds and signs one
        monkeypatch.setattr(cls, "signed", classmethod(counted(cls.__name__, cls.signed.__func__)))
    signed = {b"\x42": 0, b"\x43": 0}
    sign = crypto.sign

    def counting_sign(keypair, message):
        if message[:1] in signed:
            signed[message[:1]] += 1
        return sign(keypair, message)

    _rebind(monkeypatch, sign, counting_sign)
    report = run_scenario(load("pinned/ordering_short"))
    assert report.quiescent and report.all_checks_pass()
    assert calls["BatchAttestationShare"] == signed[b"\x42"] > 0
    assert calls["ComplaintVote"] == signed[b"\x43"] > 0
    assert calls["BlockHeader"] > 0
    assert calls["encode_bas_payload"] == signed[b"\x42"]
    assert calls["encode_complaint_payload"] == signed[b"\x43"]
    assert calls["encode_header_payload"] == calls["BlockHeader"]


@pytest.mark.parametrize("name, shares, complaints", [("steady", 480, 0), ("censor", 2275, 18)])
def test_each_share_and_complaint_encodes_its_payload_once(monkeypatch, name, shares, complaints):
    # A batcher builds each share and complaint with ``signed``, which
    # signs the payload it encoded and keeps it instead of encoding it again.
    encoders = {core.BatchAttestationShare: core.encode_bas_payload, core.ComplaintVote: core.encode_complaint_payload}
    calls = Counter()

    def counting(cls, encode):
        def wrapper(*args):
            calls[cls] += 1
            return encode(*args)

        return wrapper

    for cls, encode in encoders.items():
        _rebind(monkeypatch, encode, counting(cls, encode))
    runner = _Runner(load(f"perfbench/{name}/505"))
    sent = {}  # id -> event; holding each event keeps its id unique
    _observe_pushes(runner, lambda m: sent.setdefault(id(m), m) if type(m) in encoders else None)
    runner.run()
    built = Counter(type(event) for event in sent.values())
    assert (built[core.BatchAttestationShare], built[core.ComplaintVote]) == (shares, complaints)
    assert calls == built
    for event in sent.values():
        if isinstance(event, core.BatchAttestationShare):
            assert event.signing_payload == core.encode_bas_payload(event.key, event.epoch)
        else:
            assert event.signing_payload == core.encode_complaint_payload(event.term, event.shard)


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
        runner = _Runner(load(f"pinned/{name}"))
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
    cfg = load("pinned/baseline")
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
    cfg = load("pinned/baseline")
    runner = _Runner(cfg)
    peak = [0]
    pushed = {}  # id -> message; holding each message keeps its id unique

    def track(message):
        peak[0] = max(peak[0], len(runner.heap))
        pushed[id(message)] = message

    _observe_pushes(runner, track)
    runner.run()
    # The count perfbench's host_events_per_s divides by. Re-pinned from
    # 8,329 when each link got its own delay stream and the goal check its
    # 20 ms tick. The redrawn delays make 35 blocks, not 30: 60 header
    # shares, 20 published headers and 28 round deliveries more (+108). The
    # run stops at 2.16 s, not 2.55 s: 61 bucket ticks and 19 round ticks
    # fewer (-80). Then each batcher acked straight to the hub: the routers'
    # 1,600 relays went (6,757). Then the hub submitted on its own timer:
    # one timer per tx, 400 txs (+400).
    assert sum(runner.send_seq.values()) == 7157
    submissions = cfg.resolved_tx_count() * cfg.n_parties
    assert 0 < peak[0] < submissions
    # Distinct objects behind those events: a router forwards the object it
    # got, and a share, complaint or batch goes out as itself. From 3,440,
    # 20 header shares, 20 published headers and 7 rounds more, 61 bucket
    # ticks and 19 round ticks fewer (-33). A relay sent no new object, so
    # the one-hop ack kept the count; a hub timer carries the SubmitTx that
    # the routers forward, so the hub's own timer keeps it too.
    assert len(pushed) == 3407


def test_importing_the_simulator_and_cli_imports_no_dataclasses():
    # Every record class is hand-written: a fresh interpreter that imports
    # the simulator and the CLI never pays for `dataclasses` (its decorators
    # exec generated methods) nor for the `inspect` module it pulls in.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import shardbft.sim.runner, shardbft.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_every_message_class_is_sent():
    # A message class that nothing sends is dead code; failover sends them all.
    runner = _Runner(load("pinned/failover"))
    sent = set()
    _observe_pushes(runner, lambda message: sent.add(type(message)))
    runner.run()
    records = {c for c in vars(msg).values() if isinstance(c, type) and issubclass(c, Record)}
    defined = {c for c in records if c.__module__ == msg.__name__}
    assert len(defined) == 14 and not defined - sent, defined - sent


def test_no_node_mutates_a_message_once_sent():
    # Longer than ordering_short, so that more than 10,000 messages are checked.
    runner = _Runner(ScenarioConfig.from_dict(dict(config("pinned/ordering_short"), duration=1.5)))
    sent = []

    def names(kind):
        # Every slot: the fields and the values derived from them, such as a
        # share's signing payload. Batch has no slots; its caches stay out.
        return kind.__dict__.get("__slots__", kind._fields)

    def snapshot(message):
        sent.append((message, [getattr(message, name) for name in names(type(message))]))

    _observe_pushes(runner, snapshot)
    runner.run()
    assert len(sent) > 10_000
    kinds = {type(message) for message, _values in sent}
    assert {core.Batch, core.BatchAttestationShare, core.ComplaintVote} <= kinds
    assert all(kind._fields for kind in kinds - {msg.BucketTick, msg.RoundTick}), kinds
    for kind in (core.BatchAttestationShare, core.ComplaintVote):
        assert "signing_payload" in names(kind)
        message, values = next(item for item in sent if type(item[0]) is kind)
        assert message.signing_payload is not None and values[-1] is message.signing_payload
    for message, values in sent:
        assert [getattr(message, name) for name in names(type(message))] == values, message


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
    run_scenario(load("pinned/ordering_short"))
    # A router handles only submissions: each batcher acks to the hub itself.
    assert set(handled) == {"SubmitTx"} and handled["SubmitTx"] > 1_000


def test_protocol_objects_travel_as_themselves(monkeypatch):
    # A router forwards the object it received, and a batcher sends an ack,
    # share, complaint or persisted batch as the object it built, never a
    # wrapper around it.
    runner = _Runner(load("pinned/ordering_short"))
    d, nodes = runner.d, runner.nodes
    routers, batchers = set(d.router), set(chain.from_iterable(d.batcher))
    handling = {}  # router node id -> the message it is handling
    events = {}  # id -> share or complaint a batcher submitted, held so ids stay unique
    stored = {nid: [] for nid in batchers}  # batches each batcher pushed to its assembler
    travelled = Counter()
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
                assert message is got and dest in d.batcher[nodes[sender].party]
                travelled[type(message).__name__] += 1
        elif dest == d.hub:  # a batcher acks once, naming its own party
            assert sender in batchers and isinstance(message, msg.SubmissionReply)
            assert message.party == nodes[sender].party
            travelled[type(message).__name__] += 1
        elif dest == d.sequencer:  # a batcher submits each share or complaint once
            assert sender in batchers and isinstance(message, (core.BatchAttestationShare, core.ComplaintVote))
            assert id(message) not in events
            events[id(message)] = message
            travelled[type(message).__name__] += 1
        elif sender in batchers and isinstance(message, core.Batch):
            assert dest == d.assembler[nodes[sender].party] and message is nodes[sender].ledger[-1]
            stored[sender].append(message)
        send(sender, dest, message)

    runner.network_send = observe
    runner.run()
    assert all(travelled[name] > 100 for name in ("SubmitTx", "SubmissionReply", "BatchAttestationShare"))
    assert travelled["ComplaintVote"] > 0
    for nid in batchers:
        assert [id(b) for b in stored[nid]] == [id(b) for b in nodes[nid].ledger]
