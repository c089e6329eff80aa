import contextlib
import io
import json
import random
import runpy
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardbft.cli import main
from shardbft.sim.report import JSON_CHUNK_RECORDS, report_to_json
from shardbft.sim.runner import run_scenario
from shardbft.sim.scenario import ScenarioConfig

from families import config

# suite1/0 at k=2 and 80 tx/s for 1 s.
BASE_CONFIG = dict(config("suite1/0"), shards=2, seed=17, tx_rate=80.0, duration=1.0, drain=10.0)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


@pytest.fixture
def run_dir(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    return out


def test_run_writes_artifacts(run_dir):
    assert (run_dir / "report.json").exists()
    assert (run_dir / "series.csv").exists()
    assert (run_dir / "keys.json").exists()
    ledgers = sorted(run_dir.glob("ledger_party*.bin"))
    assert len(ledgers) == 4  # no adversaries: every party is correct
    report = json.loads((run_dir / "report.json").read_text())
    assert all(entry["pass"] for entry in report["checks"].values())
    header = (run_dir / "series.csv").read_text().splitlines()[0]
    assert header == "time_s,committed_txs,mean_latency_s,p95_latency_s,pending_size"


def test_report_file_equals_report_to_json(tmp_path):
    # The CLI writes report.json a chunk at a time; the file must hold the
    # same bytes as the one-string encoding of the same run, over several
    # chunks of transaction records.
    doc = {**BASE_CONFIG, "tx_rate": 600.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = run_scenario(ScenarioConfig.from_dict(doc))
    assert len(report.tx_records) > 2 * JSON_CHUNK_RECORDS
    assert (tmp_path / "out" / "report.json").read_bytes() == report_to_json(report).encode("utf-8")


def test_run_rejects_invalid_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE_CONFIG, "parties": 3, "faults": 1}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2


def test_run_rejects_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_run_censorship_scenario_logs_term_changes(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["adversaries"] = [{"party": 0, "kind": "censor_tx", "censor_clients": [0]}]
    path = tmp_path / "censor.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["term_changes"]
    assert report["checks"]["censorship_bound"]["pass"]


def test_verify_accepts_produced_ledgers(run_dir):
    for ledger in sorted(run_dir.glob("ledger_party*.bin")):
        code = main(["verify", "--ledger", str(ledger), "--keys", str(run_dir / "keys.json")])
        assert code == 0


def test_verify_rejects_tampered_ledger(run_dir, tmp_path):
    data = bytearray((run_dir / "ledger_party0.bin").read_bytes())
    rng = random.Random(1)
    pos = rng.randrange(len(data))
    data[pos] ^= 0x20
    mutated = tmp_path / "tampered.bin"
    mutated.write_bytes(bytes(data))
    code = main(["verify", "--ledger", str(mutated), "--keys", str(run_dir / "keys.json")])
    assert code == 1


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    root = tmp_path_factory.mktemp("produced")
    (root / "scenario.json").write_text(json.dumps(BASE_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(root / "scenario.json"), "--out", str(root)]) == 0
    return root


_chunks = st.one_of(
    st.binary(min_size=1, max_size=8),
    st.integers(0, 2**64 - 1).map(lambda v: v.to_bytes(8, "big")),  # a whole length field
)


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), _chunks), min_size=1, max_size=3),
    keep=st.one_of(st.none(), st.floats(0, 1)),
)
def test_verify_always_prints_a_verdict(produced, edits, keep):
    data = bytearray((produced / "ledger_party0.bin").read_bytes())
    for where, chunk in edits:
        pos = int(where * len(data))
        data[pos : pos + len(chunk)] = chunk
    if keep is not None:
        del data[int(keep * len(data)) :]
    mutated = produced / "mutated.bin"
    mutated.write_bytes(bytes(data))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--ledger", str(mutated), "--keys", str(produced / "keys.json")])
    assert code in (0, 1)
    assert out.getvalue().startswith("ledger valid" if code == 0 else "ledger INVALID")


def test_verify_huge_length_is_invalid_not_a_crash(produced, capsys):
    # An 8-byte overwrite that makes a length field huge used to push the
    # next read offset past ssize_t and raise OverflowError.
    data = bytearray((produced / "ledger_party0.bin").read_bytes())
    rng = random.Random(1)
    mutated = produced / "huge.bin"
    for _ in range(300):
        buf = bytearray(data)
        off = rng.randrange(4, len(data) - 8)
        buf[off : off + 8] = b"\xff" * 8
        mutated.write_bytes(bytes(buf))
        assert main(["verify", "--ledger", str(mutated), "--keys", str(produced / "keys.json")]) == 1
        assert capsys.readouterr().out.startswith("ledger INVALID")


def test_run_reports_virtual_time_limit_when_not_quiescent(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**BASE_CONFIG, "drain": 0.05}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "virtual time limit of 1.05 s (duration + drain)" in err
    assert "wall" not in err


def _out_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return tmp_path / "taken"


def _out_under_a_file(tmp_path):
    return _out_is_a_file(tmp_path) / "out"


def _report_is_a_directory(tmp_path):
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    return tmp_path / "out"


@pytest.mark.parametrize("make_out", [_out_is_a_file, _out_under_a_file, _report_is_a_directory])
def test_run_unwritable_out_exits_2(tmp_path, capsys, config_path, make_out):
    out = make_out(tmp_path)
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot write output: ")


def test_verify_missing_inputs_exit_2(tmp_path, run_dir):
    assert main(["verify", "--ledger", str(tmp_path / "no.bin"), "--keys", str(run_dir / "keys.json")]) == 2
    assert main(["verify", "--ledger", str(run_dir / "ledger_party0.bin"), "--keys", str(tmp_path / "no.json")]) == 2


def test_sample_size_values(capsys):
    assert main(["sample-size", "--alpha", "0.5", "--p-fail", str(2.0**-30)]) == 0
    assert capsys.readouterr().out.strip() == "30"
    assert main(["sample-size", "--alpha", "0.75", "--p-fail", str(2.0**-30)]) == 0
    assert capsys.readouterr().out.strip() == "73"
    assert main(["sample-size", "--alpha", "0.95", "--p-fail", str(2.0**-30)]) == 0
    assert capsys.readouterr().out.strip() == "406"


def test_module_entry_exits_with_mains_status(monkeypatch, capsys):
    # ``python -m shardbft.cli``, run in this process.
    monkeypatch.setattr(sys, "argv", ["shardbft.cli", "sample-size", "--alpha", "0.5", "--p-fail", str(2.0**-30)])
    with warnings.catch_warnings():
        # The module is already imported, which runpy warns about.
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("shardbft.cli", run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out.strip() == "30"


def test_sample_size_invalid_args_exit_2():
    assert main(["sample-size", "--alpha", "1.0", "--p-fail", "0.5"]) == 2


def test_stats_summarizes_report(run_dir, capsys):
    assert main(["stats", "--report", str(run_dir / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "txs committed" in out
    assert "shard" in out
    report = json.loads((run_dir / "report.json").read_text())
    committed = sum(1 for t in report["txs"] if t["first_commit_us"] is not None)
    assert f"{committed:>14}" in out


def test_stats_missing_report_exit_2(tmp_path):
    assert main(["stats", "--report", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"txs": 5}',
        '{"txs": [1]}',
        # An integer past the float range, divided into seconds.
        pytest.param('{"txs": [], "end_time_us": 1%s}' % ("0" * 400), id="end_time_10**400"),
    ],
)
def test_stats_malformed_report_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "report.json"
    path.write_text(doc)
    assert main(["stats", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read report: ") and captured.err.count("\n") == 1


def test_unknown_flags_rejected(config_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--out", str(tmp_path), "--bogus-flag"])
    assert exc.value.code == 2


def test_seed_override_changes_run(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a), "--seed", "123"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b), "--seed", "123"]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "ledger_party0.bin").read_bytes() == (out_b / "ledger_party0.bin").read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({**BASE_CONFIG, "protocol": {**BASE_CONFIG["protocol"], "round_interval": 0}}),
        json.dumps({**BASE_CONFIG, "protocol": {**BASE_CONFIG["protocol"], "bucket_period": 0}}),
        json.dumps({**BASE_CONFIG, "seed": "x"}),
        json.dumps({**BASE_CONFIG, "latency": []}),
        json.dumps({**BASE_CONFIG, "adversaries": [{"party": 0, "kind": "crash", "typo": 1}]}),
        json.dumps([BASE_CONFIG]),
        "{not json",
        # More txs than a run can hold, refused before the runner sizes its tally.
        json.dumps({**BASE_CONFIG, "tx_rate": 1e30}),
        json.dumps({**BASE_CONFIG, "tx_count": 10**30}),
        # More nodes than MAX_NODES, refused before the runner sizes its link table.
        json.dumps({**BASE_CONFIG, "parties": 300, "shards": 6}),
    ],
    ids=[
        "zero_round_interval",
        "zero_bucket_period",
        "string_seed",
        "list_latency",
        "adversary_typo",
        "list_root",
        "not_json",
        "huge_tx_rate",
        "huge_tx_count",
        "too_many_nodes",
    ],
)
def test_run_malformed_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_seed_out_of_range_exits_2(tmp_path, capsys, config_path, seed):
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config error: config.seed must be an integer in [0, ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "parties": "4"},
        lambda doc: {**doc, "party_keys": {**doc["party_keys"], "0": 5}},
        lambda doc: {**doc, "party_keys": {**doc["party_keys"], "0": "zz"}},
        lambda doc: {**doc, "party_keys": []},
        lambda doc: {**doc, "faults": 2},
        lambda doc: {**doc, "scheme": "rsa"},
        lambda doc: {k: v for k, v in doc.items() if k != "scheme"},
        lambda doc: {**doc, "party_keys": {**doc["party_keys"], "0": doc["party_keys"]["0"][:62]}},
        lambda doc: {**doc, "party_keys": {"01": doc["party_keys"]["0"], **doc["party_keys"]}},
        lambda doc: {**doc, "party_keys": {(" 0" if p == "0" else p): k for p, k in doc["party_keys"].items()}},
        lambda doc: {**doc, "party_keys": {**doc["party_keys"], "9": doc["party_keys"]["0"]}},
        lambda doc: {**doc, "party_keys": {p: k for p, k in doc["party_keys"].items() if p != "0"}},
        # Must exit at once, not build 10**18 party ids first.
        lambda doc: {**doc, "parties": 10**18},
    ],
    ids=[
        "list_root",
        "string_parties",
        "int_key",
        "non_hex_key",
        "list_keys",
        "too_many_faults",
        "unknown_scheme",
        "no_scheme",
        "short_key",
        "alias_id",
        "padded_id",
        "extra_id",
        "missing_id",
        "huge_parties",
    ],
)
def test_verify_malformed_keys_exit_2(produced, tmp_path, capsys, edit):
    keys = tmp_path / "keys.json"
    keys.write_text(json.dumps(edit(json.loads((produced / "keys.json").read_text()))))
    assert main(["verify", "--ledger", str(produced / "ledger_party0.bin"), "--keys", str(keys)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot read keys: ") and not captured.out


# Bytes that json cannot read: invalid UTF-8, and nesting beyond the recursion limit.
unreadable_json = pytest.mark.parametrize(
    "raw", [b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000], ids=["bad_utf8", "deep_nesting"]
)


@unreadable_json
def test_run_unreadable_config_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")


@unreadable_json
def test_verify_unreadable_keys_exit_2(produced, tmp_path, capsys, raw):
    keys = tmp_path / "keys.json"
    keys.write_bytes(raw)
    assert main(["verify", "--ledger", str(produced / "ledger_party0.bin"), "--keys", str(keys)]) == 2
    assert capsys.readouterr().err.startswith("cannot read keys: ")
