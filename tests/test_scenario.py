"""The scenario schema: every key path parses to a config or a ConfigError,
serialization round-trips, and docs/formats.md names exactly the schema keys."""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardbft.cli import main as cli_main
from shardbft.sim.report import report_to_json
from shardbft.sim.runner import run_scenario
from shardbft.sim.scenario import (
    OBJECT,
    OBJECTS,
    AdversarySpec,
    ConfigError,
    LatencyModel,
    ProtocolParams,
    ScenarioConfig,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
CENSORSHIP = json.loads((ROOT / "configs" / "censorship.json").read_text())


def schema_paths(cls=ScenarioConfig, prefix=()):
    """Every key path of the schema; 0 stands for an entry of a list of objects."""
    for k in cls._keys.values():
        path = prefix + (k.key,)
        yield path
        if k.kind == OBJECT:
            yield from schema_paths(k.of, path)
        elif k.kind == OBJECTS:
            yield from schema_paths(k.of, path + (0,))


PATHS = list(schema_paths())


def substituted(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def parses_or_config_error(doc) -> None:
    try:
        cfg = ScenarioConfig.from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


ODD_VALUES = [None, True, False, 0, -1, 1, 2**64, 0.5, -1e308, 1e308, float("nan"), "x", [], {}, [1]]


@pytest.mark.parametrize("path", PATHS, ids=lambda p: ".".join(map(str, p)))
def test_odd_value_at_each_key_parses_or_is_a_config_error(path):
    for value in ODD_VALUES:
        parses_or_config_error(substituted(CENSORSHIP, path, value))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([2**64, -(2**64), 10**400, 1e308, -1e308, 1e-9]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=600, deadline=None)
@given(path=st.sampled_from(PATHS), value=json_values)
def test_any_json_value_at_any_key_parses_or_is_a_config_error(path, value):
    parses_or_config_error(substituted(CENSORSHIP, path, value))


@pytest.mark.parametrize("root", [None, 1, "x", [], [CENSORSHIP]])
def test_non_object_root_is_a_config_error(root):
    with pytest.raises(ConfigError, match="config must be an object"):
        ScenarioConfig.from_dict(root)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("protocol", "round_interval"), 0, "config.protocol.round_interval"),
        (("protocol", "bucket_period"), 0, "config.protocol.bucket_period"),
        (("protocol", "max_batch_latency"), 1e-9, "config.protocol.max_batch_latency"),
        (("protocol", "epoch_length"), 0.0, "config.protocol.epoch_length"),
        (("duration",), 0, "config.duration"),
        (("gst",), -0.5, "config.gst"),
        (("latency", "jitter"), -0.001, "config.latency.jitter"),
        (("drain",), 1e308, "config.drain"),
        (("delta",), float("inf"), "config.delta"),
        (("seed",), -1, "config.seed"),
        (("seed",), 2**64, "config.seed"),
        (("parties",), True, "config.parties"),
        (("parties",), 4.0, "config.parties"),
        (("tx_count",), 0, "config.tx_count"),
        (("protocol", "pool_capacity"), 0, "config.protocol.pool_capacity"),
        (("protocol", "max_tx_size"), 0, "config.protocol.max_tx_size"),
        (("scheme",), "rsa", "config.scheme"),
        (("adversaries", 0, "kind"), "sleepy", "config.adversaries[0].kind"),
        (("adversaries", 0, "censor_clients"), [True], "config.adversaries[0].censor_clients"),
        (("adversaries", 0, "nonsense"), 1, "config.adversaries[0]"),
        (("protocol", "nonsense"), 1, "config.protocol"),
        (("tx_size",), 7, "config.tx_size"),
        # An integer beyond the float range is not a finite number.
        pytest.param(("tx_rate",), 10**400, "config.tx_rate", id="path22-10**400-config.tx_rate"),
        (("lossy_party",), 2, "config has unknown keys: ['lossy_party']"),
        pytest.param(("tx_count",), 10**7 + 1, "config.tx_count", id="tx_count_past_MAX_TX_COUNT"),
    ],
)
def test_rejection_names_the_key_path(path, value, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        ScenarioConfig.from_dict(substituted(CENSORSHIP, path, value))


def test_missing_adversary_party_is_a_config_error():
    with pytest.raises(ConfigError, match=re.escape("config.adversaries[0].party is required")):
        ScenarioConfig.from_dict({"adversaries": [{"kind": "crash"}]})


def test_a_single_party_is_a_config_error(tmp_path):
    # One party leaves no second correct ledger to agree with, so its run
    # could never pass agreement: the schema refuses it and `run` exits 2.
    with pytest.raises(ConfigError, match=re.escape("config.parties must be an integer >= 2")):
        ScenarioConfig.from_dict({"parties": 1, "faults": 0})
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"parties": 1, "faults": 0}))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert ScenarioConfig.from_dict({"parties": 2, "faults": 0}).n_parties == 2


def test_cross_key_rules_still_apply():
    with pytest.raises(ConfigError, match="3\\*faults\\+1"):
        ScenarioConfig.from_dict({"parties": 3, "faults": 1})
    with pytest.raises(ConfigError, match=re.escape("config.adversaries[0].party must be a party in [0, 4), got 4")):
        ScenarioConfig.from_dict({"adversaries": [{"party": 4, "kind": "crash"}]})
    with pytest.raises(ConfigError, match="p_fail"):
        ScenarioConfig.from_dict({"protocol": {"p_fail": 0}})
    # An explicit sample count makes alpha and p_fail irrelevant.
    ScenarioConfig.from_dict({"protocol": {"p_fail": 0, "alpha": 7, "sample_count": 3}})
    # So does an explicit tx count the tx rate, and the count may reach MAX_TX_COUNT.
    assert ScenarioConfig.from_dict({"tx_rate": 1e30, "tx_count": 10**7}).resolved_tx_count() == 10**7
    assert ScenarioConfig.from_dict({"tx_rate": 10**7, "duration": 1.0}).resolved_tx_count() == 10**7


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"parties": 3, "faults": 1}, "config.parties"),
        ({"adversaries": [{"party": 0, "kind": "crash"}, {"party": 1, "kind": "crash"}]}, "config.adversaries"),
        ({"adversaries": [{"party": 4, "kind": "crash"}]}, "config.adversaries[0].party"),
        ({"delta": 0.01}, "config.delta"),
        ({"tob_delay_bound": 0.1}, "config.tob_delay_bound"),
        ({"protocol": {"alpha": 1}}, "config.protocol.alpha"),
        ({"protocol": {"p_fail": 0}}, "config.protocol.p_fail"),
        ({"tx_rate": 1e30}, "config.tx_rate"),
    ],
)
def test_cross_key_rejections_name_the_key_path(doc, where):
    # The rules that span keys blame one key, as the per-key checks do.
    with pytest.raises(ConfigError, match="^" + re.escape(where) + " "):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("swap", [False, True])
def test_an_adversary_party_listed_twice_is_rejected(swap):
    # Two entries for one party would keep only one of them in the
    # deployment, which one depending on their order.
    entries = [
        {"party": 0, "kind": "crash", "crash_at": 0.1},
        {"party": 0, "kind": "censor_tx", "censor_clients": [0]},
    ]
    doc = {**CENSORSHIP, "adversaries": entries[::-1] if swap else entries}
    with pytest.raises(ConfigError, match=re.escape("config.adversaries[1].party lists party 0 again")):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_round_trip(path):
    cfg = ScenarioConfig.from_json_file(path)
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.to_dict() == ScenarioConfig.from_dict(json.loads(path.read_text())).to_dict()


def test_configs_are_frozen_and_built_from_their_keys():
    # The constructor takes each key's field positionally or by name and
    # fills the rest with defaults; a built config refuses any assignment.
    cfg = ScenarioConfig(n_parties=7, f=2, adversaries=(AdversarySpec(1, "crash"),))
    assert cfg == ScenarioConfig.from_dict({"parties": 7, "faults": 2, "adversaries": [{"party": 1, "kind": "crash"}]})
    assert hash(cfg) == hash(ScenarioConfig.from_dict(cfg.to_dict()))
    assert cfg.protocol == ProtocolParams() and cfg.adversaries[0].crash_at_us == 0
    for build in (
        lambda: AdversarySpec(1),
        lambda: AdversarySpec(1, "crash", party=2),
        lambda: ScenarioConfig(parties=4),
        lambda: LatencyModel(1, 2, 3),
    ):
        with pytest.raises(TypeError):
            build()
    for obj, name in ((cfg, "seed"), (cfg.protocol, "alpha"), (cfg.latency, "base_us")):
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value


def test_to_dict_keeps_unset_keys_and_numbers_as_given():
    doc = ScenarioConfig.from_dict({"tx_rate": 100, "protocol": {"alpha": 0.25}}).to_dict()
    assert doc["tx_count"] is None
    assert doc["protocol"]["sample_count"] is None and doc["protocol"]["pool_capacity"] is None
    assert type(doc["tx_rate"]) is int and doc["protocol"]["alpha"] == 0.25
    assert doc["duration"] == 1.0 and doc["latency"] == {"base": 0.005, "jitter": 0.02}


def test_integer_tx_rate_stays_an_integer_in_the_report():
    doc = {**CENSORSHIP, "tx_rate": 100, "duration": 0.2, "adversaries": []}
    report = report_to_json(run_scenario(ScenarioConfig.from_dict(doc)))
    assert json.loads(report)["config"]["tx_rate"] == 100
    assert '"tx_rate":100,' in report


def _documented_keys() -> set[str]:
    text = (ROOT / "docs" / "formats.md").read_text()
    section = text.split("## Scenario config", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M))


def test_docs_name_exactly_the_schema_keys():
    schema = {".".join(map(str, path)).replace(".0.", "[].") for path in PATHS}
    assert _documented_keys() == schema
