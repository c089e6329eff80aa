"""Regression guards that need no timing: call counts and golden digests.

The digests pin the exact bytes `shardbft run` writes for each shipped
config and for one short Ed25519 scenario. A change that only makes the
simulator faster must leave every one of them as it is; a change that is
meant to alter behaviour updates them and says why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from shardbft import crypto
from shardbft.cli import main
from shardbft.sim.runner import run_scenario
from shardbft.sim.scenario import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _ed25519_short() -> dict:
    doc = json.loads((CONFIGS / "baseline.json").read_text())
    doc.update(scheme="standard_signature", duration=0.5, tx_rate=100.0)
    return doc


SCENARIOS = {
    "baseline": lambda: json.loads((CONFIGS / "baseline.json").read_text()),
    "censorship": lambda: json.loads((CONFIGS / "censorship.json").read_text()),
    "failover": lambda: json.loads((CONFIGS / "failover.json").read_text()),
    "ed25519_short": _ed25519_short,
}

# sha256 of every file `shardbft run` writes, recorded before verify was
# memoized and tx_id cached.
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
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_artifacts_match_golden_digests(name, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIOS[name]()))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[name]


def test_verify_primitive_runs_once_per_distinct_triple(monkeypatch):
    memo = crypto.verify
    calls = []

    def counting(public, message, sig):
        calls.append((public, message, sig))
        return memo(public, message, sig)

    # Rebind every module-level name for verify, wherever it was imported.
    for name, module in list(sys.modules.items()):
        if name == "shardbft" or name.startswith("shardbft."):
            for attr, value in list(vars(module).items()):
                if value is memo:
                    monkeypatch.setattr(module, attr, counting)
    memo.cache_clear()
    run_scenario(ScenarioConfig.from_dict(_ed25519_short()))
    distinct = len(set(calls))
    info = memo.cache_info()
    assert distinct < crypto.VERIFY_CACHE_SIZE
    assert info.misses == distinct
    assert info.hits == len(calls) - distinct
    # Every party re-checks what the others checked: the memo must pay off.
    assert len(calls) > 3 * distinct
