"""Scenario configuration: schema, defaults, validation.

Configs are plain JSON (see docs/formats.md for the schema). All durations
in the file are seconds; internally everything runs on an integer
microsecond clock (one tick = 1 microsecond).

Each key is declared once, as a dataclass field: its default is the field
default and its metadata gives the JSON name, the kind and the allowed
range. ``_decode`` and ``_encode`` walk those fields, so parsing, per-key
checks and serialization read one table; ``validate`` keeps only the rules
that span keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from ..batcher import required_sample_size
from ..behaviors import BEHAVIOR_KINDS, CENSOR_TX
from ..crypto import SCHEMES, SCHEME_TEST_MAC


class ConfigError(ValueError):
    pass


def us(seconds: float) -> int:
    return int(round(seconds * 1_000_000))


def seconds(micros: int) -> float:
    return micros / 1_000_000


# Key kinds. SECONDS is a JSON number of seconds stored as integer
# microseconds; OBJECT and OBJECTS hold one or a list of nested dataclasses.
# Durations are capped at MAX_SECONDS so that every microsecond count writes
# back to the same seconds value; TICK is the least positive duration.
INT, NUMBER, SECONDS, CHOICE, INTS, OBJECT, OBJECTS = (
    "integer", "number", "seconds", "choice", "list of integers", "object", "list of objects"
)
MAX_SECONDS = 10**9
TICK = 1e-6


def _key(name: str, kind: str, default=MISSING, *, lo=None, hi=None, of=None):
    """One config key. ``lo``/``hi`` bound the JSON value inclusively; ``of``
    is a CHOICE's options or the dataclass of an OBJECT/OBJECTS. A None
    default makes the key nullable."""
    if kind == SECONDS:
        hi = MAX_SECONDS
    meta = {"key": name, "kind": kind, "lo": lo, "hi": hi, "of": of}
    if kind == OBJECT:
        return field(default_factory=of, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class LatencyModel:
    base_us: int = _key("base", SECONDS, us(0.005), lo=0)
    jitter_us: int = _key("jitter", SECONDS, us(0.02), lo=0)

    @property
    def max_us(self) -> int:
        return self.base_us + self.jitter_us


@dataclass(frozen=True)
class AdversarySpec:
    party: int = _key("party", INT, lo=0)
    kind: str = _key("kind", CHOICE, of=BEHAVIOR_KINDS)
    crash_at_us: int = _key("crash_at", SECONDS, 0, lo=0)
    censor_clients: tuple[int, ...] = _key("censor_clients", INTS, ())
    bogus_fraction: float = _key("bogus_fraction", NUMBER, 0.5, lo=0, hi=1)

    def censors(self, tx) -> bool:
        return self.kind == CENSOR_TX and tx.client_id in self.censor_clients


@dataclass(frozen=True)
class ProtocolParams:
    max_batch_size: int = _key("max_batch_size", INT, 10_000, lo=1)
    max_batch_latency_us: int = _key("max_batch_latency", SECONDS, us(0.5), lo=TICK)
    min_propose_interval_us: int = _key("min_propose_interval", SECONDS, us(0.01), lo=0)
    bucket_period_us: int = _key("bucket_period", SECONDS, us(0.1), lo=TICK)
    t_forward_us: int = _key("t_forward", SECONDS, us(2.0), lo=0)
    t_complain_us: int = _key("t_complain", SECONDS, us(2.0), lo=0)
    epoch_length_us: int = _key("epoch_length", SECONDS, us(10.0), lo=TICK)
    epoch_window: int = _key("epoch_window", INT, 2, lo=1)
    alpha: float = _key("alpha", NUMBER, 0.5)
    p_fail: float = _key("p_fail", NUMBER, 2.0**-30)
    # Derived from (alpha, p_fail) when None.
    sample_count: int | None = _key("sample_count", INT, None, lo=0)
    round_interval_us: int = _key("round_interval", SECONDS, us(0.05), lo=TICK)
    fetch_timeout_us: int = _key("fetch_timeout", SECONDS, us(0.25), lo=0)
    pool_capacity: int | None = _key("pool_capacity", INT, None, lo=1)
    max_tx_size: int = _key("max_tx_size", INT, 1 << 20, lo=1)

    def resolved_sample_count(self) -> int:
        if self.sample_count is not None:
            return self.sample_count
        return required_sample_size(self.alpha, self.p_fail)

    @property
    def t_censor_us(self) -> int:
        return self.t_forward_us + self.t_complain_us


@dataclass(frozen=True)
class ScenarioConfig:
    n_parties: int = _key("parties", INT, 4, lo=2)
    f: int = _key("faults", INT, 1, lo=0)
    shard_count: int = _key("shards", INT, 1, lo=1)
    seed: int = _key("seed", INT, 0, lo=0, hi=2**64 - 1)
    clients: int = _key("clients", INT, 4, lo=1)
    tx_rate: float = _key("tx_rate", NUMBER, 100.0, lo=0)
    # At least the u64 submission index that keeps every payload distinct.
    tx_size: int = _key("tx_size", INT, 64, lo=8)
    duration_us: int = _key("duration", SECONDS, us(1.0), lo=TICK)
    # Overrides tx_rate * duration when set.
    tx_count: int | None = _key("tx_count", INT, None, lo=1)
    gst_us: int = _key("gst", SECONDS, 0, lo=0)
    # Declared post-GST delivery bound and total-order latency bound.
    delta_us: int = _key("delta", SECONDS, us(1.0), lo=0)
    tob_delay_bound_us: int = _key("tob_delay_bound", SECONDS, us(0.5), lo=0)
    latency: LatencyModel = _key("latency", OBJECT, of=LatencyModel)
    scheme: str = _key("scheme", CHOICE, SCHEME_TEST_MAC, of=SCHEMES)
    adversaries: tuple[AdversarySpec, ...] = _key("adversaries", OBJECTS, (), of=AdversarySpec)
    protocol: ProtocolParams = _key("protocol", OBJECT, of=ProtocolParams)
    drain_us: int = _key("drain", SECONDS, us(30.0), lo=0)

    # --- derived --------------------------------------------------------

    def resolved_tx_count(self) -> int:
        if self.tx_count is not None:
            return self.tx_count
        return max(1, int(round(self.tx_rate * seconds(self.duration_us))))

    def adversary_parties(self) -> set[int]:
        return {a.party for a in self.adversaries}

    def correct_parties(self) -> list[int]:
        bad = self.adversary_parties()
        return [p for p in range(self.n_parties) if p not in bad]

    def censorship_bound_us(self) -> int:
        # F * T_censor + delta(Delta) + 2 * Delta
        return self.f * self.protocol.t_censor_us + self.tob_delay_bound_us + 2 * self.delta_us

    def validate(self) -> None:
        """The rules that span keys, each naming the key it blames; a key's own range is in its field."""
        p, n, f = self.protocol, self.n_parties, self.f
        if n < 3 * f + 1:
            raise ConfigError(f"config.parties must be >= 3*faults+1, got parties={n}, faults={f}")
        if len(self.adversary_parties()) > f:
            raise ConfigError(f"config.adversaries names more parties than faults={f} allows")
        listed = set()
        for i, a in enumerate(self.adversaries):
            if a.party >= n:
                raise ConfigError(f"config.adversaries[{i}].party must be a party in [0, {n}), got {a.party}")
            if a.party in listed:
                raise ConfigError(f"config.adversaries[{i}].party lists party {a.party} again")
            listed.add(a.party)
        if self.latency.max_us > self.delta_us:
            raise ConfigError(f"config.delta must be >= latency.base + jitter = {seconds(self.latency.max_us)}")
        if (tob := p.round_interval_us + 3 * self.latency.max_us) > self.tob_delay_bound_us:
            raise ConfigError(f"config.tob_delay_bound must be >= round_interval + 3 * max delay = {seconds(tob)}")
        if p.sample_count is None:
            for key in ("alpha", "p_fail"):
                if not 0.0 < getattr(p, key) < 1.0:
                    raise ConfigError(f"config.protocol.{key} must be in (0, 1) unless sample_count is set")

    # --- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        cfg = _decode(cls, data, "config")
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        d = self.to_dict()
        d["seed"] = seed
        return type(self).from_dict(d)


def _decode(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    spec = {f.metadata["key"]: f for f in fields(cls)}
    unknown = set(data) - set(spec)
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown, key=str)}")
    values = {}
    for key, f in spec.items():
        if key in data:
            values[f.name] = _decode_value(f, data[key], f"{where}.{key}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}.{key} is required")
    return cls(**values)


def _decode_value(f, value, where: str):
    kind, lo, hi, of = (f.metadata[k] for k in ("kind", "lo", "hi", "of"))
    if value is None and f.default is None:
        return None
    if kind == OBJECT:
        return _decode(of, value, where)
    if kind == OBJECTS:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return tuple(_decode(of, item, f"{where}[{i}]") for i, item in enumerate(value))
    if kind == INTS:
        if not isinstance(value, list) or not all(_is_int(v) for v in value):
            raise ConfigError(f"{where} must be a list of integers")
        return tuple(value)
    if kind == CHOICE:
        if not isinstance(value, str) or value not in of:
            raise ConfigError(f"{where} must be one of {list(of)}")
        return value
    typed = _is_int(value) or (kind != INT and isinstance(value, float))
    finite = typed and (kind == INT or _finite(value))
    if not finite or (lo is not None and value < lo) or (hi is not None and value > hi):
        text = {INT: "an integer", NUMBER: "a finite number", SECONDS: "a number of seconds"}[kind]
        if lo is not None:
            text += f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ConfigError(f"{where} must be {text}")
    return us(value) if kind == SECONDS else value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _encode(obj) -> dict:
    out = {}
    for f in fields(obj):
        meta, value = f.metadata, getattr(obj, f.name)
        if value is not None:
            kind = meta["kind"]
            if kind == SECONDS:
                value = seconds(value)
            elif kind == OBJECT:
                value = _encode(value)
            elif kind == OBJECTS:
                value = [_encode(item) for item in value]
            elif kind == INTS:
                value = list(value)
        out[meta["key"]] = value
    return out
