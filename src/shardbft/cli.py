"""Command-line front end.

Subcommands:
  run          execute a scenario config, write report/ledgers/CSV
  verify       re-verify a ledger file offline against consensus keys
  sample-size  print the per-batch verification sample count for (alpha, p_fail)
  stats        print a summary table for a run report

Exit codes: 0 success, 1 property or verification failure, 2 usage/config
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assembler import read_ledger, verify_ledger_blocks, write_ledger
from .batcher import required_sample_size
from .crypto import PUBLIC_KEY_LEN, SCHEMES
from .sim.report import iter_report_json, summarize, write_csv
from .sim.runner import run_scenario
from .sim.scenario import ConfigError, ScenarioConfig, seconds


def _cmd_run(args) -> int:
    try:
        cfg = ScenarioConfig.from_json_file(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(cfg)
    try:
        _write_outputs(out, cfg, report)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2

    for name, entry in sorted(report.checks.items()):
        print(f"{name}: {'PASS' if entry['pass'] else 'FAIL'}")
    if not report.quiescent:
        limit_s = seconds(cfg.duration_us + cfg.drain_us)
        print(
            f"run incomplete: not quiescent by the virtual time limit of {limit_s:g} s (duration + drain)",
            file=sys.stderr,
        )
    return 0 if report.all_checks_pass() and report.quiescent else 1


def _write_outputs(out: Path, cfg: ScenarioConfig, report) -> None:
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        fh.writelines(iter_report_json(report))
    write_csv(report, out / "series.csv")
    keys_doc = {
        "scheme": cfg.scheme,
        "parties": cfg.n_parties,
        "faults": cfg.f,
        "party_keys": {str(p): k.hex() for p, k in report.party_keys.items()},
    }
    (out / "keys.json").write_text(json.dumps(keys_doc, indent=2, sort_keys=True), encoding="utf-8")
    for party, blocks in sorted(report.ledgers.items()):
        write_ledger(out / f"ledger_party{party}.bin", blocks)


def _read_keys(path):
    """(scheme, parties, faults, party_keys) of a keys.json; ValueError if malformed."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("the root must be a JSON object")
    scheme, n, f, keys = doc["scheme"], doc["parties"], doc["faults"], doc["party_keys"]
    if not isinstance(scheme, str) or scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if type(n) is not int or type(f) is not int or f < 0 or n < 3 * f + 1:
        raise ValueError(f"need integer parties >= 3*faults+1, got parties={n!r}, faults={f!r}")
    if not isinstance(keys, dict) or not all(isinstance(k, str) for k in keys.values()):
        raise ValueError("party_keys must map party ids to hex strings")
    # Exactly "0" .. "parties-1": an alias such as "01" or " 0" would make
    # the verdict depend on key order, and an extra id would count to a quorum.
    if set(keys) != {str(p) for p in range(n)}:
        raise ValueError(f"party_keys must name exactly the parties 0..{n - 1}")
    party_keys = {int(p): bytes.fromhex(k) for p, k in keys.items()}
    for party, key in party_keys.items():
        if len(key) != PUBLIC_KEY_LEN:
            raise ValueError(f"party {party}'s key is {len(key)} bytes, not {PUBLIC_KEY_LEN}")
    return scheme, n, f, party_keys


def _cmd_verify(args) -> int:
    try:
        scheme, n, f, party_keys = _read_keys(args.keys)
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        print(f"cannot read keys: {exc}", file=sys.stderr)
        return 2
    try:
        blocks = read_ledger(args.ledger, scheme)
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return 2
    except ValueError:
        # A ledger that does not even parse is an invalid ledger.
        print("ledger INVALID: corrupt encoding")
        return 1
    ok, seq, reason = verify_ledger_blocks(blocks, party_keys, n, f)
    if ok:
        print(f"ledger valid: {len(blocks)} blocks")
        return 0
    print(f"ledger INVALID at block {seq}: {reason}")
    return 1


def _cmd_sample_size(args) -> int:
    try:
        k = required_sample_size(args.alpha, args.p_fail)
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    print(k)
    return 0


def _cmd_stats(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
        table = summarize(report)
    except (OSError, KeyError, ValueError, TypeError, AttributeError, RecursionError) as exc:
        # A report of the wrong shape fails inside summarize: same verdict.
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shardbft")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="verify a ledger file offline")
    p_verify.add_argument("--ledger", required=True)
    p_verify.add_argument("--keys", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_sample = sub.add_parser("sample-size", help="compute the verification sample count")
    p_sample.add_argument("--alpha", type=float, required=True)
    p_sample.add_argument("--p-fail", type=float, required=True)
    p_sample.set_defaults(func=_cmd_sample_size)

    p_stats = sub.add_parser("stats", help="summarize a run report")
    p_stats.add_argument("--report", required=True)
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
