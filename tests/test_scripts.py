"""Smoke tests for the scripts under `tests/` that pytest does not collect:
they read node attributes and perfbench names directly, so a rename would
otherwise break them unnoticed."""

import json
import re
import subprocess
import sys
from pathlib import Path

import byte_sweep
import fork_sweep
import repro
import state_sizes
from families import config, load

ROOT = Path(__file__).resolve().parents[1]


def test_state_sizes_reads_every_structure():
    rows = state_sizes.sizes(0.2)
    assert rows and all(type(size) is int for size in rows.values()), rows


def test_byte_sweep_builds_every_scenario():
    names = byte_sweep.scenarios()
    assert len(set(names)) == 622 and all(load(name) for name in names)
    assert not [name for name in names if name.startswith("repro/")]


def test_fork_sweep_flags_the_pinned_forked_draws():
    # Tier-1's first draws, whose forks test_acceptance.py pins as xfails.
    assert list(fork_sweep.forked_draws(20261018, 11)) == [2, 5, 7, 8, 10]


def test_repro_prints_the_config_and_names_the_first_violation(capsys):
    # ROADMAP item 1's tiny repro, which deposes the correct p1 38 ms into
    # its term until item 1 closes it.
    status = repro.main(["repro/tiny"])
    out, err = capsys.readouterr()
    assert json.loads(out) == config("repro/tiny")
    first, failed, quiescent = err.splitlines()
    assert re.fullmatch(r"first violation: (none|t=\d+\.\d{6} s: .+)", first), first
    assert failed.startswith("failed checks: ") and quiescent in ("quiescent: True", "quiescent: False")
    assert status == (err != "first violation: none\nfailed checks: none\nquiescent: True\n")


def test_unreached_lists_what_a_selection_never_runs():
    # The pool tests without their Hypothesis state machine, which doubles the
    # traced run time and reaches no statement that the other pool tests miss.
    selection = ["tests/test_pools.py", "-k", "not TestRequestPool"]
    out = subprocess.run(
        [sys.executable, "tests/unreached.py", "-q", "-p", "no:cacheprovider", *selection],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    listed = re.findall(r"^(src/shardbft/\S+\.py):(\d+): (.*)$", out, re.M)
    files = {path for path, _, _ in listed}
    assert out.rstrip().endswith(f"{len(listed)} statements unreached in {len(files)} files")
    for path, line, text in listed:
        assert (ROOT / path).read_text().splitlines()[int(line) - 1].strip() == text
    # The pool tests never verify a header, and import every pool method.
    assert ("src/shardbft/assembler.py", "valid = set()") in {(path, text) for path, _, text in listed}
    assert not [text for path, _, text in listed if path.endswith("pools.py") and text.startswith(("class", "def"))]
