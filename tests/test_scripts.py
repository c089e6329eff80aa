"""Smoke tests for the scripts under `tests/` that pytest does not collect:
they read node attributes and perfbench names directly, so a rename would
otherwise break them unnoticed."""

import re
import subprocess
import sys
from pathlib import Path

import byte_sweep
import fork_sweep
import state_sizes

ROOT = Path(__file__).resolve().parents[1]


def test_state_sizes_reads_every_structure():
    rows = state_sizes.sizes(0.2)
    assert rows and all(type(size) is int for size in rows.values()), rows


def test_byte_sweep_builds_every_scenario():
    assert len(byte_sweep.scenarios()) == 622


def test_fork_sweep_flags_the_pinned_forked_draws():
    # Tier-1's first draws, whose forks test_acceptance.py pins as xfails.
    assert list(fork_sweep.forked_draws(20261018, 11)) == [2, 5, 7, 8, 10]


def test_unreached_lists_what_a_selection_never_runs():
    out = subprocess.run(
        [sys.executable, "tests/unreached.py", "-q", "-p", "no:cacheprovider", "tests/test_pools.py"],
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
