"""Smoke tests for the scripts under `tests/` that pytest does not collect:
they read node attributes and perfbench names directly, so a rename would
otherwise break them unnoticed."""

import byte_sweep
import state_sizes


def test_state_sizes_reads_every_structure():
    rows = state_sizes.sizes(0.2)
    assert rows and all(type(size) is int for size in rows.values()), rows


def test_byte_sweep_builds_every_scenario():
    assert len(byte_sweep.scenarios()) == 623
