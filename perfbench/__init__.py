"""Benchmark of the shardbft simulator; see perfbench/README.md."""
