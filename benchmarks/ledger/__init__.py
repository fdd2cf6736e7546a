"""Perf ledger v1: the calibrated end-to-end + per-layer benchmark.

See ``README.md`` in this directory.
"""
