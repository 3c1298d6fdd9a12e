"""Benchmark for pgzo; see run.py."""
