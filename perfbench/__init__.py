"""Benchmark package: ``python3 perfbench/run.py --help``."""
