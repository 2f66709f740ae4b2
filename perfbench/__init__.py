"""Benchmark of the ubss_codec pipeline; run it with ``python3 perfbench/run.py``."""
