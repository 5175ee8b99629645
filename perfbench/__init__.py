"""Benchmark for semiconv: workloads, output checks and an outside tracer.

Run it with ``python3 perfbench/run.py``; see that file for the options.
"""
