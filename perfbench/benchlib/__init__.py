"""Library behind ``perfbench/run.py``: inputs, tracing, oracles, workloads."""
