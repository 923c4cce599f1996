"""perfbench — the end-to-end and per-layer benchmark for raysearch.

``python3 perfbench/run.py --workload {build,query,serve} --seed N
--seconds S --trace {0,1}`` generates seeded inputs (gen.py), drives
raysearch through its public API in a one-CPU Ray session
(workloads.py), checks every result against ``raysearch.oracle.Oracle``
or ``query_index`` outside the timed window, and prints one JSON result
line. ``--trace 1`` instead replays each layer's public functions
in-process on the same inputs (replay.py) and reports per-layer self
times and counts, with what Ray costs as the ``*.ray_s`` residual.
"""
