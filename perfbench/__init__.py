"""The mazeswitch benchmark: suite workloads, a traced per-layer run and a digest gate.

Run one workload from the repository root::

    python3 perfbench/run.py --workload small-all --seed 0 --seconds 30 --trace 0

See ``perfbench/README.md`` for the metrics, the workloads and why each
exists.
"""
