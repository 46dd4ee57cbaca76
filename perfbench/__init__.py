"""The repository's end-to-end benchmark (see ``perfbench/README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload fleet-ingest --seed 1 --seconds 50 --trace 0
"""
