"""The repository's benchmark: three workloads, one command, checked outputs.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout and
prints its metrics; ``perfbench/spec.json`` records why each workload was
chosen, its sizes and loop shape, and which end-to-end metric each
per-layer metric should move.
"""
