"""The qval benchmark: seeded workloads, an independent output checker and
a run-time tracer.  ``python3 bench/run.py --help`` runs it."""
