"""The per-layer performance ledger.

One command (``python -m benchmarks.ledger run``) runs the workloads
``BENCHMARK.json`` gates (a fourth, the server workload ``serve-mixed``,
runs only when named with ``--workload``), each in its own fresh subprocess, measures every end-to-end metric named
in the repository's ``BENCHMARK.json`` plus a per-layer breakdown, and
checks the program's outputs.  The ledger times calls into the public
functions of each layer from outside; it adds no code to ``src/``.
See ``README.md`` in this directory for the metrics and workloads.
"""
