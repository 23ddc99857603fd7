"""End-to-end and per-layer benchmark of the Penelope reproduction.

Run from the repository root with ``python -m bench``; see
``bench/README.md`` for the workloads, metrics and bounds, and
``BENCHMARK.json`` for the machine-readable definition.  Importing this
package imports nothing from ``repro``.
"""
