"""The SPATE performance ledger: seeded workloads, end-to-end metrics and
an outside-in per-layer trace.  See README.md in this directory."""
