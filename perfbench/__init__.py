"""Benchmark of the repro package: three workloads, end-to-end and per-layer metrics."""
