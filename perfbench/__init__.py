"""Benchmark of the LHMM matching pipeline and its serving tier (see README.md)."""
