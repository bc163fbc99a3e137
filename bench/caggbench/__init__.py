"""Benchmark harness for the caggnet engine.

It drives the program only through its public Python API. Layer timings
come from wrappers installed around public functions (see `tracing`), so
the program's own source is never modified to be measured.
"""
