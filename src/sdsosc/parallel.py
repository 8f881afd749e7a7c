"""Ordered map over grid points: a plain loop, kept as the seam ``bench/tracer.py`` wraps by name."""


def parallel_map(fn, items):
    return [fn(item) for item in items]
