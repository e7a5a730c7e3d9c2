"""Broken fixture: a driver writes its own copy of a kernel piece."""

from repro.core.api import StageContext


def build_route_units(edges):  # expect: GA520
    return [edge for edge in edges]


class _WorkerContext(StageContext):  # expect: GA520
    pass
