"""The quickstart application: squares near the source, a mean at the center.

A two-stage pipeline small enough to read in one sitting: ``square``
runs on an ``edge`` host near the instrument, ``average`` on a 4-core
``central`` host, a 10 KB/s link between them.  ``examples/quickstart.py``
walks through it and ``repro report`` runs it as its built-in data
source (:func:`repro.obs.report.run_quickstart_demo`); both run it with
:func:`repro.core.run.run` on :func:`quickstart_fabric`.
"""

from __future__ import annotations

from typing import Any

from repro.core.api import CpuCostModel, StageContext, StreamProcessor
from repro.core.kernel import SourceBinding
from repro.grid.fabric import GridFabric, star_fabric

__all__ = ["APP_XML", "Averager", "Squarer", "numbers", "quickstart_fabric"]


class Squarer(StreamProcessor):
    """First stage: near the source, squares each value."""

    cost_model = CpuCostModel(per_item=1e-4)

    def on_item(self, payload: Any, context: StageContext) -> None:
        context.emit(payload * payload, size=8.0)


class Averager(StreamProcessor):
    """Second stage: central, keeps a running mean."""

    cost_model = CpuCostModel(per_item=1e-4)

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self._count += 1
        self._total += payload

    def result(self) -> float:
        return self._total / self._count if self._count else 0.0


#: The application as its user describes it to the Launcher.
APP_XML = """
<application name="quickstart">
  <stage name="square" code="repo://quickstart/square">
    <requirement placement="near:edge"/>
  </stage>
  <stage name="average" code="repo://quickstart/average">
    <requirement min-cores="2"/>
  </stage>
  <stream name="squares" from="square" to="average" item-size="8.0"/>
</application>
"""


def quickstart_fabric() -> GridFabric:
    """The grid: an edge host near the instrument, a beefier central
    host, a 10 KB/s link between them, and both stage codes published."""
    fabric = star_fabric(["edge"], bandwidth=10_000.0, latency=0.01)
    fabric.repository.publish("repo://quickstart/square", Squarer)
    fabric.repository.publish("repo://quickstart/average", Averager)
    return fabric


def numbers() -> SourceBinding:
    """The instrument: the integers 1..100 at 200 items per second."""
    return SourceBinding("numbers", "square", payloads=range(1, 101), rate=200.0)
