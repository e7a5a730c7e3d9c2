"""Stages for ``test_import_guard``: they use nothing but the stage API
and report, through ``result()``, what their process has imported."""

import os
import sys
from typing import Any, Dict

from repro.core.api import StageContext, StreamProcessor


class ModulesRelay(StreamProcessor):
    """Forwards every item; ``result()`` is the hosting process's pid,
    the module it runs as ``__main__`` and the sorted names in its
    ``sys.modules``."""

    def on_item(self, payload: Any, context: StageContext) -> None:
        context.emit(payload)

    def result(self) -> Dict[str, Any]:
        main_spec = getattr(sys.modules["__main__"], "__spec__", None)
        return {
            "pid": os.getpid(),
            "main": getattr(main_spec, "name", None),
            "modules": sorted(sys.modules),
        }


class ModulesSink(ModulesRelay):
    """Counts what arrives instead of forwarding it."""

    def __init__(self) -> None:
        self.items = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.items += 1

    def result(self) -> Dict[str, Any]:
        return dict(super().result(), items=self.items)
