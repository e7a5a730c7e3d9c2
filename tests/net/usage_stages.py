"""Stages that report, through ``result()``, the pid of the process that
hosts them and the CPU time it has used (``getrusage(RUSAGE_SELF)``)."""

import os
import resource
import time
from typing import Any, Dict

from repro.core.api import StageContext, StreamProcessor

#: CPU seconds ``UsageSink.result()`` burns before it reports, so its
#: process's share of the accounting is too large to hide in slack.
BURN_S = 0.1


def _usage() -> Dict[str, Any]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"pid": os.getpid(), "cpu_s": usage.ru_utime + usage.ru_stime}


class UsageRelay(StreamProcessor):
    """Forwards every item."""

    def on_item(self, payload: Any, context: StageContext) -> None:
        context.emit(payload)

    def result(self) -> Dict[str, Any]:
        return _usage()


class UsageSink(StreamProcessor):
    """Counts what arrives."""

    def __init__(self) -> None:
        self.items = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.items += 1

    def result(self) -> Dict[str, Any]:
        until = time.process_time() + BURN_S
        while time.process_time() < until:
            pass
        return dict(_usage(), items=self.items)
