"""repro — reproduction of GATES (HPDC 2004).

GATES (Grid-based Adaptive Execution on Streams) is a middleware for
processing distributed data streams as pipelines of stages deployed onto
grid resources, with self-adaptation of application-exposed *adjustment
parameters* so the analysis stays as accurate as possible while meeting
the real-time constraint.

Package map
-----------
``repro.simnet``       discrete-event simulation substrate (kernel, links,
                       hosts, queues, topology, tracing)
``repro.grid``         OGSA/Globus-like grid services (registry, broker,
                       service containers, code repository, XML config,
                       Launcher, Deployer)
``repro.core``         the GATES middleware (stage API, the Section 4
                       self-adaptation algorithm, simulated and threaded
                       runtimes)
``repro.streams``      stream sources, samplers, frequency sketches
``repro.apps``         the paper's application templates
``repro.metrics``      accuracy metrics
``repro.experiments``  one harness per evaluation table/figure

Importing a package loads none of its submodules: like a GATES service
container that receives only its stage's code, a process pays for the
modules it uses.  The names this facade (and a few packages) export are
resolved on first access by :func:`lazy_exports`.

Quickstart
----------
>>> from repro.experiments import build_star_fabric, run_comp_steer
>>> run = run_comp_steer(analysis_ms_per_byte=10.0, duration_seconds=60.0)
>>> 0.0 < run.converged_rate <= 1.0
True
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of ``package``, and its
    ``__all__``, for names that live in its submodules.

    ``exports`` maps each submodule (absolute, or relative to ``package``)
    to the names it provides.  A name's submodule is imported when the
    name is first read, and the value is then cached on the package.
    Code inside ``repro`` imports from the submodules directly, so no
    lookup resolves lazily in the middle of a run.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, sorted(where)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.adaptation.policy": ("AdaptationPolicy",),
    "repro.core.api": ("AdjustmentParameter", "StageContext", "StreamProcessor"),
    "repro.core.results": ("RunResult",),
    "repro.core.runtime_sim": ("SimulatedRuntime", "SourceBinding"),
    "repro.core.runtime_threads": ("ThreadedRuntime",),
    "repro.grid.config": ("AppConfig", "StageConfig", "StreamConfig"),
    "repro.grid.deployer": ("Deployer",),
    "repro.grid.launcher": ("Launcher",),
    "repro.grid.registry": ("ServiceRegistry",),
    "repro.grid.repository": ("CodeRepository",),
    "repro.simnet.engine": ("Environment",),
    "repro.simnet.hosts": ("Host",),
    "repro.simnet.links": ("Link",),
    "repro.simnet.topology": ("Network",),
})
__all__.append("__version__")
