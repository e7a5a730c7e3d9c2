"""GATES middleware core: stage API, self-adaptation, runtimes.

This package is the paper's primary contribution:

* :mod:`repro.core.api` — the developer-facing stage API
  (:class:`StreamProcessor`, :meth:`StageContext.specify_parameter` /
  :meth:`StageContext.get_suggested_value`, mirroring Section 3.3's
  ``specifyPara`` / ``getSuggestedValue``).
* :mod:`repro.core.adaptation` — the self-adaptation algorithm of
  Section 4 (load factors φ₁/φ₂/φ₃, the long-term load score d̃, the
  over-/under-load exception protocol, and the ΔP parameter controller).
* :mod:`repro.core.run` — ``run(config, runtime, options, sources)``,
  the one way to run a configuration on any runtime, and ``RunOptions``.
* :mod:`repro.core.runtime_sim` — the deterministic discrete-event
  runtime that executes a deployed application over the simulated grid.
* :mod:`repro.core.runtime_threads` — a real-thread runtime with
  token-bucket throttled links, demonstrating the middleware under real
  concurrency.
"""
