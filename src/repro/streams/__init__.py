"""Stream sources, samplers, and summary structures (sketches).

This package provides the data-stream substrate the paper's applications
are built from:

* :mod:`repro.streams.sources` — deterministic synthetic stream generators
  (skewed integer streams for count-samps, mesh-value streams for
  comp-steer, connection-log streams for the intrusion-detection
  motivating application).
* :mod:`repro.streams.sampling` — sampling operators, including the
  adjustable-rate sampler that comp-steer exposes as its adjustment
  parameter.
* :mod:`repro.streams.sketches` — bounded-memory frequency summaries:
  Counting Samples (Gibbons–Matias, the paper's algorithm), plus
  Misra–Gries, Space-Saving, and Lossy Counting as alternative algorithms
  (the paper notes self-adaptation may also switch "the choice of the
  algorithm to be used").
"""
