"""Experiment harness: one module per table/figure of the evaluation.

* :mod:`repro.experiments.common` — fabric builders and runners shared by
  all experiments.
* :mod:`repro.experiments.fig5` — Figure 5 (table): centralized vs
  distributed count-samps.
* :mod:`repro.experiments.fig6_7` — Figures 6 and 7: execution time and
  accuracy of fixed-k versions vs the self-adapting version across
  bandwidths.
* :mod:`repro.experiments.fig8` — Figure 8: sampling-factor convergence
  under a processing constraint.
* :mod:`repro.experiments.fig9` — Figure 9: sampling-factor convergence
  under a network constraint.

Each module exposes a ``run_*`` function returning structured rows; the
CLI prints them next to the paper's numbers (``python -m repro fig5``,
``fig6-7``, ``fig8``, ``fig9``).  :mod:`repro.experiments.dynamic`, an
extension with no verb, runs as ``python -m repro.experiments.dynamic``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".common": (
        "CountSampsRun", "GridFabric", "build_star_fabric", "run_comp_steer",
        "run_count_samps_centralized", "run_count_samps_distributed",
    ),
})
