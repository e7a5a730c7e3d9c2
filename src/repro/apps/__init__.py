"""The paper's application templates, written against the GATES stage API.

* :mod:`repro.apps.count_samps` — the distributed counting-samples
  application of Sections 5.1–5.3: per-source filter stages maintain a
  Gibbons–Matias counting sample whose size is the adjustment parameter,
  a join stage merges per-source summaries and answers "top 10 most
  frequent integers".  Also provides the centralized baseline (relay
  stages forwarding raw data).
* :mod:`repro.apps.comp_steer` — the computational-steering application
  of Sections 5.1, 5.4, 5.5: a sampling stage whose sampling rate is the
  adjustment parameter feeds an analysis stage with a per-byte
  processing cost.
* :mod:`repro.apps.intrusion` — the network-intrusion-detection
  motivating application of Section 2, built from the same substrate
  (distributed port-scan detection over connection logs).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".algo_switch": ("AlgorithmLadder", "AlgorithmRung", "AlgorithmSwitchingFilterStage"),
    ".comp_steer": ("AnalysisStage", "SamplingStage", "build_comp_steer_config"),
    ".count_samps": (
        "CentralCountStage", "IntermediateMergeStage", "JoinStage", "RelayStage",
        "SourceFilterStage", "build_centralized_config", "build_distributed_config",
        "build_hierarchical_config",
    ),
    ".intrusion": ("AlertStage", "LogFilterStage", "build_intrusion_config"),
})
