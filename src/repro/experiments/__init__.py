"""Experiment harness: one module per paper figure.

Every table and figure of the paper's evaluation (Section VI) has a
regenerating function here; ``benchmarks/`` wraps them in
pytest-benchmark targets and EXPERIMENTS.md records paper-vs-measured.

- :mod:`repro.experiments.harness` — the cluster throughput harness
  (discrete-event), workload builders, series/table reporting,
- :mod:`repro.experiments.fig4_term_popularity` — Figure 4,
- :mod:`repro.experiments.fig5_doc_frequency` — Figure 5,
- :mod:`repro.experiments.fig67_single_node` — Figures 6 and 7,
- :mod:`repro.experiments.fig8_cluster` — Figure 8 (a–c),
- :mod:`repro.experiments.fig9_maintenance` — Figure 9 (a–d),
- :mod:`repro.experiments.registry` — id → runner mapping.
"""

from .harness import (
    ClusterThroughputHarness,
    ExperimentSeries,
    ScaledWorkload,
    StreamingWorkload,
    ThroughputResult,
    build_cluster,
    make_system,
    run_scheme_once,
)
from .plotting import ascii_plot, sparkline

__all__ = [
    "ClusterThroughputHarness",
    "ThroughputResult",
    "ExperimentSeries",
    "ScaledWorkload",
    "StreamingWorkload",
    "run_scheme_once",
    "build_cluster",
    "make_system",
    "ascii_plot",
    "sparkline",
]
