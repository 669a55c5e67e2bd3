"""Benchmark harness: one experiment per paper figure/table.

- :mod:`repro.harness.results` — :class:`ResultTable`, the tabular
  output every experiment produces (markdown/CSV rendering, series
  extraction),
- :mod:`repro.harness.sweep` — parameter-sweep helpers,
- :mod:`repro.harness.experiment` — the :class:`Experiment` unit,
- :mod:`repro.harness.compare` — qualitative paper-shape checks
  (who wins, where the spikes are),
- :mod:`repro.harness.figures` — the registry mapping every figure and
  table of the paper to a runnable experiment,
- :mod:`repro.harness.runner` — programmatic/CLI entry point.
"""
