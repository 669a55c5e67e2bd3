"""The paper's primary contribution: shape-aware transformer analysis.

- :mod:`repro.core.config` — transformer shape configurations and the
  named model presets used throughout the paper (GPT-3 family, Pythia
  suite, Llama-2, the Fig 1 C1/C2 retunes, ...),
- :mod:`repro.core.formulas` — parameter/FLOP/memory formulas (Sec III-C),
- :mod:`repro.core.gemms` — the Table II operator -> GEMM mapping,
- :mod:`repro.core.latency` — per-layer / per-model latency composition
  over the GPU substrate,
- :mod:`repro.core.breakdown` — latency-proportion analyses (Figs 2, 11),
- :mod:`repro.core.advisor` — the shape-improvement search that
  reproduces the paper's case studies (e.g. GPT-3 2.7B -> C2).
"""
