"""Multi-GPU parallelism substrate (paper Secs III-C, VI-B, VII-A).

The paper studies single-GPU kernels but its sizing rules are stated in
per-GPU terms (``h/t``, ``(b*a)/t``) and its Sec VII-A case study is
about node topology (Summit's 6-GPU nodes).  This package supplies the
machinery those results need:

- :mod:`repro.parallelism.comm` — alpha-beta cost model of ring
  collectives (all-reduce / all-gather),
- :mod:`repro.parallelism.topology` — the Table III systems and their
  interconnects,
- :mod:`repro.parallelism.tensor_parallel` — Megatron-style sharding of
  the Table II GEMMs, with per-rank latency + communication,
- :mod:`repro.parallelism.pipeline` — stage assignment and bubble
  overhead,
- :mod:`repro.parallelism.planner` — a (t, p, d) chooser over a cluster.
"""

from repro.parallelism.planner import ParallelPlanner
from repro.parallelism.sequence_parallel import SequenceParallelLayer
from repro.parallelism.tensor_parallel import TensorParallelLayer

__all__ = ["ParallelPlanner", "SequenceParallelLayer", "TensorParallelLayer"]
