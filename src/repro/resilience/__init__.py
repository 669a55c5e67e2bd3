"""Fault-tolerant execution layer: isolation, retries, checkpoints, chaos.

Three cooperating pieces (see DESIGN.md "Resilience & fault injection"):

- :mod:`repro.resilience.execute` — per-task error isolation with
  deadline timeouts and retry/backoff, returning typed
  :class:`TaskOutcome` records instead of raising; process -> thread ->
  serial pool degradation.
- :mod:`repro.resilience.checkpoint` — the append-only fsync'd JSONL
  :class:`SweepJournal` behind every ``--resume`` flag.
- :mod:`repro.resilience.faults` — deterministic seeded fault plans
  injected at named :func:`fault_site` hooks (``repro run
  --inject-faults plan.json``), so every failure path above is testable.
"""
