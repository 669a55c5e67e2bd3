"""Static analysis: the co-design shape linter and the self-lint pass.

Two prongs over one diagnostics currency (see
:mod:`repro.analysis.diagnostics`):

- :class:`ShapeLinter` checks a :class:`~repro.core.config.
  TransformerConfig` against the paper's sizing rules, with fix-its
  quantified through the memoized engine (``repro lint <config>``).
- :class:`SelfLinter` checks the ``repro`` source tree itself for
  engine-misuse and cache-correctness hazards (``repro lint --self``).

A third, flow-sensitive prong lives in :mod:`repro.analysis.flow`
(:class:`FlowLinter`): CFG + abstract-interpretation rules for
unit/dimension consistency, lock/async discipline, and observability
hygiene (``repro lint --flow``; also folded into ``--self``).

:mod:`repro.analysis.whatif` ranks a config's shape knobs by their
best modelled payoff (``repro whatif``).  It sits here, above
:mod:`repro.trainstep`, because its microbatch move is gated on the
training-step memory model.
"""
