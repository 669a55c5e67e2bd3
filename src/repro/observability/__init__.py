"""Observability: structured tracing, metrics, and trace reports.

A stdlib-only leaf package — it imports nothing from the layers it
instruments, so any module in the codebase can safely call
:func:`span` / :func:`event` / :func:`metrics` without creating an
import cycle.

Tracing is zero-cost when disabled: :func:`span` performs a single
module-global read and returns a shared no-op singleton unless a
:class:`TraceRecorder` has been installed (see
:class:`~repro.observability.tracing.recording`).

The package re-exports the tracing entry points only; metrics live in
:mod:`repro.observability.metrics` and trace reports in
:mod:`repro.observability.report`.
"""

from repro.observability.tracing import (
    Span,
    TraceRecorder,
    current_recorder,
    install_recorder,
    load_trace,
    span,
)

__all__ = [
    "Span",
    "TraceRecorder",
    "current_recorder",
    "install_recorder",
    "load_trace",
    "span",
]
