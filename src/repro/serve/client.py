"""Synchronous client facade over any advisory transport.

The ergonomic blocking wrapper callers use from scripts and tests —
against the in-process :class:`~repro.serve.server.AdvisoryServer`,
a started multi-process :class:`~repro.serve.supervisor.Supervisor`
(its blocking ``request``), or a remote cluster through
:class:`~repro.serve.netclient.SocketTransport`, all interchangeably
(anything satisfying :class:`~repro.serve.dispatch.Transport`); the
transport is :attr:`AdvisoryClient.transport`::

    with AdvisoryServer() as server:
        client = AdvisoryClient(server)
        lat = client.latency(4096, 4096, 4096)          # seconds
        tf = client.tflops(2048, 50304, 2560, gpu="H100")
        verdict = client.lint("gpt3-2.7b")              # exit_code, fixits

    client = AdvisoryClient(SocketTransport(port=9037))  # same calls

Failure handling is typed through :func:`~repro.serve.dispatch.
unwrap_advisory`: a non-ok advisory re-raises the
:class:`~repro.errors.ServeError` subclass named by its ``error_type``
(queue-full rejections already raise at submission), so callers never
parse message strings — locally or across the wire.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.serve.dispatch import Transport, unwrap_advisory as _unwrap
from repro.serve.protocol import Advisory, ShapeQuery

__all__ = ["AdvisoryClient"]


class AdvisoryClient:
    """Blocking convenience calls against one advisory transport."""

    def __init__(
        self, transport: Transport, timeout_s: Optional[float] = 30.0
    ) -> None:
        self.transport = transport
        #: Default per-call wait bound (seconds); ``None`` waits forever.
        self.timeout_s = timeout_s

    def advise(
        self, query: ShapeQuery, timeout_s: Optional[float] = None
    ) -> Advisory:
        """The raw advisory for one query (no unwrapping)."""
        return self.transport.request(
            query, timeout_s=timeout_s if timeout_s is not None else self.timeout_s
        )

    # -- shape kinds --------------------------------------------------------

    def evaluate(
        self,
        m: int,
        n: int,
        k: int,
        batch: int = 1,
        gpu: str = "A100",
        dtype: str = "fp16",
    ) -> Dict[str, Any]:
        """Full modeled performance record for one (batched) GEMM."""
        return _unwrap(
            self.advise(
                ShapeQuery(
                    kind="evaluate", m=m, n=n, k=k, batch=batch,
                    gpu=gpu, dtype=dtype,
                )
            )
        )

    def latency(
        self,
        m: int,
        n: int,
        k: int,
        batch: int = 1,
        gpu: str = "A100",
        dtype: str = "fp16",
    ) -> float:
        """Modeled latency in seconds."""
        payload = _unwrap(
            self.advise(
                ShapeQuery(
                    kind="latency", m=m, n=n, k=k, batch=batch,
                    gpu=gpu, dtype=dtype,
                )
            )
        )
        return float(payload["latency_s"])

    def tflops(
        self,
        m: int,
        n: int,
        k: int,
        batch: int = 1,
        gpu: str = "A100",
        dtype: str = "fp16",
    ) -> float:
        """Modeled useful-FLOPs throughput in TFLOP/s."""
        payload = _unwrap(
            self.advise(
                ShapeQuery(
                    kind="tflops", m=m, n=n, k=k, batch=batch,
                    gpu=gpu, dtype=dtype,
                )
            )
        )
        return float(payload["tflops"])

    # -- kernel params ------------------------------------------------------

    def kernel_params(
        self,
        m: int,
        n: int,
        k: int,
        batch: int = 1,
        gpu: str = "A100",
        dtype: str = "fp16",
    ) -> Dict[str, Any]:
        """Tuned kernel parameters for one GEMM (table or fallback).

        The payload names the tile geometry, wave/block counts,
        predicted latency/throughput, the runner-up with its margin,
        and provenance (``table_hit``, ``table_checksum``,
        ``model_version``) — see
        :meth:`repro.kernels.registry.KernelParamResolver.resolve`.
        """
        return _unwrap(
            self.advise(
                ShapeQuery(
                    kind="kernel_params", m=m, n=n, k=k, batch=batch,
                    gpu=gpu, dtype=dtype,
                )
            )
        )

    # -- lint ---------------------------------------------------------------

    def lint(
        self,
        model: "str | Mapping[str, Any]",
        gpu: str = "A100",
        dtype: str = "fp16",
        pipeline_stages: int = 1,
    ) -> Dict[str, Any]:
        """Shape-lint verdict (exit code, findings, quantified fix-its).

        ``model`` is a registered preset name or an inline config
        mapping of :class:`~repro.core.config.TransformerConfig` fields.
        """
        if isinstance(model, str):
            query = ShapeQuery(
                kind="lint", model=model, gpu=gpu, dtype=dtype,
                pipeline_stages=pipeline_stages,
            )
        else:
            query = ShapeQuery(
                kind="lint", config_items=tuple(sorted(model.items())),
                gpu=gpu, dtype=dtype, pipeline_stages=pipeline_stages,
            )
        return _unwrap(self.advise(query))
