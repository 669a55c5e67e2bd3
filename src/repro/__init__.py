"""repro — hardware-aware transformer shape analysis.

A from-scratch reproduction of *The Case for Co-Designing Model
Architectures with Hardware* (Anthony et al., ICPP 2024): a
first-principles GPU GEMM performance model (Tensor Core alignment,
tile/wave quantization, roofline), a traced NumPy transformer that
validates the paper's operator->GEMM mapping, the sizing-rule
diagnostics and shape advisor, parallelism and inference substrates,
and a harness that regenerates every figure and table in the paper.

Quick start::

    from repro import GemmModel, get_model, LayerLatencyModel

    gemm = GemmModel("A100")
    print(gemm.evaluate(8192, 10240, 2560).describe())

    model = LayerLatencyModel("A100")
    cfg = get_model("gpt3-2.7b")
    print(model.model_breakdown(cfg).summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every experiment.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro.gpu.specs`` loads only what that
#: module needs.
_EXPORTS: Dict[str, str] = {
    # errors
    "ReproError": "repro.errors",
    "ConfigError": "repro.errors",
    "ShapeError": "repro.errors",
    "GPUModelError": "repro.errors",
    "ParallelismError": "repro.errors",
    "ExperimentError": "repro.errors",
    "CalibrationError": "repro.errors",
    # gpu substrate
    "GPUSpec": "repro.gpu.specs",
    "get_gpu": "repro.gpu.specs",
    "list_gpus": "repro.gpu.specs",
    "GemmModel": "repro.gpu.gemm_model",
    "GemmPerf": "repro.gpu.gemm_model",
    "BmmShape": "repro.gpu.bmm_model",
    # transformer substrate
    "DecoderModel": "repro.transformer.model",
    "OpTrace": "repro.transformer.trace",
    "MatmulRecord": "repro.transformer.trace",
    "flash_attention": "repro.transformer.flash",
    "FlashAttentionModel": "repro.transformer.flash",
    "generate": "repro.transformer.generate",
    "perplexity": "repro.transformer.generate",
    # core
    "TransformerConfig": "repro.core.config",
    "get_model": "repro.core.config",
    "list_models": "repro.core.config",
    "register_model": "repro.core.config",
    "LayerLatencyModel": "repro.core.latency",
    "LatencyBreakdown": "repro.core.latency",
    "TrainStepEstimator": "repro.trainstep.step",
    "TraceProfiler": "repro.core.profile",
    "WhatIfAnalyzer": "repro.analysis.whatif",
    "MemoryBudget": "repro.core.memory",
    "estimate_memory": "repro.trainstep.memory",
    "inference_bytes": "repro.core.memory",
    "ShapeAdvisor": "repro.core.advisor",
    "Proposal": "repro.core.advisor",
    # lint (repro.analysis)
    "ShapeLinter": "repro.analysis.shape_rules",
    "SelfLinter": "repro.analysis.selflint",
    "LintReport": "repro.analysis.diagnostics",
    "LintDiagnostic": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    # inference
    "InferenceModel": "repro.inference.latency",
    # common types
    "DType": "repro.types",
    "TimeEstimate": "repro.types",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
