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

from repro.analysis import LintDiagnostic, LintReport, SelfLinter, ShapeLinter
from repro.core.advisor import Proposal, ShapeAdvisor
from repro.core.config import TransformerConfig, get_model, list_models, register_model
from repro.core.latency import LatencyBreakdown, LayerLatencyModel
from repro.core.memory import MemoryBudget, inference_bytes
from repro.core.profile import TraceProfiler
from repro.core.whatif import WhatIfAnalyzer
from repro.core.rules import Diagnostic, RuleEngine, Severity
from repro.errors import (
    CalibrationError,
    ConfigError,
    ExperimentError,
    GPUModelError,
    ParallelismError,
    ReproError,
    ShapeError,
)
from repro.gpu.bmm_model import BmmShape
from repro.gpu.gemm_model import GemmModel, GemmPerf
from repro.gpu.specs import GPUSpec, get_gpu, list_gpus
from repro.inference.latency import InferenceModel
from repro.trainstep import TrainStepEstimator, estimate_memory
from repro.transformer.flash import FlashAttentionModel, flash_attention
from repro.transformer.generate import generate, perplexity
from repro.transformer.model import DecoderModel
from repro.transformer.trace import MatmulRecord, OpTrace
from repro.types import DType, TimeEstimate

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigError",
    "ShapeError",
    "GPUModelError",
    "ParallelismError",
    "ExperimentError",
    "CalibrationError",
    # gpu substrate
    "GPUSpec",
    "get_gpu",
    "list_gpus",
    "GemmModel",
    "GemmPerf",
    "BmmShape",
    # transformer substrate
    "DecoderModel",
    "OpTrace",
    "MatmulRecord",
    "flash_attention",
    "FlashAttentionModel",
    "generate",
    "perplexity",
    # core
    "TransformerConfig",
    "get_model",
    "list_models",
    "register_model",
    "LayerLatencyModel",
    "LatencyBreakdown",
    "TrainStepEstimator",
    "TraceProfiler",
    "WhatIfAnalyzer",
    "MemoryBudget",
    "estimate_memory",
    "inference_bytes",
    "RuleEngine",
    "Diagnostic",
    "Severity",
    "ShapeAdvisor",
    "Proposal",
    # lint (repro.analysis)
    "ShapeLinter",
    "SelfLinter",
    "LintReport",
    "LintDiagnostic",
    # inference
    "InferenceModel",
    # common types
    "DType",
    "TimeEstimate",
]
