#!/usr/bin/env python
"""Profile a real training step: executed matmuls -> modelled kernel time.

Closes the paper's Fig 2/11 loop end to end: run an actual (small)
NumPy forward *and backward* pass, record every matmul the computation
executed, price each one on the GPU model, and print the per-module
profile a hardware profiler would show — no hand-derived mapping in the
middle.

Run:  python examples/profile_training_step.py
"""

import numpy as np

from repro import DecoderModel, OpTrace, TraceProfiler
from repro.harness.results import ResultTable
from repro.transformer.backward import loss_and_gradients


def main() -> None:
    model = DecoderModel(
        vocab_size=512,
        max_seq=64,
        hidden_size=256,
        num_heads=4,
        num_layers=4,
        rng=np.random.default_rng(0),
    )
    ids = np.random.default_rng(1).integers(0, 512, size=(64, 4))

    trace = OpTrace()
    loss, _grads = loss_and_gradients(model, ids, trace)
    print(
        f"executed one training step: loss {loss:.3f}, "
        f"{len(trace)} matmuls, {trace.flops() / 1e9:.2f} GFLOP"
    )

    fwd = sum(r.flops for r in trace if "." not in r.module)
    bwd = sum(r.flops for r in trace if "." in r.module)
    print(f"forward:backward FLOP split = 1 : {bwd / fwd:.1f}\n")

    profiles = TraceProfiler("A100").profile(trace)
    total = sum(p.latency_s for p in profiles)
    table = ResultTable(
        "Training step, priced on A100",
        ["module", "calls", "latency_ms", "share", "tflops"],
        notes="priced on A100 (FP16)",
    )
    for p in profiles:
        table.add(p.module, p.calls, p.latency_s * 1e3, p.latency_s / total, p.tflops)
    print(table)

    # The headline structure the paper's Figs 2/11 report, from the
    # *executed* ops: dense GEMMs dominate; attention BMMs are small.
    dense = sum(
        p.latency_s
        for p in profiles
        if p.module.split(".")[0]
        in ("qkv_transform", "attention_projection", "mlp_h_to_4h", "mlp_4h_to_h", "logit")
    )
    print(
        f"\ndense GEMMs (QKV/proj/MLP/logit incl. backward): "
        f"{100 * dense / total:.1f}% of modelled kernel time"
    )


if __name__ == "__main__":
    main()
