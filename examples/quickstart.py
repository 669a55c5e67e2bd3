#!/usr/bin/env python
"""Quickstart: evaluate GEMM shapes and diagnose a transformer config.

Walks through the library's core loop in five steps:

1. ask the GPU model how fast a GEMM shape runs,
2. see the paper's alignment effect (k=80 vs k=64 vs k=128),
3. map a transformer to its Table II GEMMs,
4. get a latency breakdown for a named model,
5. run the Sec VI-B sizing rules on it.

Run:  python examples/quickstart.py
"""

from repro import GemmModel, LayerLatencyModel, ShapeLinter, get_model
from repro.core.gemms import layer_gemms


def main() -> None:
    # 1. One GEMM on one GPU.
    gemm = GemmModel("A100")
    perf = gemm.evaluate(8192, 10240, 2560)  # GPT-3 2.7B's MLP up-projection
    print("A single GEMM:")
    print(" ", perf.describe())

    # 2. The alignment effect: same-size GEMMs, different k divisibility.
    print("\nAlignment effect (m=n=4096, useful-FLOP throughput):")
    for k in (64, 80, 96, 128):
        p = gemm.evaluate(4096, 4096, k)
        print(
            f"  k={k:<4} pow2={k & -k:<4} {p.tflops:7.1f} TFLOP/s"
            f"  (alignment efficiency {p.alignment_eff:.2f})"
        )

    # 3. A transformer layer as GEMMs (paper Table II).
    cfg = get_model("gpt3-2.7b")
    print(f"\n{cfg.describe()}")
    print("Table II operators of one layer:")
    for op in layer_gemms(cfg):
        batch = f"{op.batch} x " if op.batch > 1 else ""
        print(f"  {op.module:<22} {batch}({op.m} x {op.k}) x ({op.k} x {op.n})")

    # 4. Where the time goes.
    model = LayerLatencyModel("A100")
    print("\nModel forward-pass latency breakdown:")
    print(model.model_breakdown(cfg).summary())

    # 5. The paper's sizing rules.
    print("\nSizing-rule diagnostics:")
    print(ShapeLinter("A100").lint(cfg).render_text())


if __name__ == "__main__":
    main()
