#!/usr/bin/env python
"""Plan a training run: sensitivity ranking + memory budgeting.

Two practitioner questions the paper's rules feed into:

1. *Which knob should I touch first?* — the what-if analyzer perturbs
   every shape hyperparameter within its feasible neighbourhood and
   ranks the payoffs.
2. *Does my microbatch fit?* — "b as large as possible" (rule 2) is a
   memory constraint; the training-step memory estimator answers it
   per sharding choice, with and without full activation
   checkpointing.

Run:  python examples/sensitivity_and_memory.py
"""

from repro import get_model
from repro.analysis.whatif import WhatIfAnalyzer
from repro.core.memory import MemoryBudget, inference_bytes
from repro.trainstep import estimate_memory


def main() -> None:
    cfg = get_model("gpt-neo-2.7b")  # the 2.7B clone with v=50257

    print("=== 1. What should I change first? ===")
    print(WhatIfAnalyzer("A100").report(cfg))

    print("\n=== 2. Memory planning on A100-40GB ===")
    budget = MemoryBudget.for_gpu("A100")
    base = cfg.with_overrides(microbatch=1)
    usage = estimate_memory(base)
    states = usage.parameter_bytes + usage.gradient_bytes + usage.optimizer_state_bytes
    print(
        f"unsharded training peak at b=1: {usage.peak_bytes / 1e9:.1f} GB "
        f"(states {states / 1e9:.1f} GB + "
        f"activations {usage.activation_bytes / 1e9:.1f} GB) "
        f"vs budget {budget.usable_bytes / 1e9:.1f} GB"
    )

    print("\ntraining peak at b=8 per sharding (t x p), plain vs checkpointing:")
    for t, p in ((2, 2), (4, 2), (4, 4), (8, 4)):
        sharded = cfg.with_overrides(tp_degree=t, microbatch=8)
        verdicts = []
        for policy in ("none", "full"):
            mem = estimate_memory(sharded, pipeline_stages=p, checkpointing=policy)
            fits = "fits" if mem.fits(budget) else "OOM"
            verdicts.append(f"{mem.peak_bytes / 1e9:5.1f} GB {fits:<4}")
        print(f"  t={t} p={p}:  {verdicts[0]} plain, {verdicts[1]} with checkpointing")

    print("\n=== 3. Serving footprints ===")
    for name in ("pythia-2.8b", "mistral-7b", "llama2-70b"):
        model = get_model(name, microbatch=1)
        usage = inference_bytes(model, context_len=8192)
        print(
            f"  {name:<12} weights {usage.weights_and_optimizer / 1e9:6.1f} GB  "
            f"kv@8k {usage.kv_cache / 1e9:6.2f} GB  total {usage.gb():6.1f} GB"
        )
    print(
        "\nNote mistral-7b's tiny KV cache: grouped-query attention (kv=8)"
        "\nplus the 4096-token sliding window bound it."
    )


if __name__ == "__main__":
    main()
