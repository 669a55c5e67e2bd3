#!/usr/bin/env python
"""Plan a training run: sensitivity ranking + memory budgeting.

Two practitioner questions the paper's rules feed into:

1. *Which knob should I touch first?* — the what-if analyzer perturbs
   every shape hyperparameter within its feasible neighbourhood and
   ranks the payoffs.
2. *How big can my microbatch be?* — "b as large as possible" (rule 2)
   is a memory constraint; the training-step memory estimator answers
   it per sharding choice, with and without full activation
   checkpointing.

Run:  python examples/sensitivity_and_memory.py
"""

from repro import get_model
from repro.core.memory import MemoryBudget, inference_bytes
from repro.core.whatif import WhatIfAnalyzer
from repro.trainstep import estimate_memory, max_microbatch


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

    print("\nmax microbatch per sharding (t x p), plain vs checkpointing:")
    for t, p in ((2, 2), (4, 2), (4, 4), (8, 4)):
        sharded = base.with_overrides(tp_degree=t)
        plain = max_microbatch(sharded, budget, pipeline_stages=p)
        ckpt = max_microbatch(sharded, budget, pipeline_stages=p, checkpointing="full")
        print(f"  t={t} p={p}:  b_max={plain:>3} plain, {ckpt:>3} with checkpointing")

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
