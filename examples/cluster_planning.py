#!/usr/bin/env python
"""Case study: 6-GPU Summit nodes vs 8-GPU cloud nodes (paper Sec VII-A).

Summit has six V100s per node, so the natural tensor-parallel degree is
t=6 — but the standard 2.7B shape (h=2560, a=32) cannot even be sharded
six ways, and shapes that can (h divisible by 6 and 64, e.g. 2688) pay
for it later: h/8 = 336 has a power-of-two factor of only 16, degrading
every GEMM when downstream users fine-tune or serve on 8-GPU nodes.

This script quantifies the trilemma and then lets the planner pick a
full (t, p, d) decomposition on both systems.

Run:  python examples/cluster_planning.py
"""

from repro import get_model
from repro.gpu.alignment import largest_pow2_divisor
from repro.parallelism import ParallelPlanner, TensorParallelLayer


def main() -> None:
    shapes = {
        "8-GPU-friendly h=2560/a=32": get_model("gpt3-2.7b", microbatch=6),
        "Summit-friendly h=2688/a=24": get_model(
            "gpt3-2.7b", microbatch=6
        ).with_overrides(name="h2688", hidden_size=2688, num_heads=24),
    }

    for system in ("ornl-summit", "aws-p4d"):
        tp = TensorParallelLayer(system)
        print(f"\n=== {tp.topology.describe()} ===")
        for label, cfg in shapes.items():
            print(f"  {label}:")
            degrees = [t for t in (2, 4, 6, 8) if t <= tp.topology.gpus_per_node]
            table = tp.layer_costs(cfg, degrees)
            for t in degrees:
                if t not in table:
                    print(f"    t={t}: INFEASIBLE (h or a not divisible by {t})")
                    continue
                cost = table[t]
                h_t = cfg.hidden_size // t
                print(
                    f"    t={t}: h/t={h_t} (pow2 {largest_pow2_divisor(h_t)}), "
                    f"layer {cost.total_s * 1e3:.2f} ms "
                    f"(comm {100 * cost.comm_fraction:.0f}%)"
                )

    print("\n=== Planner: GPT-3 6.7B on 2 nodes of each system ===")
    cfg = get_model("gpt3-6.7b", microbatch=1)
    for system, gpus in (("ornl-summit", 12), ("aws-p4d", 16)):
        planner = ParallelPlanner(system)
        plans = planner.plan(cfg, gpus, require_fit=False)[:3]
        print(f"  {system} ({gpus} GPUs):")
        for plan in plans:
            print(f"    {plan.describe()}")


if __name__ == "__main__":
    main()
