"""The paper's quantitative anchors, measured on our substrate.

Each test computes one of the paper's headline numbers with the library
and checks it against the band recorded in
:mod:`repro.calibration.data` (the paper's value sits inside each band;
bands are wide because the substrate is a model, not their silicon).
"""

from repro.calibration.data import get_anchor
from repro.core.advisor import ShapeAdvisor
from repro.core.breakdown import LARGE_CONFIG, MEDIUM_CONFIG, gemm_share
from repro.core.config import get_model
from repro.core.latency import LayerLatencyModel
from repro.gpu.gemm_model import GemmModel


class TestGemmShareAnchors:
    def test_medium_model_share(self):
        anchor = get_anchor("gemm_share_medium")
        measured = gemm_share(MEDIUM_CONFIG)
        assert anchor.check(measured), f"measured {measured:.3f}, paper {anchor.paper_value}"

    def test_large_model_share(self):
        anchor = get_anchor("gemm_share_large")
        measured = gemm_share(LARGE_CONFIG)
        assert anchor.check(measured), f"measured {measured:.3f}, paper {anchor.paper_value}"


class TestRetuneAnchors:
    def test_gpt3_27b_retune_speedup(self):
        # Paper Sec I: "trained almost 20% faster ... through minor
        # tweaking of the model shape".
        anchor = get_anchor("gpt3_27b_retune_speedup")
        best = ShapeAdvisor("A100").best(get_model("gpt3-2.7b"))
        assert anchor.check(best.speedup), f"measured {best.speedup:.3f}"

    def test_max_single_layer_shape_gain(self):
        # Abstract: "up to 39% higher" throughput at equal parameters.
        anchor = get_anchor("max_shape_speedup")
        model = LayerLatencyModel("A100")
        base = get_model("gpt3-2.7b")
        shapes = [base] + [
            base.with_overrides(num_heads=a) for a in (16, 20, 40, 64)
        ]
        tputs = [model.layer_throughput_tflops(cfg) for cfg in shapes]
        gain = max(tputs) / min(tputs)
        assert anchor.check(gain), f"measured {gain:.3f}"


class TestCrossGPUAnchors:
    def test_h100_a100_ratio(self):
        # Sec VIII: BERT MLPerf results show ~3:1 H100:A100, matching
        # kernel throughput.
        anchor = get_anchor("h100_a100_ratio")
        shape = (8192, 10240, 2560)
        ratio = GemmModel("H100").tflops(*shape) / GemmModel("A100").tflops(*shape)
        assert anchor.check(ratio), f"measured {ratio:.3f}"

    def test_v100_slower_than_a100(self):
        shape = (8192, 10240, 2560)
        assert GemmModel("V100").tflops(*shape) < GemmModel("A100").tflops(*shape)

    def test_same_shape_rules_hold_on_all_gpus(self):
        # The guidelines are claimed to transfer across the GPU zoo.
        for gpu in ("V100", "A100", "H100", "MI250X"):
            model = GemmModel(gpu)
            aligned = model.latency(4096, 4096, 64)
            misaligned = model.latency(4096, 4096, 80)
            assert aligned < misaligned, gpu
