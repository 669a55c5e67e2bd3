"""Deep property-based invariants tying the subsystems together.

These hypothesis suites encode the contracts the rest of the library
leans on: physical bounds of the GPU model, conservation laws of the
GEMM mappings, and round-trip guarantees of the harness structures.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.config import TransformerConfig
from repro.core.formulas import forward_flops_per_layer
from repro.core.gemms import (
    backward_gemms_for,
    layer_gemms,
    layer_rows,
    training_gemms,
)
from repro.errors import ParallelismError
from repro.gpu.gemm_model import GemmModel
from repro.gpu.specs import get_gpu
from repro.harness.results import ResultTable
from repro.types import DType

# Shared strategy: a valid transformer configuration.
configs = st.builds(
    lambda h_mult, a, L, v_mult, s_exp, b: TransformerConfig(
        name="prop",
        hidden_size=h_mult * a,
        num_heads=a,
        num_layers=L,
        vocab_size=64 * v_mult,
        seq_len=2**s_exp,
        microbatch=b,
    ),
    h_mult=st.integers(min_value=8, max_value=256),
    a=st.sampled_from([2, 4, 8, 12, 16, 20, 32]),
    L=st.integers(min_value=1, max_value=96),
    v_mult=st.integers(min_value=4, max_value=1024),
    s_exp=st.integers(min_value=5, max_value=13),
    b=st.integers(min_value=1, max_value=16),
)


class TestGemmModelPhysics:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=9000),
        st.integers(min_value=1, max_value=9000),
        st.integers(min_value=1, max_value=9000),
    )
    def test_throughput_never_exceeds_peak(self, m, n, k):
        spec = get_gpu("A100")
        perf = GemmModel(spec).evaluate(m, n, k)
        assert perf.tflops <= spec.matrix_peak_tflops(DType.FP16) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=4096),
    )
    def test_latency_at_least_overhead_plus_streaming(self, m, n, k):
        spec = get_gpu("A100")
        perf = GemmModel(spec).evaluate(m, n, k)
        compulsory = (m * k + k * n + m * n) * 2
        floor = spec.kernel_overhead_s + compulsory / spec.mem_bw_bytes_per_s()
        assert perf.latency_s >= floor * 0.999

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=32, max_value=2048),
        st.integers(min_value=1, max_value=64),
    )
    def test_batch_superlinearity_never_happens(self, size, batch):
        # b problems can never finish faster than 1/b of one kernel's
        # amortized rate (no free lunch from batching).
        model = GemmModel("A100")
        one = model.evaluate(size, size, 64)
        many = model.evaluate(size, size, 64, batch=batch)
        assert many.latency_s >= one.latency_s  # more work, never faster
        # And batching never does worse than b independent launches —
        # except that the batched grid can flip the tile heuristic to a
        # larger tile (cuBLAS strided-batched does the same), whose edge
        # padding inflates per-problem traffic by at most the padded-grid
        # area ratio 1/(1 - tile_waste).
        slack = 1.0 if many.tile == one.tile else 1.0 / (1.0 - many.tile_waste)
        assert many.latency_s <= batch * one.latency_s * slack * 1.001


def layer_gemm_flops(cfg: TransformerConfig) -> int:
    """Matmul FLOPs of one layer's Table II rows, times t (all ranks)."""
    rows = layer_rows(cfg)[1]
    return sum(2 * b * m * n * k for b, m, n, k in rows) * cfg.tp_degree


class TestMappingConservation:
    @settings(max_examples=40, deadline=None)
    @given(configs)
    def test_layer_gemm_flops_equal_paper_formula(self, cfg):
        assert layer_gemm_flops(cfg) == forward_flops_per_layer(
            cfg.microbatch, cfg.seq_len, cfg.hidden_size
        )

    @settings(max_examples=40, deadline=None)
    @given(configs, st.sampled_from([1, 2, 4]))
    def test_tp_conserves_flops_when_feasible(self, cfg, t):
        sharded = cfg.with_overrides(tp_degree=t)
        try:
            sharded_flops = layer_gemm_flops(sharded)
        except ParallelismError:
            assume(False)
        assert sharded_flops == layer_gemm_flops(cfg)

    @settings(max_examples=40, deadline=None)
    @given(configs)
    def test_backward_gemms_preserve_flops(self, cfg):
        for op in layer_gemms(cfg):
            dgrad, wgrad = backward_gemms_for(op)
            assert dgrad.flops == op.flops == wgrad.flops

    @settings(max_examples=25, deadline=None)
    @given(configs)
    def test_training_flops_exactly_3x_forward(self, cfg):
        fwd = sum(op.flops for op in layer_gemms(cfg)) * cfg.num_layers
        logit = 2 * cfg.microbatch * cfg.seq_len * cfg.hidden_size * cfg.vocab_size
        total = sum(op.flops for op in training_gemms(cfg))
        assert total == 3 * (fwd + logit)

    @settings(max_examples=40, deadline=None)
    @given(configs)
    def test_param_count_positive_and_dominated_by_12h2L(self, cfg):
        params = cfg.param_count()
        assert params > 0
        leading = 12 * cfg.hidden_size**2 * cfg.num_layers
        assert params >= leading  # classic MLP: embeddings only add


class TestResultTableRoundTrips:
    rows = st.lists(
        st.tuples(
            st.integers(min_value=-1000, max_value=1000),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )

    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_csv_preserves_row_count(self, rows):
        table = ResultTable("t", ["a", "b"])
        table.extend(rows)
        csv = table.to_csv()
        assert len(csv.strip().split("\n")) == len(rows) + 1

    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_series_preserves_all_points(self, rows):
        table = ResultTable("t", ["a", "b"])
        table.extend(rows)
        pts = table.series("a", "b")[None]
        assert len(pts) == len(rows)

    @settings(max_examples=30, deadline=None)
    @given(rows)
    def test_best_row_is_maximal(self, rows):
        table = ResultTable("t", ["a", "b"])
        table.extend(rows)
        best = table.best_row(by="b")
        assert best["b"] == max(b for _, b in rows)


class TestShapeLinterTotality:
    @settings(max_examples=30, deadline=None)
    @given(configs, st.sampled_from([1, 2, 4, 8]))
    def test_rules_never_crash_on_valid_configs(self, cfg, t):
        # TP-infeasible shapes (t not dividing a or h) are ERROR
        # findings, never exceptions.
        from repro.analysis.diagnostics import Severity
        from repro.analysis.shape_rules import ShapeLinter

        diags = ShapeLinter("A100").diagnose(cfg.with_overrides(tp_degree=t))
        assert diags
        assert all(isinstance(d.severity, Severity) for d in diags)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([4, 8, 16, 32]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=48),
    )
    def test_aligned_shapes_never_error(self, a, dim_mult, L):
        from repro.analysis.diagnostics import Severity
        from repro.analysis.shape_rules import ShapeLinter

        cfg = TransformerConfig(
            name="aligned",
            hidden_size=a * 64 * dim_mult,
            num_heads=a,
            num_layers=L,
        )
        assert ShapeLinter("A100").lint(cfg).worst < Severity.ERROR


class TestAdvisorContract:
    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([2048, 2560, 4096]),
        st.sampled_from([16, 20, 32]),
    )
    def test_proposals_respect_param_budget(self, h, a):
        from repro.core.advisor import ShapeAdvisor

        assume(h % a == 0)
        cfg = TransformerConfig(
            name="prop", hidden_size=h, num_heads=a, num_layers=8
        )
        for prop in ShapeAdvisor("A100").propose(cfg, max_param_increase=0.01):
            assert prop.param_ratio <= 1.01 + 1e-9
