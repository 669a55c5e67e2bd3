"""Property-based invariants of the GPU performance model.

Hypothesis sweeps the model over randomized shapes and asserts the
structural facts the paper's figures rely on, rather than point values:

- tile-quantization waste is nonnegative and vanishes *exactly* on
  tile-divisible (m, n);
- wave-quantization efficiency is 1 exactly at full-wave block counts;
- alignment efficiency is monotone in the power-of-two divisor of a
  dimension (doubling the pow2 factor of n or k at fixed magnitude
  never lowers modelled efficiency — the "larger multiples of 2"
  ordering of Figs 7/21-47);
- the scalar ``GemmModel.evaluate`` and the vectorized engine path
  agree bit-for-bit on arbitrary shape batches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.vectorized import evaluate_batch, shape_array
from repro.gpu.alignment import (
    dim_efficiency,
    gemm_alignment_efficiency,
    largest_pow2_divisor,
)
from repro.gpu.gemm_model import GemmModel
from repro.gpu.specs import get_gpu
from repro.gpu.waves import (
    num_waves,
    tile_quantization_waste,
    wave_efficiency,
)
from repro.types import DType

_TILES = st.sampled_from([8, 16, 32, 64, 128, 256])
_DIMS = st.integers(min_value=1, max_value=8192)


# -- tile quantization ------------------------------------------------------------


@given(m=_DIMS, n=_DIMS, tile_m=_TILES, tile_n=_TILES)
def test_tile_waste_nonnegative_and_bounded(m, n, tile_m, tile_n):
    waste = tile_quantization_waste(m, n, tile_m, tile_n)
    assert 0.0 <= waste < 1.0


@given(m=_DIMS, n=_DIMS, tile_m=_TILES, tile_n=_TILES)
def test_tile_waste_zero_iff_tile_divisible(m, n, tile_m, tile_n):
    waste = tile_quantization_waste(m, n, tile_m, tile_n)
    divisible = m % tile_m == 0 and n % tile_n == 0
    if divisible:
        assert waste == 0.0
    else:
        assert waste > 0.0


@given(mult_m=st.integers(1, 64), mult_n=st.integers(1, 64),
       tile_m=_TILES, tile_n=_TILES)
def test_tile_waste_vanishes_on_exact_multiples(mult_m, mult_n, tile_m, tile_n):
    assert tile_quantization_waste(
        mult_m * tile_m, mult_n * tile_n, tile_m, tile_n
    ) == 0.0


# -- wave quantization ------------------------------------------------------------


@given(blocks=st.integers(1, 10**6), num_sms=st.integers(1, 256),
       blocks_per_sm=st.integers(1, 8))
def test_wave_efficiency_in_unit_interval(blocks, num_sms, blocks_per_sm):
    eff = wave_efficiency(blocks, num_sms, blocks_per_sm)
    assert 0.0 < eff <= 1.0


@given(waves=st.integers(1, 64), num_sms=st.integers(1, 256),
       blocks_per_sm=st.integers(1, 8))
def test_wave_efficiency_is_one_at_full_waves(waves, num_sms, blocks_per_sm):
    blocks = waves * num_sms * blocks_per_sm
    assert wave_efficiency(blocks, num_sms, blocks_per_sm) == 1.0
    assert num_waves(blocks, num_sms, blocks_per_sm) == waves


@given(blocks=st.integers(1, 10**6), num_sms=st.integers(2, 256))
def test_partial_tail_wave_costs_efficiency(blocks, num_sms):
    eff = wave_efficiency(blocks, num_sms)
    if blocks % num_sms != 0:
        assert eff < 1.0
    else:
        assert eff == 1.0


# -- alignment monotonicity -------------------------------------------------------

_SPECS = st.sampled_from(["A100", "V100", "H100", "MI250X"])
_ODD = st.integers(1, 511).filter(lambda v: v % 2 == 1)


@given(gpu=_SPECS, odd=_ODD, e1=st.integers(0, 10), e2=st.integers(0, 10))
def test_dim_efficiency_monotone_in_pow2_divisor(gpu, odd, e1, e2):
    """More factors of two never lower a dimension's efficiency."""
    if e1 > e2:
        e1, e2 = e2, e1
    spec = get_gpu(gpu)
    dtype = DType.FP16
    lo = dim_efficiency(odd << e1, dtype, spec)
    hi = dim_efficiency(odd << e2, dtype, spec)
    assert lo <= hi
    assert 0.0 < lo <= 1.0 and hi <= 1.0
    # And the curve depends on the dimension only through its pow2
    # divisor (capped at full alignment), so equal divisors tie exactly.
    assert dim_efficiency(3 << e1, dtype, spec) == dim_efficiency(
        5 << e1, dtype, spec
    )


@given(gpu=_SPECS, m=_DIMS, n=_ODD, k=_ODD,
       e=st.integers(0, 8), which=st.sampled_from(["n", "k"]))
def test_gemm_alignment_never_drops_when_doubling(gpu, m, n, k, e, which):
    """Adding a factor of two to n or k never lowers combined efficiency.

    This is the alignment half of the paper's "h/a should be a larger
    power of two" guidance: the full-throughput claim has a
    wave-quantization sawtooth on top, but the alignment term itself
    must be monotone.
    """
    spec = get_gpu(gpu)
    dtype = DType.FP16
    n1, k1 = (n << e, k) if which == "n" else (n, k << e)
    n2, k2 = (n1 * 2, k1) if which == "n" else (n1, k1 * 2)
    base = gemm_alignment_efficiency(m, n1, k1, dtype, spec)
    doubled = gemm_alignment_efficiency(m, n2, k2, dtype, spec)
    assert base <= doubled


@given(gpu=_SPECS, m=_DIMS, n=_DIMS, k=_DIMS)
def test_gemm_alignment_is_min_of_contiguous_dims(gpu, m, n, k):
    spec = get_gpu(gpu)
    dtype = DType.FP16
    eff = gemm_alignment_efficiency(m, n, k, dtype, spec)
    assert eff == min(
        dim_efficiency(n, dtype, spec), dim_efficiency(k, dtype, spec)
    )
    full = spec.tc_align_elems(dtype)
    if largest_pow2_divisor(n) >= full and largest_pow2_divisor(k) >= full:
        assert eff == 1.0


# -- scalar vs vectorized parity --------------------------------------------------

_SHAPE = st.tuples(
    st.integers(1, 4096),  # m
    st.integers(1, 4096),  # n
    st.integers(1, 4096),  # k
    st.one_of(st.just(1), st.integers(2, 64)),  # batch
)


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.lists(_SHAPE, min_size=1, max_size=8),
    gpu=st.sampled_from(["A100", "V100"]),
    dtype=st.sampled_from(["fp16", "fp32"]),
)
def test_scalar_model_matches_vectorized_engine(shapes, gpu, dtype):
    """GemmModel.evaluate and evaluate_batch agree bit-for-bit."""
    arr = shape_array(
        [m for m, _, _, _ in shapes],
        [n for _, n, _, _ in shapes],
        [k for _, _, k, _ in shapes],
        [b for _, _, _, b in shapes],
    )
    batch = evaluate_batch(arr, gpu, dtype)
    scalar = GemmModel(gpu, dtype)
    for i, (m, n, k, b) in enumerate(shapes):
        perf = scalar.evaluate(m, n, k, batch=b)
        assert perf.latency_s == float(batch.latency_s[i])
        assert perf.tflops == float(batch.tflops[i])
        assert perf.bound == str(batch.bound[i])
        assert perf.tile == batch.tile(i)
