"""Parameter-sweep helpers for the figure experiments.

The paper's sweeps walk dimensions in hardware-meaningful steps: hidden
sizes in multiples of ``64 * a`` (so every point keeps h/a integral),
head-dim-preserving sweeps (h = 64a as a varies), and vocabulary sweeps
around the GPT-2 tokenizer size.  These helpers build those grids.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from repro.engine.grid import ShapeGrid
from repro.engine.vectorized import shape_array
from repro.errors import ExperimentError


def _frozen(grid):
    """Freeze a grid's columns so memoized grids cannot be mutated."""
    for name in grid.names:
        grid.column(name).flags.writeable = False
    return grid


def arange_steps(lo: int, hi: int, step: int) -> List[int]:
    """Inclusive integer range with validation."""
    if step <= 0:
        raise ExperimentError(f"step must be positive, got {step}")
    if lo > hi:
        raise ExperimentError(f"empty range [{lo}, {hi}]")
    return list(range(lo, hi + 1, step))


def hidden_sweep_for_heads(
    a: int, min_head_dim: int = 8, max_hidden: int = 16384, points: int = 40
) -> List[int]:
    """Hidden sizes h that keep h/a an integer, up to ``max_hidden``.

    Walks h in steps of ``a * min_head_dim`` (the finest grid where
    every point has an integral head dim), thinned to ~``points``
    samples.  This is the x-axis of Figs 7/21-47: "each line moves in
    steps of 64 h/a" when min_head_dim=64.
    """
    if a <= 0 or min_head_dim <= 0:
        raise ExperimentError("a and min_head_dim must be positive")
    step = a * min_head_dim
    grid = arange_steps(step, max_hidden, step)
    if len(grid) > points:
        stride = -(-len(grid) // points)
        # An even stride would alias the pow-2 structure of h/a (e.g.
        # stride 2 keeps only the odd multiples of min_head_dim, all in
        # the lowest pow-2 bucket); force it odd to sample every bucket.
        if stride % 2 == 0:
            stride += 1
        grid = grid[::stride]
    return grid


def head_dim_preserving_sweep(
    head_dim: int = 64, max_hidden: int = 16384, min_heads: int = 1
) -> List[tuple]:
    """(h, a) pairs with fixed h/a — the Figs 8/9/34 sweep.

    a runs over the integers, h = a * head_dim.
    """
    if head_dim <= 0:
        raise ExperimentError("head_dim must be positive")
    out = []
    a = max(1, min_heads)
    while a * head_dim <= max_hidden:
        out.append((a * head_dim, a))
        a += 1
    if not out:
        raise ExperimentError("sweep produced no points")
    return out


def bmm_shape_array(shapes: Sequence) -> "object":
    """(N, 4) engine shape array from a sequence of BmmShape-like objects.

    The bridge between the figure sweeps (which think in
    :class:`~repro.gpu.bmm_model.BmmShape`) and the vectorized engine
    (which thinks in ``[batch, m, n, k]`` rows).  Row order follows the
    input order, so table rows stay aligned with engine outputs.
    """
    return shape_array(
        [s.m for s in shapes],
        [s.n for s in shapes],
        [s.k for s in shapes],
        [s.batch for s in shapes],
    )


def pow2_bucket(value: int, cap: int = 64) -> int:
    """Largest power of two dividing ``value``, capped (series key of
    Figs 7/21-47)."""
    if value <= 0:
        raise ExperimentError(f"value must be positive, got {value}")
    return min(value & -value, cap)


def pow2_buckets(values, cap: int = 64):
    """Vectorized :func:`pow2_bucket` over an int array."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and int(arr.min()) <= 0:
        raise ExperimentError("values must be positive")
    return np.minimum(arr & -arr, cap)


def attention_grid(
    kind: str,
    heads: int,
    b: int = 4,
    s: int = 2048,
    max_hidden: "int | None" = None,
    points: int = 60,
) -> "object":
    """Columnar appendix-family sweep for one head count (Figs 7/21-47).

    Expands the whole ``hidden`` axis as arrays — BMM shape fields,
    head dim, and the pow-2 series key are all ufunc chains; no
    per-point :class:`~repro.gpu.bmm_model.BmmShape` objects exist.
    ``kind``: ``score`` for KQ^T (``b*a x (s, h/a) x (h/a, s)``), ``aov``
    for attention-over-value (``b*a x (s, s) x (s, h/a)``).

    Grids are memoized (and frozen read-only): the sweep definition is
    static, so repeat experiment runs share one columnar expansion.
    """
    return _attention_grid_cached(kind, heads, b, s, max_hidden, points)


@lru_cache(maxsize=256)
def _attention_grid_cached(
    kind: str, heads: int, b: int, s: int, max_hidden: "int | None", points: int
) -> "object":
    if kind not in ("score", "aov"):
        raise ExperimentError(f"unknown attention kind {kind!r}")
    if max_hidden is None:
        max_hidden = max(16384, heads * 8 * 24)
    hiddens = np.asarray(
        hidden_sweep_for_heads(
            heads, min_head_dim=8, max_hidden=max_hidden, points=points
        ),
        dtype=np.int64,
    )
    head_dim = hiddens // heads
    return _frozen(
        ShapeGrid.from_columns(
            batch=b * heads,
            m=s,
            n=s if kind == "score" else head_dim,
            k=head_dim if kind == "score" else s,
            hidden=hiddens,
            heads=heads,
            head_dim=head_dim,
            pow2=pow2_buckets(head_dim),
        )
    )


def head_dim_preserving_grid(
    kind: str,
    head_dim: int = 64,
    b: int = 4,
    s: int = 2048,
    max_hidden: int = 16384,
    min_heads: int = 1,
) -> "object":
    """Columnar fixed-h/a sweep (Figs 8/9/34): h = head_dim * a.

    Memoized and frozen like :func:`attention_grid`.
    """
    return _head_dim_grid_cached(kind, head_dim, b, s, max_hidden, min_heads)


@lru_cache(maxsize=256)
def _head_dim_grid_cached(
    kind: str, head_dim: int, b: int, s: int, max_hidden: int, min_heads: int
) -> "object":
    if kind not in ("score", "aov"):
        raise ExperimentError(f"unknown attention kind {kind!r}")
    if head_dim <= 0:
        raise ExperimentError("head_dim must be positive")
    a = np.arange(max(1, min_heads), max_hidden // head_dim + 1, dtype=np.int64)
    if a.size == 0:
        raise ExperimentError("sweep produced no points")
    return _frozen(
        ShapeGrid.from_columns(
            batch=b * a,
            m=s,
            n=s if kind == "score" else head_dim,
            k=head_dim if kind == "score" else s,
            hidden=a * head_dim,
            heads=a,
        )
    )


def vocab_sweep(center: int = 50257, span: int = 96, step: int = 1) -> List[int]:
    """Vocabulary sizes around a tokenizer's natural size (Fig 20b)."""
    lo = max(1, center - span)
    return arange_steps(lo, center + span, step)


def geometric_sizes(lo: int, hi: int, factor: float = 1.3, multiple: int = 64) -> List[int]:
    """Roughly geometric size grid snapped to a multiple (Fig 5/6 axes)."""
    if lo <= 0 or hi < lo or factor <= 1.0:
        raise ExperimentError("invalid geometric range")
    out: List[int] = []
    x = float(lo)
    while x <= hi:
        snapped = max(multiple, int(round(x / multiple)) * multiple)
        if not out or snapped != out[-1]:
            out.append(snapped)
        x *= factor
    return out
