"""Terminal line/scatter plots for experiment series.

`repro figure <id> --plot` renders the regenerated series the way the
paper's figures present them — throughput vs size, grouped by series —
without needing matplotlib.  Pure text: a character grid with axes,
min/max tick labels, and a per-series legend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError

#: Symbols assigned to series in order.
_MARKS = "ox+*#@%&"


def _scale(value: float, lo: float, hi: float, extent: int) -> int:
    if hi <= lo:
        return 0
    pos = int(round((value - lo) / (hi - lo) * (extent - 1)))
    return min(max(pos, 0), extent - 1)


def line_plot(
    series: "Dict[Any, List[Tuple[float, float]]]",
    width: int = 72,
    height: int = 18,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render grouped (x, y) series as an ASCII scatter plot.

    Series keys become legend entries; points that collide on the grid
    show the later series' mark.
    """
    if not series or all(not pts for pts in series.values()):
        raise ExperimentError("nothing to plot")
    if width < 16 or height < 4:
        raise ExperimentError("plot area too small")

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo > 0 and y_lo < 0.3 * y_hi:
        y_lo = 0.0  # anchor throughput-style plots at zero

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for idx, (key, pts) in enumerate(series.items()):
        mark = _MARKS[idx % len(_MARKS)]
        label = "series" if key is None else str(key)
        legend.append(f"{mark} = {label}")
        for x, y in pts:
            col = _scale(x, x_lo, x_hi, width)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = mark

    lines: List[str] = []
    if title:
        lines.append(title)
    y_hi_label = f"{y_hi:.4g}"
    y_lo_label = f"{y_lo:.4g}"
    margin = max(len(y_hi_label), len(y_lo_label), len(y_label)) + 1
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            prefix = y_hi_label.rjust(margin)
        elif row_idx == height - 1:
            prefix = y_lo_label.rjust(margin)
        elif row_idx == height // 2:
            prefix = y_label[: margin - 1].rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|" + "".join(row))
    lines.append(" " * margin + "+" + "-" * width)
    x_axis = f"{x_lo:.4g}".ljust(width - 10) + f"{x_hi:.4g}"
    lines.append(" " * (margin + 1) + x_axis)
    lines.append(" " * (margin + 1) + x_label)
    if len(series) > 1 or None not in series:
        lines.append(" " * (margin + 1) + "   ".join(legend))
    return "\n".join(lines)


#: For each experiment id: (x column, y column, group column or None).
PLOT_HINTS: Dict[str, Tuple[str, str, Optional[str]]] = {
    "fig5": ("size", "tflops", "series"),
    "fig6": ("size", "tflops", "batch"),
    "fig7": ("hidden", "tflops", "pow2"),
    "fig8": ("hidden", "tflops", None),
    "fig9": ("hidden", "tflops", None),
    "fig10": ("hidden", "tflops", "direction"),
    "fig12": ("hidden", "tflops", None),
    "fig13": ("params_m", "latency_ms", None),
    "fig15": ("hidden", "tflops", "tp"),
    "fig17": ("hidden", "tflops", None),
    "fig18": ("hidden", "tflops", None),
    "fig19": ("hidden", "tflops", None),
    "fig20": ("vocab", "tflops", "zoom"),
    "fig21_33": ("hidden", "tflops", "pow2"),
    "fig34": ("hidden", "tflops", None),
    "fig35_47": ("hidden", "tflops", "pow2"),
    "ext_seqlen": ("seq_len", "latency_share", None),
    "ext_flash_e2e": ("hidden", "speedup", None),
    "ext_batching": ("batch", "tokens_per_s", None),
    "ext_window": ("context", "flash_speedup", None),
    "ext_moe": ("experts", "expert_gemm_tflops", None),
}


def plot_experiment(exp_id: str, table, width: int = 72, height: int = 18) -> str:
    """Plot a ResultTable using the registered axis hint for its id."""
    hint = PLOT_HINTS.get(exp_id.lower())
    if hint is None:
        raise ExperimentError(
            f"no plot hint for {exp_id!r}; plottable: {sorted(PLOT_HINTS)}"
        )
    x, y, group = hint
    series = table.series(x, y, group=group)
    return line_plot(
        series, width=width, height=height, title=table.title, x_label=x, y_label=y
    )
