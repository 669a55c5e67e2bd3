"""The Pythia suite and the Fig 13 trend analysis.

Pythia (Biderman et al. 2023) is a controlled scaling suite; the paper
uses it to show that *shape* — not just size — sets inference latency:
Pythia-1B (fewer heads and layers, larger hidden dim) is markedly
faster per parameter than Pythia-410M.  :func:`trend_analysis` fits the
suite's log(latency) against log(params) and reports each model's
residual, flagging the off-trend pair the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import TransformerConfig, get_model
from repro.errors import ExperimentError
from repro.inference.latency import InferenceModel

#: Suite order by parameter count (the 2.8B+ members are included for
#: the trend; the paper's figure spans the same range).
PYTHIA_SUITE: Tuple[str, ...] = (
    "pythia-70m",
    "pythia-160m",
    "pythia-410m",
    "pythia-1b",
    "pythia-1.4b",
    "pythia-2.8b",
    "pythia-6.9b",
    "pythia-12b",
)

#: The two models the paper calls out as off-trend, with the expected
#: sign of their residual (positive = slower than the suite trend).
OFF_TREND_EXPECTED: Dict[str, int] = {"pythia-410m": +1, "pythia-1b": -1}


def pythia_configs() -> List[TransformerConfig]:
    """The suite's configurations in size order."""
    return [get_model(name) for name in PYTHIA_SUITE]


@dataclass(frozen=True)
class TrendPoint:
    """One model's position relative to the suite scaling trend."""

    name: str
    params: int
    latency_ms: float
    predicted_ms: float

    @property
    def residual(self) -> float:
        """log-space residual: positive = slower than trend."""
        return float(np.log(self.latency_ms) - np.log(self.predicted_ms))

    @property
    def off_trend(self) -> bool:
        """Flag residuals beyond ~8% of predicted latency."""
        return abs(self.residual) > 0.08


def trend_analysis(
    latencies_ms: "Sequence[Tuple[str, int, float]]",
    fit_exclude: "Sequence[str]" = (),
) -> List[TrendPoint]:
    """Fit log(latency) ~ a + b*log(params); return per-model residuals.

    ``latencies_ms`` is (name, params, latency_ms) per model.  Requires
    at least 3 fitted points.  Models named in ``fit_exclude`` still get
    a :class:`TrendPoint` but do not influence the fitted line —
    matching how Fig 13's trend is drawn through the *on-trend* suite
    members before judging the outliers against it.
    """
    names = [row[0] for row in latencies_ms]
    params = np.array([row[1] for row in latencies_ms], dtype=float)
    lat = np.array([row[2] for row in latencies_ms], dtype=float)
    if np.any(params <= 0) or np.any(lat <= 0):
        raise ExperimentError("params and latencies must be positive")
    excluded = {name.lower() for name in fit_exclude}
    keep = np.array([name.lower() not in excluded for name in names])
    if keep.sum() < 3:
        raise ExperimentError("trend analysis needs at least 3 fitted models")
    x = np.log(params)
    y = np.log(lat)
    slope, intercept = np.polyfit(x[keep], y[keep], 1)
    predicted = np.exp(intercept + slope * x)
    return [
        TrendPoint(
            name=names[i],
            params=int(params[i]),
            latency_ms=float(lat[i]),
            predicted_ms=float(predicted[i]),
        )
        for i in range(len(names))
    ]


def run_suite(gpu: str = "A100", context_len: int = 512) -> List[TrendPoint]:
    """Model the whole suite's decode latency and fit the trend.

    The suite is priced as one decode sweep (one engine call).  The
    trend line is fitted through the on-trend members only, then
    every model (including the known off-trend pair) is judged against
    it, mirroring the paper's Fig 13 reading.
    """
    configs = pythia_configs()
    steps = InferenceModel(gpu).decode_steps(
        [(cfg, context_len, 1) for cfg in configs]
    )
    rows = [
        (cfg.name, cfg.param_count(), step.latency_s * 1e3)
        for cfg, step in zip(configs, steps)
    ]
    return trend_analysis(rows, fit_exclude=tuple(OFF_TREND_EXPECTED))
