"""Differential wall: the advisor and the what-if analyzer agree.

Both read one shape neighbourhood (``repro.core.advisor.moves``) priced
in one grid.  Over the model zoo x A100/H100/V100/MI250X, at t = 1 and
every tensor-parallel degree in {2, 4, 8} that shards the model, the
what-if analyzer's best move per knob must be the advisor's fastest
proposal of that knob (with the parameter budget opened wide and every
proposal returned).  A knob whose fastest proposal is no faster than the
baseline must read "keep as is" in the analyzer.

The knob of a proposal is read off the field it changes, not off the
module's own labels.
"""

from functools import lru_cache

import pytest

from repro.analysis.whatif import WhatIfAnalyzer
from repro.core.advisor import ShapeAdvisor
from repro.core.config import list_models
from repro.core.gemms import tp_problem

GPUS = ("A100", "H100", "V100", "MI250X")
TP = (1, 2, 4, 8)
CONFIGS = list_models()
MODELS = [cfg.name for cfg in CONFIGS]

#: Knob -> the config field its moves change.
FIELDS = {
    "heads": "num_heads",
    "vocabulary": "vocab_size",
    "swiglu_width": "d_ff",
    "hidden": "hidden_size",
}


@lru_cache(maxsize=None)
def _consumers(gpu: str):
    return ShapeAdvisor(gpu), WhatIfAnalyzer(gpu)


def _knob(base, cand) -> str:
    (knob,) = [
        knob
        for knob, field in FIELDS.items()
        if getattr(cand, field) != getattr(base, field)
        and (knob != "swiglu_width" or cand.hidden_size == base.hidden_size)
    ]
    return knob


def _sharded(cfg):
    for t in TP:
        sharded = cfg.with_overrides(tp_degree=t)
        if tp_problem(sharded) is None:
            yield sharded


@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=MODELS)
def test_best_move_per_knob_agrees(gpu, index):
    advisor, analyzer = _consumers(gpu)
    for cfg in _sharded(CONFIGS[index]):
        fastest = {}
        for prop in advisor.propose(cfg, max_param_increase=10.0, top=10**6):
            fastest.setdefault(_knob(cfg, prop.config), prop)
        ranked = {s.knob: s for s in analyzer.rank(cfg)}
        for knob in FIELDS:
            sens, prop = ranked[knob], fastest.get(knob)
            case = (cfg.tp_degree, knob, sens.best_move)
            if prop is not None and prop.speedup > 1.0:
                assert sens.config == prop.config, case
                assert sens.speedup == prop.speedup, case
            else:
                assert sens.config is None and sens.speedup == 1.0, case
