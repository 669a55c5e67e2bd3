"""The CI perf gate's comparison logic (benchmarks/perf_gate.py)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_gate.py"
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)


def _record(**overrides):
    record = {
        "passed": True,
        "parity": {"mismatches": 0},
        "warm_speedup": 8.0,
        "warm_regressions": [],
        "experiments": [
            {"id": "fig5", "warm_cache_hits": 0, "warm_engine_hits": 3},
            {"id": "table2", "warm_cache_hits": 5, "warm_engine_hits": 0},
            {"id": "fig12", "warm_cache_hits": 0, "warm_engine_hits": 0},
        ],
    }
    record.update(overrides)
    return record


class TestGateFailures:
    def test_clean_record_passes(self):
        assert perf_gate.gate_failures(_record(), _record(), 4.0) == []

    def test_failed_record_flagged(self):
        fails = perf_gate.gate_failures(_record(passed=False), _record(), 4.0)
        assert any("did not pass" in f for f in fails)

    def test_parity_mismatch_flagged(self):
        fails = perf_gate.gate_failures(
            _record(parity={"mismatches": 2}), _record(), 4.0
        )
        assert any("parity" in f for f in fails)

    def test_speedup_floor(self):
        fails = perf_gate.gate_failures(_record(warm_speedup=2.0), _record(), 4.0)
        assert any("below floor" in f for f in fails)

    def test_warm_regressions_flagged(self):
        fails = perf_gate.gate_failures(
            _record(warm_regressions=["fig8"]), _record(), 4.0
        )
        assert any("fig8" in f for f in fails)

    def test_lost_cache_hits_flagged(self):
        fresh = _record(
            experiments=[
                {"id": "fig5", "warm_cache_hits": 0, "warm_engine_hits": 0,
                 "warm_engine_misses": 3},
                {"id": "table2", "warm_cache_hits": 5, "warm_engine_hits": 0},
            ]
        )
        fails = perf_gate.gate_failures(fresh, _record(), 4.0)
        assert any("fig5" in f and "lost all cache hits" in f for f in fails)
        # fig12 never hit the cache in the baseline: not required now,
        # and its absence from fresh is also fine.
        assert not any("fig12" in f for f in fails)

    def test_experiment_without_engine_calls_is_not_a_lost_hit(self):
        # ext_quant and ext_window once hit the cache on every warm
        # lookup; once priced without the engine they make no lookups,
        # which must pass.  A warm run that still looks up and only
        # misses is flagged.
        baseline = _record(
            experiments=[
                {"id": "ext_quant", "warm_engine_hits": 8,
                 "warm_engine_misses": 0, "cold_engine_misses": 2},
                {"id": "ext_window", "warm_engine_hits": 8,
                 "warm_engine_misses": 0, "cold_engine_misses": 4},
            ]
        )

        def fresh(window_misses):
            return _record(
                experiments=[
                    {"id": "ext_quant", "warm_engine_hits": 0,
                     "warm_engine_misses": 0, "cold_engine_misses": 0},
                    {"id": "ext_window", "warm_engine_hits": 0,
                     "warm_engine_misses": window_misses,
                     "cold_engine_misses": 0},
                ]
            )

        assert perf_gate.gate_failures(fresh(0), baseline, 4.0) == []
        assert perf_gate.gate_failures(fresh(2), baseline, 4.0) == [
            "ext_window: warm run lost all cache hits (baseline had 8)"
        ]

    def test_more_cold_engine_computes_flagged(self):
        def record(misses):
            return _record(
                experiments=[
                    {"id": "fig13", "cold_engine_misses": misses[0]},
                    {"id": "ext_gqa", "cold_engine_misses": misses[1]},
                ]
            )

        baseline = record((1, 1))
        assert perf_gate.gate_failures(record((1, 1)), baseline, 4.0) == []
        # Fewer computes than the baseline is an improvement, not a failure.
        assert perf_gate.gate_failures(record((0, 1)), baseline, 4.0) == []
        fails = perf_gate.gate_failures(record((8, 1)), baseline, 4.0)
        assert fails == ["fig13: 8 cold engine computes (baseline 1)"]

    def test_cold_engine_computes_unchecked_without_baseline_value(self):
        # Records without the field (or experiments new since the
        # baseline) are not gated on it.
        fresh = _record(
            experiments=[
                {"id": "fig5", "warm_engine_hits": 3, "cold_engine_misses": 9},
                {"id": "table2", "warm_cache_hits": 5, "cold_engine_misses": 9},
                {"id": "new", "cold_engine_misses": 9},
            ]
        )
        assert perf_gate.gate_failures(fresh, _record(), 4.0) == []

    def test_missing_experiment_flagged(self):
        fresh = _record(experiments=[])
        fails = perf_gate.gate_failures(fresh, _record(), 4.0)
        assert any("missing from fresh record" in f for f in fails)

    def test_main_exit_codes(self, tmp_path, capsys):
        import json

        good = tmp_path / "good.json"
        good.write_text(json.dumps(_record()))
        assert perf_gate.main([str(good), str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_record(warm_speedup=1.0)))
        assert perf_gate.main([str(bad), str(good)]) == 1
