"""Tests for the AST self-lint pass (prong 2)."""

import random
import textwrap
from pathlib import Path

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.selflint import SelfLinter
from repro.errors import ConfigError

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def fixture_linter():
    return SelfLinter(root=FIXTURES)


def rule_ids(report):
    return [d.rule_id for d in report.findings()]


class TestScalarLoopRule:
    def test_flags_all_three_binding_forms(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "scalar_loop_violation.py"])
        hits = [
            d for d in report.findings()
            if d.rule_id == "self/scalar-eval-in-loop"
        ]
        # local binding in a for loop, annotated param in a
        # comprehension, and self-attribute in a method loop
        assert len(hits) == 3
        assert report.exit_code != 0
        assert all(d.severity == Severity.WARNING for d in hits)
        assert all(d.location.line for d in hits)

    def test_pragma_suppresses(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "scalar_loop_allowed.py"])
        assert report.exit_code == 0

    def test_clean_patterns_pass(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "scalar_loop_clean.py"])
        assert "self/scalar-eval-in-loop" not in rule_ids(report)


class TestLayerModelLoopRule:
    def _lint(self, tmp_path, source):
        root = tmp_path / "layer_model"
        root.mkdir()
        (root / "sweep.py").write_text(textwrap.dedent(source))
        report = SelfLinter(root=root).lint()
        return [
            d for d in report.findings()
            if d.rule_id == "self/scalar-eval-in-loop"
        ]

    def test_flags_layer_breakdown_in_a_for_loop(self, tmp_path):
        hits = self._lint(
            tmp_path,
            """\
            from repro.core.latency import LayerLatencyModel


            def sweep(cfgs):
                model = LayerLatencyModel("A100")
                out = []
                for cfg in cfgs:
                    out.append(model.layer_breakdown(cfg))
                return out
            """,
        )
        assert len(hits) == 1
        assert "model.layer_breakdown" in hits[0].message
        assert "layer_breakdowns" in hits[0].message
        assert hits[0].severity == Severity.WARNING

    def test_flags_every_single_config_method(self, tmp_path):
        # self-attribute and annotated-parameter receivers, in loops and
        # comprehensions.
        hits = self._lint(
            tmp_path,
            """\
            from repro.core.latency import LayerLatencyModel


            class Advisor:
                def __init__(self):
                    self.model = LayerLatencyModel("A100")

                def rank(self, cfgs):
                    a = [self.model.model_latency(c) for c in cfgs]
                    b = [self.model.model_breakdown(c) for c in cfgs]
                    c = [self.model.layer_latency(c) for c in cfgs]
                    d = [self.model.layer_throughput_tflops(c) for c in cfgs]
                    return a, b, c, d


            def share(cfgs, model: "LayerLatencyModel | None"):
                while cfgs:
                    model.layer_breakdown(cfgs.pop())
            """,
        )
        assert len(hits) == 5

    def test_batched_sweep_is_clean(self, tmp_path):
        hits = self._lint(
            tmp_path,
            """\
            from repro.core.latency import LayerLatencyModel


            def sweep(cfgs, ops):
                model = LayerLatencyModel("A100")
                layers = model.layer_breakdowns(cfgs)
                models = model.model_breakdowns(cfgs)
                perfs = model.gemm_perfs(ops)
                return [bd.total_s for bd in layers], models, perfs
            """,
        )
        assert hits == []


class TestEngineLoopRule:
    def test_flags_engine_calls_in_loops(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "engine_loop_violation.py"])
        hits = [
            d for d in report.findings()
            if d.rule_id == "self/engine-eval-in-loop"
        ]
        # local ShapeEngine binding, inline default_engine() call in a
        # comprehension, and self-attribute in a method loop
        assert len(hits) == 3
        assert all(d.severity == Severity.WARNING for d in hits)

    def test_pragma_suppresses(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "engine_loop_allowed.py"])
        assert report.exit_code == 0

    def test_clean_patterns_pass(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "engine_loop_clean.py"])
        assert "self/engine-eval-in-loop" not in rule_ids(report)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_mutation_of_the_tuner_is_flagged(self, seed, tmp_path):
        # Seeded-mutation proof for the rule extension: rewrite the
        # tuner's single whole-grid sweep into the per-candidate
        # evaluate_grid/evaluate_tiles loop the rule exists to catch,
        # varying the binding name and loop form per seed, and assert
        # the linter flags every variant.
        rng = random.Random(seed)
        name = rng.choice(["eng", "engine", "tuner_engine"])
        method = rng.choice(["evaluate_grid", "evaluate_tiles"])
        loop = rng.choice(
            [
                "    sweep = []\n"
                "    for tile in pool:\n"
                f"        sweep.append({name}.{method}"
                "(grid, spec, dtype, tile=tile))\n"
                "    return sweep\n",
                f"    return [{name}.{method}(grid, spec, dtype, tile=t) "
                "for t in pool]\n",
            ]
        )
        source = (
            "from repro.engine.core import ShapeEngine\n\n\n"
            "def tune(grid, spec, dtype, pool):\n"
            f"    {name} = ShapeEngine()\n" + loop
        )
        root = tmp_path / "mutant"
        root.mkdir()
        (root / "search.py").write_text(source)
        report = SelfLinter(root=root).lint()
        hits = [
            d for d in report.findings()
            if d.rule_id == "self/engine-eval-in-loop"
        ]
        assert len(hits) == 1, source
        assert "evaluate_tiles owns the loop" in hits[0].message

    def test_whole_grid_sweep_outside_loops_is_clean(self, tmp_path):
        # The shipped tuner's actual shape: one evaluate_tiles call,
        # no loop around it.  Must stay clean under the extended rule.
        source = textwrap.dedent(
            """\
            from repro.engine.core import ShapeEngine


            def tune(grid, spec, dtype, pool):
                engine = ShapeEngine()
                return engine.evaluate_tiles(grid, spec, dtype, candidates=pool)
            """
        )
        root = tmp_path / "clean"
        root.mkdir()
        (root / "search.py").write_text(source)
        report = SelfLinter(root=root).lint()
        assert "self/engine-eval-in-loop" not in rule_ids(report)

    def test_real_tuner_module_is_clean(self):
        import repro.kernels.search

        report = SelfLinter().lint(
            [Path(repro.kernels.search.__file__)]
        )
        assert "self/engine-eval-in-loop" not in rule_ids(report)


class TestNondetKeyRule:
    def test_flags_time_and_environ_in_keyish_functions(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "cache_key_violation.py"])
        hits = [
            d for d in report.findings()
            if d.rule_id == "self/nondeterministic-cache-key"
        ]
        assert len(hits) == 2
        assert all(d.severity == Severity.ERROR for d in hits)
        messages = " ".join(d.message for d in hits)
        assert "time.time" in messages
        assert "os.environ" in messages


class TestConstantGuardRule:
    def test_unreferenced_calibration_constant_is_error(self, fixture_linter):
        # The fixture root has no engine/cache.py, so the constant
        # cannot be folded into any cache key.
        report = fixture_linter.lint(
            [FIXTURES / "gpu" / "unguarded_constant.py"]
        )
        hits = [
            d for d in report.findings()
            if d.rule_id == "self/calibration-constant-guard"
        ]
        assert len(hits) == 1
        assert hits[0].severity == Severity.ERROR
        assert "_EFF_UNGUARDED" in hits[0].message


class TestDataclassDocRule:
    def test_flags_missing_docstring_and_units(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES / "undocumented_dataclass.py"])
        hits = [
            d for d in report.findings()
            if d.rule_id == "self/dataclass-docstring"
        ]
        messages = " ".join(d.message for d in hits)
        assert "NoDocstring" in messages
        assert "MissingUnits" in messages
        # documented/suffixed/commented fields and private classes pass
        assert "WellDocumented" not in messages
        assert "_PrivateUnchecked" not in messages


class TestRepoIsClean:
    def test_src_repro_self_lints_clean(self):
        # The blocking CI gate: the shipped package must satisfy its
        # own invariants.
        report = SelfLinter().lint()
        assert report.exit_code == 0, report.render_text()


class TestInputHandling:
    def test_bad_path_raises(self, fixture_linter):
        with pytest.raises(ConfigError):
            fixture_linter.lint([FIXTURES / "does_not_exist.txt"])

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            SelfLinter(root=tmp_path / "nope")

    def test_syntax_error_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(ConfigError):
            SelfLinter(root=tmp_path).lint()

    def test_directory_path_recurses(self, fixture_linter):
        report = fixture_linter.lint([FIXTURES])
        assert "self/scalar-eval-in-loop" in rule_ids(report)
        assert "self/calibration-constant-guard" in rule_ids(report)
