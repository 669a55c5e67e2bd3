"""Seeded-mutation detection proofs + shipped-tree cleanliness.

Each test copies a real source file into a tmp tree, plants one
realistic bug (the exact class of bug the rule family exists for),
and asserts the flow linter catches it — and that the *unmutated*
tree stays clean, so the rules carry signal rather than noise.
"""

import ast
from pathlib import Path

import repro
from repro.analysis.flow import FlowLinter
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.concurrency import RULE_BLOCKING_ASYNC, RULE_UNGUARDED_WRITE
from repro.analysis.flow.fixpoint import DataflowAnalysis, run_fixpoint
from repro.analysis.flow.unit_rules import RULE_UNIT_MISMATCH

SRC_ROOT = Path(repro.__file__).parent


def lint_file(tmp_path, rel_name, text):
    target = tmp_path / rel_name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return FlowLinter(root=tmp_path).lint([target]).diagnostics


class TestSeededMutations:
    def test_bytes_for_flops_swap_in_formulas(self, tmp_path):
        source = (SRC_ROOT / "core" / "formulas.py").read_text()
        planted = "L * per_layer + kv_cache_bytes(b, s, h, L)"
        mutated = source.replace(
            "L * per_layer + 2 * b * s * h * v", planted
        )
        assert mutated != source, "mutation anchor moved in formulas.py"
        diags = lint_file(tmp_path, "formulas.py", mutated)
        assert [d.rule_id for d in diags] == [RULE_UNIT_MISMATCH]
        assert "(flops)" in diags[0].message
        assert "(bytes)" in diags[0].message
        lineno = diags[0].location.line
        assert planted in mutated.splitlines()[lineno - 1]

    def test_removed_lock_acquire_in_serve(self, tmp_path):
        source = (SRC_ROOT / "serve" / "server.py").read_text()
        lines = source.splitlines(keepends=True)
        anchor = "with self._stats_lock:"
        # Drop exactly the guard inside _dispatch (the batch-stats
        # critical section), keeping the other guarded sections intact.
        dispatch_line = next(
            i
            for i, line in enumerate(lines)
            if "def _dispatch(" in line
        )
        guard_line = next(
            i
            for i in range(dispatch_line, len(lines))
            if anchor in lines[i]
        )
        lines[guard_line] = lines[guard_line].replace(anchor, "if True:")
        diags = lint_file(tmp_path, "server.py", "".join(lines))
        assert diags, "removed lock went undetected"
        assert {d.rule_id for d in diags} == {RULE_UNGUARDED_WRITE}
        assert any("_stats" in d.message for d in diags)
        # Every finding points into the un-guarded block we created.
        block_lines = range(guard_line + 1, guard_line + 9)
        assert all(d.location.line - 1 in block_lines for d in diags)

    def test_blocking_sleep_in_async_worker(self, tmp_path):
        source = (SRC_ROOT / "serve" / "server.py").read_text()
        mutated = source + (
            "\n\n"
            "async def _poll_worker(server):\n"
            '    """Injected coroutine for the mutation test."""\n'
            "    while server.running:\n"
            "        time.sleep(0.05)\n"
            "        await server.flush()\n"
        )
        diags = lint_file(tmp_path, "server.py", mutated)
        assert [d.rule_id for d in diags] == [RULE_BLOCKING_ASYNC]
        assert "time.sleep()" in diags[0].message
        assert "_poll_worker" in diags[0].message


class TestShippedTree:
    def test_flow_lint_of_src_is_clean(self):
        report = FlowLinter().lint()
        assert report.findings() == []
        assert report.exit_code == 0

    def test_fixpoint_terminates_on_every_function_in_src(self):
        class Reach(DataflowAnalysis):
            def initial(self):
                return True

            def bottom(self):
                return False

            def join(self, a, b):
                return a or b

            def transfer(self, instr, state):
                return state

        checked = 0
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    cfg = build_cfg(node)
                    states = run_fixpoint(cfg, Reach())
                    assert set(states) == set(cfg.blocks)
                    checked += 1
        assert checked > 300  # the tree is not trivially empty
