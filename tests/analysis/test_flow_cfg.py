"""CFG builder + fixpoint framework tests on adversarial Python.

Node/edge counts are asserted exactly: the builder's block allocation
is deterministic (entry, exit, then construction order), so a count
change means the lowering changed and every analysis on top needs a
fresh look.
"""

import ast
import sys
import textwrap

import pytest

from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.fixpoint import (
    DataflowAnalysis,
    FixpointLimitError,
    run_fixpoint,
)


def cfg_of(src):
    tree = ast.parse(textwrap.dedent(src))
    func = next(
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(func)


class _Reach(DataflowAnalysis):
    """Trivial reachability lattice: False=bottom, True=reached."""

    def initial(self):
        return True

    def bottom(self):
        return False

    def join(self, a, b):
        return a or b

    def transfer(self, instr, state):
        return state


def solve(cfg):
    return run_fixpoint(cfg, _Reach())


class TestStructure:
    def test_straight_line(self):
        cfg = cfg_of(
            """
            def f():
                a = 1
                b = 2
                return a + b
            """
        )
        assert cfg.node_count == 2  # entry + exit
        assert cfg.edge_count == 1
        assert cfg.blocks[cfg.entry].succs == [cfg.exit]

    def test_if_else_diamond(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                return y
            """
        )
        assert cfg.node_count == 5
        assert cfg.edge_count == 5

    def test_early_return_skips_join(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    return 1
                else:
                    y = 2
                return y
            """
        )
        # then-branch edges straight to exit; the after-block is only
        # reachable through the else branch.
        assert cfg.node_count == 5
        assert cfg.edge_count == 5
        exits_preds = cfg.blocks[cfg.exit].preds
        assert len(exits_preds) == 2

    def test_while_else_with_break(self):
        cfg = cfg_of(
            """
            def f(n):
                while n > 0:
                    if n == 3:
                        break
                    n -= 1
                else:
                    n = -1
                return n
            """
        )
        assert cfg.node_count == 8
        assert cfg.edge_count == 9
        # Every block is reachable from entry.
        states = solve(cfg)
        assert all(states[bid] for bid in cfg.blocks)

    def test_for_else_and_continue(self):
        cfg = cfg_of(
            """
            def f(xs):
                total = 0
                for x in xs:
                    if x < 0:
                        continue
                    total += x
                else:
                    total += 1
                return total
            """
        )
        # continue edges back to the loop header, not to after.
        header = next(
            bid
            for bid, blk in cfg.blocks.items()
            if any(i.kind == "loop_iter" for i in blk.instrs)
        )
        continue_blocks = [
            bid
            for bid, blk in cfg.blocks.items()
            if any(isinstance(i.node, ast.Continue) for i in blk.instrs)
        ]
        assert continue_blocks
        for bid in continue_blocks:
            assert header in cfg.blocks[bid].succs
        assert all(solve(cfg)[bid] for bid in cfg.blocks)

    def test_try_except_finally(self):
        cfg = cfg_of(
            """
            def f(path):
                try:
                    x = g(path)
                except OSError:
                    x = None
                finally:
                    y = 1
                return x
            """
        )
        assert cfg.node_count == 5
        assert cfg.edge_count == 6
        # finally sits on both routes: it is a predecessor of exit
        # (unwinding) and of the return block.
        finally_block = next(
            bid
            for bid, blk in cfg.blocks.items()
            if any(
                isinstance(i.node, ast.Assign)
                and isinstance(i.node.targets[0], ast.Name)
                and i.node.targets[0].id == "y"
                for i in blk.instrs
            )
        )
        assert cfg.exit in cfg.blocks[finally_block].succs
        assert len(cfg.blocks[finally_block].succs) == 2

    def test_try_body_edges_to_every_handler(self):
        cfg = cfg_of(
            """
            def f(path):
                try:
                    a = 1
                    b = 2
                except OSError:
                    r = 1
                except ValueError:
                    r = 2
                return r
            """
        )
        handler_entries = [
            bid
            for bid, blk in cfg.blocks.items()
            if any(
                isinstance(i.node, ast.Assign)
                and isinstance(i.node.targets[0], ast.Name)
                and i.node.targets[0].id == "r"
                for i in blk.instrs
            )
        ]
        assert len(handler_entries) == 2
        for h in handler_entries:
            assert h in cfg.blocks[cfg.entry].succs

    def test_nested_comprehensions_stay_expression_grained(self):
        cfg = cfg_of(
            """
            def f(rows):
                out = [[c * 2 for c in row] for row in rows if row]
                return {k: v for k, v in out if v}
            """
        )
        # Comprehensions never become blocks: straight line.
        assert cfg.node_count == 2
        assert cfg.edge_count == 1

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="match statements need 3.10+"
    )
    def test_match_statement(self):
        cfg = cfg_of(
            """
            def f(x):
                match x:
                    case 1:
                        r = "one"
                    case _:
                        r = "other"
                return r
            """
        )
        # Wildcard case is exhaustive: no fall-through edge.
        assert cfg.node_count == 5
        assert cfg.edge_count == 5

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="match statements need 3.10+"
    )
    def test_match_without_wildcard_falls_through(self):
        cfg = cfg_of(
            """
            def f(x):
                match x:
                    case 1:
                        r = "one"
                return x
            """
        )
        # No wildcard: the subject block edges directly to after.
        match_block = next(
            bid
            for bid, blk in cfg.blocks.items()
            if any(i.kind == "match" for i in blk.instrs)
        )
        assert len(cfg.blocks[match_block].succs) == 2

    def test_with_enter_exit_pseudo_instrs(self):
        cfg = cfg_of(
            """
            def f(lock):
                with lock:
                    x = 1
                return x
            """
        )
        kinds = [
            i.kind for blk in cfg.blocks.values() for i in blk.instrs
        ]
        assert kinds.count("with_enter") == 1
        assert kinds.count("with_exit") == 1

    def test_unreachable_code_still_gets_blocks(self):
        cfg = cfg_of(
            """
            def f():
                return 1
                x = 2
                return x
            """
        )
        states = solve(cfg)
        unreachable = [bid for bid in cfg.blocks if not states[bid]]
        assert unreachable  # dead tail exists but never flows


class TestRpo:
    def test_rpo_starts_at_entry_covers_all(self):
        cfg = cfg_of(
            """
            def f(n):
                while n:
                    if n % 2:
                        n -= 1
                    else:
                        n //= 2
                return n
            """
        )
        order = cfg.rpo()
        assert order[0] == cfg.entry
        assert sorted(order) == sorted(cfg.blocks)


class TestFixpoint:
    def test_terminates_on_nested_loops(self):
        cfg = cfg_of(
            """
            def f(n):
                total = 0
                while n:
                    for i in range(n):
                        while i:
                            i -= 1
                            if i == 2:
                                break
                    n -= 1
                return total
            """
        )
        states = solve(cfg)
        assert states[cfg.exit] is True

    def test_infinite_while_true_terminates_analysis(self):
        cfg = cfg_of(
            """
            def f(q):
                while True:
                    item = q.get()
                    if item is None:
                        break
            """
        )
        assert solve(cfg)[cfg.exit] is True

    def test_bounded_iteration_guard_raises(self):
        cfg = cfg_of(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )

        class Diverging(DataflowAnalysis):
            """Deliberately non-monotone: state grows forever."""

            def initial(self):
                return 0

            def bottom(self):
                return 0

            def join(self, a, b):
                return max(a, b)

            def transfer(self, instr, state):
                return state + 1  # never stabilizes around the loop

        with pytest.raises(FixpointLimitError, match="did not converge"):
            run_fixpoint(cfg, Diverging())

    def test_guard_bound_is_configurable(self):
        cfg = cfg_of(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )
        with pytest.raises(FixpointLimitError):
            run_fixpoint(cfg, _Reach(), max_visits_per_block=0)
