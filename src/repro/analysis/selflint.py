"""The AST self-lint pass (prong 2): ``repro lint --self``.

Guards the invariants PR 1's engine made load-bearing, by reading the
source rather than running it:

- ``self/scalar-eval-in-loop`` — a scalar :class:`GemmModel` method
  (``evaluate`` / ``latency`` / ``tflops``) called inside a loop or
  comprehension.  Hot paths must use the engine batch path
  (:func:`repro.engine.default_engine`), which is memoized and
  vectorized; a scalar call per iteration silently forfeits both.  The
  rule also flags a single-config :class:`LayerLatencyModel` method
  (``layer_breakdown`` / ``layer_latency`` / ``model_breakdown`` /
  ``model_latency`` / ``layer_throughput_tflops``) in a loop: each is
  a one-config grid, and sweeps price every config in one grid
  through ``layer_breakdowns`` / ``model_breakdowns``.
- ``self/engine-eval-in-loop`` — an engine batch method (``evaluate``
  / ``latency`` / ``tflops`` / ``evaluate_grid`` / ``evaluate_tiles``)
  called on a :class:`ShapeEngine` (or a ``default_engine()`` result)
  inside a loop or comprehension.  A grid loop that calls the engine
  once per iteration forfeits the SoA whole-grid path: build one
  :class:`~repro.engine.grid.ShapeGrid` covering the sweep and call
  ``evaluate_grid`` once — and a per-candidate Python loop around
  ``evaluate_grid`` itself is the same mistake one level up
  (``evaluate_tiles`` owns that loop).
- ``self/calibration-constant-guard`` — a calibration-mutable constant
  (module-level ``_EFF_*`` in ``repro.gpu``) that the cache-key module
  does not fold into :func:`repro.engine.cache.model_version`.  Such a
  constant could be re-fit without invalidating cached results.
- ``self/nondeterministic-cache-key`` — ``time`` / ``random`` /
  ``os.environ`` / ``uuid`` / ``datetime`` reads inside a function that
  builds cache keys (name contains ``key``, ``version`` or ``digest``).
  Cache keys must be pure functions of model state.
- ``self/dataclass-docstring`` — a public dataclass with no docstring,
  or with ``float`` fields carrying no unit documentation (not named in
  the class docstring, no unit suffix like ``_s``/``_bytes``, no
  adjacent comment).  Floats are where a missing unit bites (seconds
  vs microseconds); int counts and str names document themselves.

A finding can be suppressed for one line with ``# lint:
allow(rule-id)`` on the flagged line — every suppression is visible in
the diff, unlike an ever-growing global ignore list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import LintDiagnostic, LintReport, Location, Severity
from repro.errors import ConfigError

RULE_SCALAR_LOOP = "self/scalar-eval-in-loop"
RULE_ENGINE_LOOP = "self/engine-eval-in-loop"
RULE_CONSTANT_GUARD = "self/calibration-constant-guard"
RULE_NONDET_KEY = "self/nondeterministic-cache-key"
RULE_DATACLASS_DOC = "self/dataclass-docstring"

#: Scalar GemmModel methods with an engine batch equivalent.
_SCALAR_METHODS = frozenset({"evaluate", "latency", "tflops"})

#: Single-config LayerLatencyModel methods with a batched equivalent
#: (``layer_breakdowns`` / ``model_breakdowns``).
_LAYER_MODEL_METHODS = frozenset(
    {
        "layer_breakdown",
        "layer_latency",
        "model_breakdown",
        "model_latency",
        "layer_throughput_tflops",
    }
)

#: Module-level constants in repro.gpu that calibration may re-fit.
_CALIBRATION_CONSTANT = re.compile(r"^_EFF[A-Z0-9_]*$")

#: Function names that indicate cache-key construction.
_KEYISH_NAME = re.compile(r"key|version|digest", re.IGNORECASE)

#: Modules whose reads make a value time/process dependent.
_NONDET_MODULES = frozenset({"time", "random", "uuid", "secrets", "datetime"})

#: Field-name suffixes that self-document the unit.
_UNIT_SUFFIXES = (
    "_s", "_ms", "_us", "_ns", "_b", "_kb", "_mb", "_gb", "_bytes",
    "_gbps", "_flops", "_tflops", "_hz", "_ghz", "_pct", "_frac",
    "_fraction", "_rate", "_eff", "_efficiency", "_count", "_idx",
    "_index", "_len", "_size", "_dim", "_degree", "_elems", "_sm",
    "_sms", "_tokens", "_heads", "_layers",
)

_PRAGMA = re.compile(r"#\s*lint:\s*allow\(([a-z0-9/_-]+)\)")


def _suppressed(lines: Sequence[str], lineno: int, rule_id: str) -> bool:
    """True when the 1-indexed source line carries an allow pragma.

    The pragma may name the rule with or without its ``self/``
    namespace: ``# lint: allow(scalar-eval-in-loop)``.
    """
    if not 1 <= lineno <= len(lines):
        return False
    match = _PRAGMA.search(lines[lineno - 1])
    if not match:
        return False
    allowed = match.group(1)
    return allowed == rule_id or allowed == rule_id.rsplit("/", 1)[-1]


class _ScalarLoopVisitor(ast.NodeVisitor):
    """Finds scalar GemmModel method calls under a loop.

    Tracks three binding forms: ``x = GemmModel(...)``,
    ``self.x = GemmModel(...)``, and parameters annotated ``GemmModel``.
    Name bindings are scoped per function (an ``x = GemmModel(...)`` in
    one function must not taint ``x`` in another), and rebinding a
    tracked name to anything else untracks it.  Receivers bound any
    other way (tuple unpacking, factories) are out of scope — precision
    over recall, so the rule can block CI.
    """

    #: Constructor names whose result is a tracked receiver; subclasses
    #: retarget the visitor at another class.
    _CTOR_NAMES = frozenset({"GemmModel"})
    #: The class name a parameter annotation must mention to be tracked.
    _ANNOTATION = "GemmModel"
    #: Method names that count as a hit on a tracked receiver.
    _METHODS = _SCALAR_METHODS

    def __init__(self) -> None:
        self._scopes: List[Set[str]] = [set()]
        self.self_attrs: Set[str] = set()
        self.hits: List[Tuple[int, int, str]] = []  # line, col, receiver
        self._loop_depth = 0

    def _track(self, name: str) -> None:
        self._scopes[-1].add(name)

    def _untrack(self, name: str) -> None:
        for scope in self._scopes:
            scope.discard(name)

    def _tracked(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    def _is_gemm_model_ctor(self, value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        return name in self._CTOR_NAMES

    def _annotation_is_gemm_model(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id == self._ANNOTATION
        if isinstance(node, ast.Attribute):
            return node.attr == self._ANNOTATION
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self._ANNOTATION in node.value
        return False

    # -- binding collection --------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        is_ctor = self._is_gemm_model_ctor(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._track(target.id) if is_ctor else self._untrack(target.id)
            elif isinstance(target, ast.Attribute) and self._is_self(target.value):
                if is_ctor:
                    self.self_attrs.add(target.attr)
                else:
                    self.self_attrs.discard(target.attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            is_ctor = self._is_gemm_model_ctor(node.value)
            if isinstance(node.target, ast.Name):
                self._track(node.target.id) if is_ctor else self._untrack(
                    node.target.id
                )
            elif isinstance(node.target, ast.Attribute) and self._is_self(
                node.target.value
            ):
                if is_ctor:
                    self.self_attrs.add(node.target.attr)
                else:
                    self.self_attrs.discard(node.target.attr)
        self.generic_visit(node)

    def _visit_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self._scopes.append(set())
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            if self._annotation_is_gemm_model(arg.annotation):
                self._track(arg.arg)
        try:
            self.generic_visit(node)
        finally:
            self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- loop context --------------------------------------------------------

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop
    visit_ListComp = _visit_loop
    visit_SetComp = _visit_loop
    visit_DictComp = _visit_loop
    visit_GeneratorExp = _visit_loop

    # -- the check -----------------------------------------------------------

    @staticmethod
    def _is_self(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "self"

    def _receiver(self, node: ast.Attribute) -> Optional[str]:
        obj = node.value
        if isinstance(obj, ast.Name) and self._tracked(obj.id):
            return obj.id
        if (
            isinstance(obj, ast.Attribute)
            and self._is_self(obj.value)
            and obj.attr in self.self_attrs
        ):
            return f"self.{obj.attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._loop_depth > 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._METHODS
        ):
            receiver = self._receiver(node.func)
            if receiver is not None:
                self.hits.append(
                    (node.lineno, node.col_offset, f"{receiver}.{node.func.attr}")
                )
        self.generic_visit(node)


class _LayerModelLoopVisitor(_ScalarLoopVisitor):
    """Finds single-config LayerLatencyModel calls under a loop.

    Same binding machinery as :class:`_ScalarLoopVisitor`, retargeted
    at :class:`~repro.core.latency.LayerLatencyModel` receivers: a sweep
    that prices one config per iteration makes one engine call per
    config, where ``layer_breakdowns`` / ``model_breakdowns`` price the
    whole sweep in one engine grid.
    """

    _CTOR_NAMES = frozenset({"LayerLatencyModel"})
    _ANNOTATION = "LayerLatencyModel"
    _METHODS = _LAYER_MODEL_METHODS


class _EngineLoopVisitor(_ScalarLoopVisitor):
    """Finds engine batch calls under a loop (per-shape scalar use).

    Same binding machinery as :class:`_ScalarLoopVisitor`, retargeted
    at :class:`ShapeEngine` receivers — including the inline
    ``default_engine().evaluate(...)`` form, which binds no name.
    Additionally flags ``evaluate_grid`` / ``evaluate_tiles`` inside a
    loop: one whole-grid call per loop iteration (e.g. per candidate
    tile) is the scalar-in-loop mistake at grid granularity — the
    engine's own batched sweep (``evaluate_tiles``) owns that loop.
    """

    _CTOR_NAMES = frozenset({"ShapeEngine", "default_engine"})
    _ANNOTATION = "ShapeEngine"
    _METHODS = _SCALAR_METHODS | frozenset({"evaluate_grid", "evaluate_tiles"})

    def _receiver(self, node: ast.Attribute) -> Optional[str]:
        found = super()._receiver(node)
        if found is not None:
            return found
        obj = node.value
        if self._is_gemm_model_ctor(obj):
            fn = obj.func  # type: ignore[union-attr]
            name = fn.id if isinstance(fn, ast.Name) else fn.attr
            return f"{name}()"
        return None


class SelfLinter:
    """Runs the self-lint rules over a Python source tree."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        if root is None:
            root = Path(__file__).parent.parent
        self.root = Path(root)
        if not self.root.exists():
            raise ConfigError(f"self-lint root does not exist: {self.root}")

    # -- file discovery ------------------------------------------------------

    def _files(self, paths: Optional[Sequence["str | Path"]]) -> List[Path]:
        if paths:
            out: List[Path] = []
            for p in paths:
                p = Path(p)
                if p.is_dir():
                    out.extend(sorted(p.rglob("*.py")))
                elif p.suffix == ".py":
                    out.append(p)
                else:
                    raise ConfigError(f"not a Python file or directory: {p}")
            return out
        if self.root.is_file():
            return [self.root]
        return sorted(self.root.rglob("*.py"))

    def _rel(self, path: Path) -> str:
        try:
            return str(path.relative_to(self.root.parent))
        except ValueError:
            return str(path)

    # -- entry point ---------------------------------------------------------

    def lint(self, paths: Optional[Sequence["str | Path"]] = None) -> LintReport:
        files = self._files(paths)
        report = LintReport(
            target=f"self-lint of {self.root if not paths else ', '.join(map(str, paths))}"
        )
        parsed: Dict[Path, Tuple[ast.Module, List[str]]] = {}
        for path in files:
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                raise ConfigError(f"cannot parse {path}: {exc}") from exc
            parsed[path] = (tree, source.splitlines())

        for path, (tree, lines) in parsed.items():
            report.extend(self._check_scalar_loops(path, tree, lines))
            report.extend(self._check_engine_loops(path, tree, lines))
            report.extend(self._check_nondet_keys(path, tree, lines))
            report.extend(self._check_dataclass_docs(path, tree, lines))
        report.extend(self._check_constant_guard(parsed))
        return report

    # -- rule: scalar eval in loop -------------------------------------------

    def _check_scalar_loops(
        self, path: Path, tree: ast.Module, lines: Sequence[str]
    ) -> List[LintDiagnostic]:
        rules = (
            (
                _ScalarLoopVisitor(),
                "scalar GemmModel call `{}(...)` inside a loop; batch the "
                "shapes and use the engine (repro.engine.default_engine) "
                "instead",
            ),
            (
                _LayerModelLoopVisitor(),
                "single-config LayerLatencyModel call `{}(...)` inside a "
                "loop; price the whole sweep in one grid with "
                "layer_breakdowns / model_breakdowns instead",
            ),
        )
        out = []
        for visitor, message in rules:
            visitor.visit(tree)
            for lineno, col, call in visitor.hits:
                if _suppressed(lines, lineno, RULE_SCALAR_LOOP):
                    continue
                out.append(
                    LintDiagnostic(
                        RULE_SCALAR_LOOP,
                        Severity.WARNING,
                        message.format(call),
                        Location(file=self._rel(path), line=lineno, column=col),
                    )
                )
        return out

    # -- rule: engine eval in loop ---------------------------------------------

    def _check_engine_loops(
        self, path: Path, tree: ast.Module, lines: Sequence[str]
    ) -> List[LintDiagnostic]:
        visitor = _EngineLoopVisitor()
        visitor.visit(tree)
        out = []
        for lineno, col, call in visitor.hits:
            if _suppressed(lines, lineno, RULE_ENGINE_LOOP):
                continue
            out.append(
                LintDiagnostic(
                    RULE_ENGINE_LOOP,
                    Severity.WARNING,
                    f"engine call `{call}(...)` inside a loop; build one "
                    "ShapeGrid covering the whole sweep and call "
                    "engine.evaluate_grid once instead (for per-candidate "
                    "tile sweeps, engine.evaluate_tiles owns the loop)",
                    Location(file=self._rel(path), line=lineno, column=col),
                )
            )
        return out

    # -- rule: calibration constants must reach the cache key -----------------

    def _check_constant_guard(
        self, parsed: Dict[Path, Tuple[ast.Module, List[str]]]
    ) -> List[LintDiagnostic]:
        constants: List[Tuple[Path, int, str]] = []
        for path, (tree, _) in parsed.items():
            if "gpu" not in path.parts:
                continue
            for node in tree.body:
                targets: Iterable[ast.expr] = ()
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and _CALIBRATION_CONSTANT.match(
                        target.id
                    ):
                        constants.append((path, node.lineno, target.id))
        if not constants:
            return []

        key_module = self.root / "engine" / "cache.py"
        referenced: Set[str] = set()
        if key_module.exists():
            key_tree = ast.parse(key_module.read_text(), filename=str(key_module))
            for node in ast.walk(key_tree):
                if isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)

        out = []
        for path, lineno, name in constants:
            if name in referenced:
                continue
            lines = parsed[path][1]
            if _suppressed(lines, lineno, RULE_CONSTANT_GUARD):
                continue
            out.append(
                LintDiagnostic(
                    RULE_CONSTANT_GUARD,
                    Severity.ERROR,
                    f"calibration constant {name} is not folded into the "
                    "engine cache key (repro.engine.cache.model_version); "
                    "re-fitting it would serve stale cached results",
                    Location(file=self._rel(path), line=lineno),
                )
            )
        return out

    # -- rule: cache keys must be deterministic --------------------------------

    @staticmethod
    def _nondet_reason(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = node.value.id
            if base in _NONDET_MODULES:
                return f"{base}.{node.attr}"
            if base == "os" and node.attr in ("environ", "getenv"):
                return f"os.{node.attr}"
        if isinstance(node, ast.Name) and node.id == "getenv":
            return "getenv"
        return None

    def _check_nondet_keys(
        self, path: Path, tree: ast.Module, lines: Sequence[str]
    ) -> List[LintDiagnostic]:
        out = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _KEYISH_NAME.search(node.name):
                continue
            for sub in ast.walk(node):
                reason = self._nondet_reason(sub)
                if reason is None:
                    continue
                lineno = getattr(sub, "lineno", node.lineno)
                if _suppressed(lines, lineno, RULE_NONDET_KEY):
                    continue
                out.append(
                    LintDiagnostic(
                        RULE_NONDET_KEY,
                        Severity.ERROR,
                        f"`{reason}` inside cache-key function "
                        f"`{node.name}`: keys must be pure functions of "
                        "model state, never of time/process/environment",
                        Location(file=self._rel(path), line=lineno),
                    )
                )
        return out

    # -- rule: public dataclass field documentation ----------------------------

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.id if isinstance(target, ast.Name) else (
                target.attr if isinstance(target, ast.Attribute) else None
            )
            if name == "dataclass":
                return True
        return False

    @staticmethod
    def _is_float_annotation(node: Optional[ast.expr]) -> bool:
        """True for ``float`` / ``Optional[float]`` / ``"float"`` fields.

        Only float fields need unit docs — an undocumented float is
        ambiguous between seconds/us, bytes/GB, fraction/percent.
        """
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id == "float"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.strip() == "float"
        if isinstance(node, ast.Subscript):
            base = node.value
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None
            )
            if name == "Optional":
                return SelfLinter._is_float_annotation(node.slice)
        return False

    @staticmethod
    def _field_documented(
        name: str, docstring: str, lines: Sequence[str], lineno: int
    ) -> bool:
        if re.search(rf"\b{re.escape(name)}\b", docstring):
            return True
        if name.endswith(_UNIT_SUFFIXES):
            return True
        # An adjacent comment (same line or the line above) counts.
        for ln in (lineno, lineno - 1):
            if 1 <= ln <= len(lines) and "#" in lines[ln - 1]:
                return True
        return False

    def _check_dataclass_docs(
        self, path: Path, tree: ast.Module, lines: Sequence[str]
    ) -> List[LintDiagnostic]:
        out = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_") or not self._is_dataclass(node):
                continue
            if _suppressed(lines, node.lineno, RULE_DATACLASS_DOC):
                continue
            docstring = ast.get_docstring(node) or ""
            if not docstring.strip():
                out.append(
                    LintDiagnostic(
                        RULE_DATACLASS_DOC,
                        Severity.WARNING,
                        f"public dataclass {node.name} has no docstring; "
                        "document its fields' shapes/units",
                        Location(file=self._rel(path), line=node.lineno),
                    )
                )
                continue
            missing = []
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                field = stmt.target.id
                if field.startswith("_") or not self._is_float_annotation(
                    stmt.annotation
                ):
                    continue
                if _suppressed(lines, stmt.lineno, RULE_DATACLASS_DOC):
                    continue
                if not self._field_documented(field, docstring, lines, stmt.lineno):
                    missing.append(field)
            if missing:
                out.append(
                    LintDiagnostic(
                        RULE_DATACLASS_DOC,
                        Severity.WARNING,
                        f"public dataclass {node.name} fields missing "
                        f"shape/unit documentation: {', '.join(missing)} "
                        "(name them in the docstring, use a unit suffix, "
                        "or add an adjacent comment)",
                        Location(file=self._rel(path), line=node.lineno),
                    )
                )
        return out
