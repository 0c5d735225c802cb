"""The detlint AST rules (DET001-DET009; DET007 is retired).

One :class:`FileChecker` pass per file.  The checker is deliberately
heuristic — it resolves imports and simple local/attribute bindings, not
full types — but every heuristic is tuned so that a hit is worth a human
look, and the inline ``# detlint: disable=DETxxx <reason>`` escape hatch
(see :mod:`repro.analysis.linter`) covers intentional exceptions.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding

# -- DET001: wall clocks -------------------------------------------------------

WALL_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
    "clock_gettime_ns",
})
DATETIME_CLASS_FNS = frozenset({"now", "utcnow", "today"})

# -- DET003: order-sensitive loop bodies --------------------------------------

SCHEDULING_METHODS = frozenset({
    "call_at", "call_later", "every", "schedule", "send", "request",
    "submit", "post_send", "inject", "publish",
})
ACCUMULATOR_METHODS = frozenset({
    "append", "extend", "add", "appendleft", "insert",
})
RNG_METHODS = frozenset({
    "uniform", "randint", "random", "chance", "choice", "sample",
    "shuffle", "shuffled", "expovariate", "gauss", "lognormal",
    "normalvariate", "betavariate", "randrange",
})
SET_RETURNING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})

# -- DET005: shared mutable state ---------------------------------------------

MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "bytearray",
})

# -- DET008: wire-form mutation -----------------------------------------------

# Constructors whose instances are wire-form payloads shared across the
# control plane (mutating one mutates every reader's copy).
WIREFORM_FACTORIES = frozenset({"ShardWindowSummary"})
# Method calls that mutate a dict/list/set in place.
WIREFORM_MUTATORS = frozenset({
    "update", "clear", "pop", "popitem", "setdefault", "append",
    "extend", "add", "insert", "remove", "discard", "sort", "reverse",
    "appendleft",
})
# Scopes where object.__setattr__ on a frozen dataclass is construction,
# not mutation.
CONSTRUCTION_SCOPES = frozenset({
    "__init__", "__post_init__", "__new__", "__setstate__",
    "__setattr__", "__delattr__", "__copy__", "__deepcopy__",
})

# -- DET009: engine internals --------------------------------------------------

# attribute name -> path suffix of the one module allowed to touch it.
ENGINE_INTERNAL_ATTRS = {
    "_event_heap": "repro/sim/engine.py",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    head = text.split("[", 1)[0].strip().strip("\"'")
    return head.split(".")[-1] in ("set", "Set", "frozenset", "FrozenSet",
                                   "MutableSet", "AbstractSet")


def _is_mutable_literal(node: ast.AST) -> bool:
    """A value that is a fresh mutable container literal/constructor."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name is not None and name.split(".")[-1] in MUTABLE_FACTORIES
    return False


def _is_counter_call(node: ast.AST) -> bool:
    """itertools.count(...) (or bare count(...)) — a shared iterator."""
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func)
    return name in ("itertools.count", "count")


def _scope_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Pre-order walk of a body, skipping nested function/class scopes.

    DET008 tracks per-handler taint; a nested ``def`` or ``lambda`` is its
    own scope.
    """
    stack: list[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _subscript_base(node: ast.AST) -> ast.AST:
    """Unwrap x[i][j].attr chains down to the root expression."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node


def _is_state_call(node: ast.AST) -> bool:
    """``something.state()`` — a wire-form sketch/window payload."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "state" and not node.args)


def _span(node: ast.AST) -> tuple[int, int]:
    return (node.lineno, getattr(node, "end_lineno", node.lineno)
            or node.lineno)


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _dotted(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return dec
    return None


class FileChecker:
    """Run every rule over one parsed module."""

    def __init__(self, path: str, tree: ast.Module, *,
                 messages_module: bool = False):
        self.path = path
        self.tree = tree
        self.messages_module = messages_module
        self.findings: list[Finding] = []
        # Import bindings.
        self._time_aliases: set[str] = set()
        self._datetime_mod_aliases: set[str] = set()
        self._datetime_cls_aliases: set[str] = set()
        self._wall_fn_aliases: set[str] = set()
        self._numpy_aliases: set[str] = set()
        # Attribute names (on self) known to hold sets, per class scan.
        self._set_attrs: set[str] = set()

    # -- driver ---------------------------------------------------------------

    def run(self) -> list[Finding]:
        """Collect findings for the whole module."""
        self._collect_set_attrs()
        self._check_scope(self.tree.body, kind="module")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                self._check_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._check_import_from(node)
            elif isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.Attribute):
                self._check_numpy_random(node)
                self._check_engine_internals(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)
            elif isinstance(node, ast.ClassDef):
                self._check_class(node)
        return self.findings

    def _emit(self, code: str, node: ast.AST, message: str, *,
              span: Optional[tuple[int, int]] = None) -> None:
        self.findings.append(Finding(
            code=code, path=self.path, line=node.lineno,
            col=node.col_offset + 1, message=message,
            suppress_span=span or (node.lineno, node.lineno)))

    # -- imports (DET001 bindings + DET002) -----------------------------------

    def _check_import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "datetime":
                self._datetime_mod_aliases.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                self._numpy_aliases.add(bound)
                if alias.name == "numpy.random":
                    self._emit("DET002", node,
                               "import of numpy.random (global RNG)")
            elif alias.name == "random":
                self._emit("DET002", node,
                           "import of the global random module")

    def _check_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random":
            self._emit("DET002", node,
                       "import from the global random module")
        elif module.startswith("numpy.random") or (
                module == "numpy"
                and any(a.name == "random" for a in node.names)):
            self._emit("DET002", node,
                       "import of numpy.random (global RNG)")
        elif module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FNS:
                    self._wall_fn_aliases.add(alias.asname or alias.name)
        elif module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_cls_aliases.add(alias.asname or alias.name)

    # -- calls (DET001 + DET004) ----------------------------------------------

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._wall_fn_aliases:
                self._emit("DET001", node,
                           f"wall-clock call {func.id}() from the time "
                           "module")
            elif func.id == "id" and node.args:
                self._emit("DET004", node,
                           "id() yields a per-run memory address")
            elif func.id in ("sorted",):
                self._check_sort_key(node)
        elif isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base in self._time_aliases \
                    and func.attr in WALL_CLOCK_TIME_FNS:
                self._emit("DET001", node,
                           f"wall-clock call {base}.{func.attr}()")
            elif func.attr in DATETIME_CLASS_FNS and base is not None:
                root = base.split(".")[0]
                if (base in self._datetime_cls_aliases
                        or root in self._datetime_mod_aliases):
                    self._emit("DET001", node,
                               f"wall-clock call {base}.{func.attr}()")
            elif func.attr == "sort":
                self._check_sort_key(node)

    def _check_sort_key(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            for sub in ast.walk(kw.value):
                if isinstance(sub, ast.Name) and sub.id in ("id", "hash"):
                    self._emit("DET004", node,
                               f"sort key uses {sub.id}() — identity "
                               "order changes every run")
                    return

    def _check_numpy_random(self, node: ast.Attribute) -> None:
        base = _dotted(node.value)
        if base in self._numpy_aliases and node.attr == "random":
            self._emit("DET002", node,
                       f"use of {base}.random (global numpy RNG)")

    # -- functions: DET005 defaults + DET003 loops ----------------------------

    def _check_function(self,
                        node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in [*args.defaults,
                        *[d for d in args.kw_defaults if d is not None]]:
            if _is_mutable_literal(default):
                self._emit("DET005", default,
                           "mutable default argument is shared across "
                           f"calls of {node.name}()")
        self._check_loops(node)
        self._check_wireform(node)

    # -- classes: DET005 class state + DET006 frozen --------------------------

    def _check_scope(self, body: list[ast.stmt], *, kind: str) -> None:
        """Module/class-level statements: flag shared counters (DET005)."""
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is not None and _is_counter_call(value):
                    self._emit("DET005", stmt,
                               f"{kind}-level itertools.count() is shared "
                               "state across instances and runs")

    def _check_class(self, node: ast.ClassDef) -> None:
        self._check_scope(node.body, kind="class")
        decorator = _dataclass_decorator(node)
        if decorator is None:
            return
        for stmt in node.body:
            value = stmt.value if isinstance(stmt,
                                             (ast.Assign, ast.AnnAssign)) \
                else None
            if value is not None and _is_mutable_literal(value):
                self._emit("DET005", stmt,
                           "mutable class-level container in dataclass "
                           f"{node.name}; use field(default_factory=...)")
        if self.messages_module and not self._is_frozen(decorator):
            self._emit("DET006", node,
                       f"message dataclass {node.name} must be "
                       "frozen=True",
                       span=(decorator.lineno, node.lineno))

    @staticmethod
    def _is_frozen(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False  # bare @dataclass
        for kw in decorator.keywords:
            if kw.arg == "frozen":
                return (isinstance(kw.value, ast.Constant)
                        and kw.value.value is True)
        return False

    # -- DET003 ---------------------------------------------------------------

    def _collect_set_attrs(self) -> None:
        """Attribute names annotated/assigned as sets anywhere in the file.

        Collected file-wide (not per-class): a false merge across classes
        only matters if the same attribute name is a set in one class and
        an ordered type in another, which the fix (sorted) tolerates.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.AnnAssign) \
                    and _annotation_is_set(node.annotation):
                name = _dotted(node.target)
                if name is not None:
                    self._set_attrs.add(name.split(".")[-1])

    def _known_set_names(self,
                         func: ast.FunctionDef | ast.AsyncFunctionDef
                         ) -> set[str]:
        known: set[str] = set()
        all_args = [*func.args.posonlyargs, *func.args.args,
                    *func.args.kwonlyargs]
        for arg in all_args:
            if _annotation_is_set(arg.annotation):
                known.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.AnnAssign):
                if _annotation_is_set(node.annotation):
                    name = _dotted(node.target)
                    if name is not None:
                        known.add(name)
            elif isinstance(node, ast.Assign):
                if self._is_set_expr(node.value, known):
                    for target in node.targets:
                        name = _dotted(target)
                        if name is not None:
                            known.add(name)
        return known

    def _is_set_expr(self, node: ast.AST, known: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None:
                tail = name.split(".")[-1]
                if tail in ("set", "frozenset"):
                    return True
                if tail in ("sorted",):
                    return False
                if tail in ("list", "tuple") and node.args:
                    return self._is_set_expr(node.args[0], known)
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in SET_RETURNING_METHODS:
                return self._is_set_expr(node.func.value, known)
            return False
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _dotted(node)
            if name is None:
                return False
            if name in known:
                return True
            parts = name.split(".")
            return len(parts) > 1 and parts[-1] in self._set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left, known)
                    or self._is_set_expr(node.right, known))
        return False

    def _check_loops(self,
                     func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        known = self._known_set_names(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if not self._is_set_expr(node.iter, known):
                    continue
                effect = self._order_sensitive_effect(node.body)
                if effect is None:
                    continue
                self._emit(
                    "DET003", node,
                    f"iteration over a set {effect}; order varies "
                    "run-to-run",
                    span=(node.lineno, node.iter.end_lineno or node.lineno))
            elif isinstance(node, ast.ListComp):
                if any(self._is_set_expr(gen.iter, known)
                       for gen in node.generators):
                    self._emit(
                        "DET003", node,
                        "list comprehension materializes ordered results "
                        "from unordered set iteration",
                        span=_span(node))

    # -- DET008 ---------------------------------------------------------------

    def _check_wireform(
            self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        state_names: set[str] = set()
        for node in _scope_nodes(func.body):
            # Track (and untrack on reassignment) wire-form bindings in
            # document order, so the documented fix — ``state =
            # dict(state)`` before mutating — clears the taint.
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if self._is_wireform_value(node.value):
                    state_names.add(name)
                else:
                    state_names.discard(name)
                continue
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in ("__setattr__", "__delattr__") \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id == "object" \
                        and func.name not in CONSTRUCTION_SCOPES:
                    self._emit(
                        "DET008", node,
                        f"object.{attr}() bypasses frozen=True outside "
                        "construction — build a new instance instead")
                elif attr in WIREFORM_MUTATORS \
                        and self._is_wireform_expr(node.func.value,
                                                   state_names):
                    self._emit(
                        "DET008", node,
                        f"in-place {attr}() on wire-form state; copy "
                        "before mutating (dict(state))")
            elif isinstance(node, (ast.AugAssign,)) \
                    and isinstance(node.target, ast.Subscript) \
                    and self._is_wireform_expr(
                        _subscript_base(node.target), state_names):
                self._emit("DET008", node,
                           "in-place update of wire-form state; copy "
                           "before mutating (dict(state))")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and self._is_wireform_expr(
                                _subscript_base(target), state_names):
                        self._emit(
                            "DET008", node,
                            "item assignment into wire-form state; copy "
                            "before mutating (dict(state))")

    @staticmethod
    def _is_wireform_value(value: ast.AST) -> bool:
        if _is_state_call(value):
            return True
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            return (name is not None
                    and name.split(".")[-1] in WIREFORM_FACTORIES)
        return False

    @staticmethod
    def _is_wireform_expr(node: ast.AST, state_names: set[str]) -> bool:
        """The expression being mutated is (part of) wire-form state."""
        if _is_state_call(node):
            return True
        root = _subscript_base(node)
        if _is_state_call(root):
            return True
        return isinstance(root, ast.Name) and root.id in state_names

    # -- DET009 ---------------------------------------------------------------

    def _check_engine_internals(self, node: ast.Attribute) -> None:
        owner = ENGINE_INTERNAL_ATTRS.get(node.attr)
        if owner is None:
            return
        if self.path.replace("\\", "/").endswith(owner):
            return
        base = _dotted(node.value)
        if base in ("self", "cls"):
            return
        self._emit(
            "DET009", node,
            f"direct access to engine internal {node.attr!r} from outside "
            f"its owning module ({owner})")

    @staticmethod
    def _order_sensitive_effect(body: list[ast.stmt]) -> Optional[str]:
        """Why the loop body is order-sensitive, or None if it isn't."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    attr = node.func.attr
                    chain = _dotted(node.func.value) or ""
                    if attr in SCHEDULING_METHODS:
                        return f"whose body schedules/sends ({attr})"
                    if attr in ACCUMULATOR_METHODS:
                        return f"whose body accumulates results ({attr})"
                    if attr in RNG_METHODS or "rng" in chain.split("."):
                        return f"whose body draws randomness ({attr})"
                elif isinstance(node, ast.AugAssign) \
                        and isinstance(node.target, ast.Subscript):
                    return "whose body accumulates into a container"
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "whose body yields ordered results"
        return None


def check_module(path: str, source: str) -> list[Finding]:
    """Parse one file and run every rule; syntax errors become findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(code="DET000", path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"could not parse file: {exc.msg}")]
    messages_module = "messages" in path.replace("\\", "/").rsplit(
        "/", 1)[-1]
    return FileChecker(path, tree,
                       messages_module=messages_module).run()


def iter_codes() -> Iterator[str]:
    """All rule codes, in order."""
    yield from ("DET000", "DET001", "DET002", "DET003", "DET004",
                "DET005", "DET006", "DET008", "DET009")
