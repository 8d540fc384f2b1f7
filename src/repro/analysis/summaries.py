"""Per-module summary extraction for the project-wide analysis pass.

This module turns one parsed :class:`~repro.analysis.core.SourceModule`
into a fully *picklable* :class:`ModuleSummary` — no AST nodes survive —
so the per-file scan (including summary extraction) can run across a
process pool while the parent merges summaries into a
:class:`~repro.analysis.project.ProjectIndex` and runs the project rules
over plain data.

What a summary records, per module:

* import tables (``import x as y`` aliases and ``from m import n`` names,
  with relative-import levels) — the project index resolves them against
  the scanned tree by dotted-suffix match;
* per-class tables: lock attributes created in methods
  (``self._lock = threading.RLock()`` → reentrant), attribute types
  inferred from ``self.x = ClassName(...)`` / annotations, ``@property``
  aliases that return a ``self.<attr>`` (so ``store.lock`` resolves to
  ``SnapshotStore._lock``);
* per-function summaries: lock acquisitions with the set of locks already
  held, call sites with held-lock sets (the edges RA007 propagates
  over), local variable types, the resource-lifecycle verdicts RA008
  consumes, and the pool-submit payload candidates RA009 resolves.

The resource-lifecycle walker is a small abstract interpreter over the
statement list.  A tracked variable moves through states:

``open``
    bound to a fresh acquire (``pin()``, ``create_pool()``, a pool
    constructor) with no protection yet;
``protected``
    a ``try`` whose ``finally`` releases it has been entered (or it was
    acquired inside one) — if call-carrying statements ran between the
    acquire and that ``try``, a *leak-window* issue is recorded, because
    any of them raising leaks the resource;
``closed``
    released in straight-line code or managed by a ``with``;
``escaped``
    handed off — returned, yielded, passed as a call argument, stored
    into an attribute/container or aliased.  Ownership moved somewhere
    this pass cannot see, so the walker goes conservatively silent;
``owned``
    the ``__init__`` special case of escape-to-``self``: the instance now
    owns the resource, but until the constructor returns nobody can call
    its release method, so call-carrying statements after the hand-off
    must sit under a ``try`` whose handler/finally releases the resource
    (a *ctor-window* issue otherwise — guard calls like
    ``self._release_pin()`` are resolved interprocedurally by RA008).

Everything unresolvable stays silent: the vocabulary above is explicit,
and a name the walker cannot bind participates in nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    FUNCTION_NODES,
    expr_text,
    walk_scope,
)

# --------------------------------------------------------------------- #
# Vocabulary
# --------------------------------------------------------------------- #

#: ``threading`` factory → reentrant?  ``Condition`` defaults to an RLock.
LOCK_FACTORIES = {
    "Lock": False,
    "RLock": True,
    "Condition": True,
    "Semaphore": False,
    "BoundedSemaphore": False,
}

#: Method name → resource kind, for acquires that bind a result variable.
ACQUIRE_METHODS = {
    "pin": "pin",
    "create_pool": "pool",
}

#: Constructors that spawn a worker pool.
POOL_CTORS = frozenset(
    {"ProcessPoolExecutor", "ThreadPoolExecutor", "WorkerPool"}
)

#: Release method → resource kinds it retires (on the resource variable).
RELEASE_METHODS = {
    "release": frozenset({"pin", "lock"}),
    "shutdown": frozenset({"pool"}),
}

#: Receiver classes whose ``.submit(...)`` is a process-pool boundary
#: (RA009 extends RA003's spelling heuristic with this type check).
POOL_CLASS_NAMES = frozenset(
    {"WorkerPool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)

#: Substrings identifying a pool receiver by spelling (RA003's heuristic).
POOLISH_SPELLINGS = ("pool", "executor")


# --------------------------------------------------------------------- #
# Summary data model (all picklable, no AST references)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LockAcquire:
    """One lock acquisition (``with <expr>:`` or ``<expr>.acquire()``)."""

    spelling: str
    lineno: int
    held: Tuple[str, ...]  # spellings of locks already held here


@dataclass(frozen=True)
class CallSite:
    """One resolvable call, with the locks held at the call."""

    parts: Tuple[str, ...]  # ("self", "seal") / ("store", "pin") / ("helper",)
    lineno: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class LifecycleIssue:
    """One RA008 candidate produced by the per-function walker."""

    kinds: Tuple[str, ...]
    var: str
    acquire_line: int
    line: int  # anchor
    problem: str  # "unreleased" | "leak-window" | "ctor-window"
    detail: str
    #: Guard calls (e.g. ``("self", "_release_shared_graph")``) that, if
    #: any resolves to a function transitively releasing every kind in
    #: ``kinds``, absolve the issue; unresolvable guards absolve too
    #: (conservative silence).  Empty means the issue stands on its own.
    pending_guards: Tuple[Tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class SubmitPayload:
    """One RA009 candidate: a value flowing into a pool boundary."""

    lineno: int
    receiver: str
    role: str  # "argument" | "initargs"
    spelling: str
    #: ``definite:<why>`` — provably unpicklable here;
    #: ``type:<spelling>`` / ``selfattr:<attr>`` / ``gencall:<dotted>`` —
    #: symbolic, resolved against the project index.
    verdict: str


@dataclass(frozen=True)
class FunctionSummary:
    qualname: str  # "Class.method" or "function"
    class_name: Optional[str]
    name: str
    lineno: int
    is_generator: bool
    lock_acquires: Tuple[LockAcquire, ...]
    calls: Tuple[CallSite, ...]
    local_types: Tuple[Tuple[str, str], ...]  # var → class spelling
    local_locks: Tuple[Tuple[str, bool], ...]  # var → reentrant
    release_kinds: Tuple[str, ...]
    lifecycle: Tuple[LifecycleIssue, ...]
    submit_payloads: Tuple[SubmitPayload, ...]


@dataclass(frozen=True)
class ClassSummary:
    name: str
    lineno: int
    lock_attrs: Tuple[Tuple[str, bool], ...]  # attr → reentrant
    attr_types: Tuple[Tuple[str, str], ...]  # attr → class spelling
    property_aliases: Tuple[Tuple[str, str], ...]  # property → attr
    method_names: Tuple[str, ...]


@dataclass(frozen=True)
class ModuleSummary:
    path: str
    dotted: str
    import_aliases: Tuple[Tuple[str, str], ...]  # local → module as written
    from_imports: Tuple[Tuple[str, str, str, int], ...]  # local, module, symbol, level
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassSummary, ...]


def module_dotted_name(path: str) -> str:
    """Best-effort dotted module name for ``path``.

    Everything up to and including the last ``src`` component is dropped
    (the repo layout), ``__init__`` is elided, suffixes stripped.  Paths
    outside a ``src`` tree keep all their parts — the project index
    resolves imports by dotted *suffix*, so absolute prefixes are
    harmless.
    """
    parts = list(Path(path).with_suffix("").parts)
    parts = [part for part in parts if part not in ("/", "\\")]
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


# --------------------------------------------------------------------- #
# Shared small helpers
# --------------------------------------------------------------------- #
def _call_parts(func: ast.expr) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


_SCOPE_BARRIERS = FUNCTION_NODES + (ast.Lambda,)


def _walk_expr(root: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression without entering nested function scopes."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_BARRIERS):
            stack.extend(ast.iter_child_nodes(node))


def _nodes_with_parents(
    roots: Sequence[ast.AST],
) -> List[Tuple[ast.AST, Optional[ast.AST]]]:
    """One walk yielding ``(node, parent)`` pairs, nested scopes pruned.

    The statement walker needs calls, names *and* their parent context
    from the same statement; collecting them in a single pass keeps the
    per-statement cost at one traversal instead of one per question.
    """
    pairs: List[Tuple[ast.AST, Optional[ast.AST]]] = []
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [
        (root, None) for root in roots
    ]
    while stack:
        node, parent = stack.pop()
        pairs.append((node, parent))
        if not isinstance(node, _SCOPE_BARRIERS):
            stack.extend(
                (child, node) for child in ast.iter_child_nodes(node)
            )
    return pairs


class _ImportTables:
    """Module-level import information used during extraction."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        self.from_imports: List[Tuple[str, str, str, int]] = []
        self.threading_aliases: Set[str] = set()
        self.threading_from: Dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.aliases[local] = alias.name
                    if alias.name == "threading":
                        self.threading_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports.append(
                        (local, source, alias.name, node.level)
                    )
                    if source == "threading" and node.level == 0:
                        self.threading_from[local] = alias.name

    def lock_factory(self, call: ast.Call) -> Optional[bool]:
        """Reentrancy of a ``threading`` lock factory call, else None."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.threading_aliases
        ):
            return LOCK_FACTORIES.get(func.attr)
        if isinstance(func, ast.Name):
            symbol = self.threading_from.get(func.id)
            if symbol is not None:
                return LOCK_FACTORIES.get(symbol)
        return None


def _acquire_kind(
    call: ast.Call, imports: _ImportTables
) -> Optional[Tuple[str, str]]:
    """``(kind, receiver spelling)`` if ``call`` acquires a resource."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ACQUIRE_METHODS:
        return ACQUIRE_METHODS[func.attr], expr_text(func.value)
    parts = _call_parts(func)
    if parts is not None and parts[-1] in POOL_CTORS:
        return "pool", ".".join(parts)
    return None


def _find_acquire(
    expr: ast.expr, imports: _ImportTables
) -> Optional[Tuple[str, str]]:
    for node in _walk_expr(expr):
        if isinstance(node, ast.Call):
            found = _acquire_kind(node, imports)
            if found is not None:
                return found
    return None


_READ_PARENTS = (ast.Attribute, ast.Subscript, ast.Compare, ast.BoolOp, ast.UnaryOp)


# A Name whose parent is one of these merely *reads* the value
# (attribute/subscript base, comparison, boolean test); any other Load
# occurrence — call argument, container element, alias assignment,
# return/yield value — transfers the reference somewhere the
# per-statement walker cannot follow (an escape).


# --------------------------------------------------------------------- #
# Class extraction
# --------------------------------------------------------------------- #
def _type_from_annotation(annotation: ast.expr) -> Optional[str]:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return expr_text(annotation)
    if isinstance(annotation, ast.Subscript) and isinstance(
        annotation.value, ast.Name
    ):
        if annotation.value.id == "Optional":
            return _type_from_annotation(annotation.slice)
    return None


def _summarize_class(
    classdef: ast.ClassDef, imports: _ImportTables
) -> ClassSummary:
    lock_attrs: Dict[str, bool] = {}
    attr_types: Dict[str, Optional[str]] = {}
    property_aliases: Dict[str, str] = {}
    method_names: List[str] = []

    def note_attr_type(attr: str, spelling: Optional[str]) -> None:
        if spelling is None:
            return
        if attr in attr_types and attr_types[attr] != spelling:
            attr_types[attr] = None  # conflicting evidence: unresolvable
        elif attr not in attr_types:
            attr_types[attr] = spelling

    for method in classdef.body:
        if not isinstance(method, FUNCTION_NODES):
            continue
        method_names.append(method.name)
        decorated_property = any(
            isinstance(dec, ast.Name) and dec.id == "property"
            for dec in method.decorator_list
        )
        if decorated_property and method.body:
            last = method.body[-1]
            if (
                isinstance(last, ast.Return)
                and isinstance(last.value, ast.Attribute)
                and isinstance(last.value.value, ast.Name)
                and last.value.value.id == "self"
            ):
                property_aliases[method.name] = last.value.attr
        for node in walk_scope(method):
            targets: List[Tuple[str, Optional[ast.expr]]] = []
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        targets.append((target.attr, node.value))
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    annotated = _type_from_annotation(node.annotation)
                    if annotated is not None:
                        note_attr_type(target.attr, annotated)
                    targets.append((target.attr, node.value))
            for attr, value in targets:
                if not isinstance(value, ast.Call):
                    continue
                reentrant = imports.lock_factory(value)
                if reentrant is not None:
                    lock_attrs.setdefault(attr, reentrant)
                    continue
                parts = _call_parts(value.func)
                if parts is not None and parts[0] != "self":
                    note_attr_type(attr, ".".join(parts))
    return ClassSummary(
        name=classdef.name,
        lineno=classdef.lineno,
        lock_attrs=tuple(sorted(lock_attrs.items())),
        attr_types=tuple(
            sorted(
                (attr, spelling)
                for attr, spelling in attr_types.items()
                if spelling is not None
            )
        ),
        property_aliases=tuple(sorted(property_aliases.items())),
        method_names=tuple(method_names),
    )


# --------------------------------------------------------------------- #
# Function walker
# --------------------------------------------------------------------- #
class _VarState:
    __slots__ = (
        "kinds",
        "acquire_line",
        "receiver",
        "status",
        "risky",
        "partial",
        "pending_guards",
        "ctor_risky_line",
    )

    def __init__(self, kinds: Set[str], acquire_line: int, receiver: str) -> None:
        self.kinds = set(kinds)
        self.acquire_line = acquire_line
        self.receiver = receiver
        self.status = "open"
        self.risky = 0
        self.partial = False
        self.pending_guards: Set[Tuple[str, ...]] = set()
        self.ctor_risky_line: Optional[int] = None

    def copy(self) -> "_VarState":
        clone = _VarState(self.kinds, self.acquire_line, self.receiver)
        clone.status = self.status
        clone.risky = self.risky
        clone.partial = self.partial
        clone.pending_guards = set(self.pending_guards)
        clone.ctor_risky_line = self.ctor_risky_line
        return clone


class _Guard:
    """Releases promised by an enclosing ``try`` (finally + handlers)."""

    __slots__ = ("final_vars", "handler_vars", "guard_calls")

    def __init__(self) -> None:
        self.final_vars: Set[str] = set()
        self.handler_vars: Set[str] = set()
        self.guard_calls: Set[Tuple[str, ...]] = set()

    def protects(self, var: str) -> bool:
        return var in self.final_vars

    def guards_ctor(self, var: str) -> bool:
        return var in self.final_vars or var in self.handler_vars


def _releases_in(stmts: Sequence[ast.stmt]) -> Tuple[Set[str], Set[Tuple[str, ...]]]:
    """``(released vars, calls)`` in a suite."""
    released_vars: Set[str] = set()
    calls: Set[Tuple[str, ...]] = set()
    for stmt in stmts:
        for node in _walk_expr(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in RELEASE_METHODS and isinstance(
                    func.value, ast.Name
                ):
                    released_vars.add(func.value.id)
            parts = _call_parts(func)
            if parts is not None:
                calls.add(parts)
    return released_vars, calls


class _FunctionWalker:
    def __init__(
        self,
        fn: ast.AST,
        class_name: Optional[str],
        imports: _ImportTables,
    ) -> None:
        self.fn = fn
        self.class_name = class_name
        self.imports = imports
        self.is_init = class_name is not None and fn.name == "__init__"
        self.held: List[str] = []
        self.lock_acquires: List[LockAcquire] = []
        self.calls: List[CallSite] = []
        self.local_types: Dict[str, Optional[str]] = {}
        self.local_locks: Dict[str, bool] = {}
        self.release_kinds: Set[str] = set()
        self.env: Dict[str, _VarState] = {}
        self.issues: List[LifecycleIssue] = []
        self.guards: List[_Guard] = []

    # -- top level ------------------------------------------------------
    def run(self) -> None:
        self.walk(self.fn.body)
        for var, state in sorted(self.env.items()):
            if state.status == "open":
                self._emit_unreleased(var, state, self.fn.body[-1].lineno)
            elif state.status == "owned":
                self._emit_ctor(var, state)

    def _emit_unreleased(self, var: str, state: _VarState, line: int) -> None:
        state.status = "reported"
        suffix = " on every path" if state.partial else ""
        self.issues.append(
            LifecycleIssue(
                kinds=tuple(sorted(state.kinds)),
                var=var,
                acquire_line=state.acquire_line,
                line=state.acquire_line,
                problem="unreleased",
                detail=(
                    f"'{var}' ({'/'.join(sorted(state.kinds))}) acquired here "
                    f"is not released{suffix}"
                ),
            )
        )

    def _emit_ctor(self, var: str, state: _VarState) -> None:
        state.status = "reported"
        if state.ctor_risky_line is not None:
            self.issues.append(
                LifecycleIssue(
                    kinds=tuple(sorted(state.kinds)),
                    var=var,
                    acquire_line=state.acquire_line,
                    line=state.acquire_line,
                    problem="ctor-window",
                    detail=(
                        f"'{var}' ({'/'.join(sorted(state.kinds))}) is owned by "
                        f"self, but __init__ can still fail (e.g. line "
                        f"{state.ctor_risky_line}) before anyone can release "
                        "it — guard the constructor tail with try/except that "
                        "releases on failure"
                    ),
                )
            )
        elif state.pending_guards:
            self.issues.append(
                LifecycleIssue(
                    kinds=tuple(sorted(state.kinds)),
                    var=var,
                    acquire_line=state.acquire_line,
                    line=state.acquire_line,
                    problem="ctor-window",
                    detail=(
                        f"'{var}' ({'/'.join(sorted(state.kinds))}) is owned by "
                        "self but the constructor-tail guard does not release it"
                    ),
                    pending_guards=tuple(sorted(state.pending_guards)),
                )
            )

    # -- statement dispatch ---------------------------------------------
    def walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.visit(stmt)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, FUNCTION_NODES + (ast.ClassDef,)):
            return  # nested scopes are invisible to the walker
        if isinstance(stmt, ast.If):
            self.generic([stmt.test], stmt.lineno)
            self._branch([stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.generic([stmt.iter], stmt.lineno)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.generic([stmt.test], stmt.lineno)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
            return
        if isinstance(stmt, ast.Try):
            self._visit_try(stmt)
            return
        if isinstance(stmt, ast.Return):
            roots = [stmt.value] if stmt.value is not None else []
            self.generic(roots, stmt.lineno)
            for var, state in sorted(self.env.items()):
                if state.status == "open":
                    self._emit_unreleased(var, state, stmt.lineno)
            return
        # Simple statements (incl. Assign/Expr/Raise/Assert/Delete...)
        self.generic([stmt], stmt.lineno)

    def _branch(self, suites: Sequence[Sequence[ast.stmt]]) -> None:
        snapshots: List[Dict[str, _VarState]] = []
        base = {var: state.copy() for var, state in self.env.items()}
        live: List[Dict[str, _VarState]] = []
        for suite in suites:
            self.env = {var: state.copy() for var, state in base.items()}
            self.walk(suite)
            terminated = bool(suite) and isinstance(
                suite[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
            )
            snapshots.append(self.env)
            if not terminated:
                live.append(self.env)
        if not live:
            live = [base]
        merged: Dict[str, _VarState] = {}
        every_var = {var for env in snapshots for var in env}
        order = {"reported": 0, "escaped": 1, "protected": 2, "owned": 3, "closed": 4, "open": 5}
        for var in every_var:
            states = [env[var] for env in live if var in env]
            if not states:
                states = [env[var] for env in snapshots if var in env]
            chosen = max(states, key=lambda state: order.get(state.status, 0))
            if chosen.status == "open" and any(
                state.status == "closed" for state in states
            ):
                chosen.partial = True
            chosen.risky = max(state.risky for state in states)
            for state in states:
                chosen.pending_guards |= state.pending_guards
                if state.ctor_risky_line is not None and chosen.ctor_risky_line is None:
                    chosen.ctor_risky_line = state.ctor_risky_line
            merged[var] = chosen
        self.env = merged

    def _visit_with(self, stmt: ast.With) -> None:
        pushed = 0
        header_roots: List[ast.AST] = []
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, (ast.Name, ast.Attribute)):
                spelling = expr_text(expr)
                if (
                    isinstance(expr, ast.Name)
                    and expr.id in self.env
                    and self.env[expr.id].status in ("open", "owned")
                ):
                    # ``with pool:`` — the context manager releases it.
                    self.env[expr.id].status = "closed"
                    continue
                self.lock_acquires.append(
                    LockAcquire(spelling, stmt.lineno, tuple(self.held))
                )
                self.held.append(spelling)
                pushed += 1
                continue
            header_roots.append(expr)
            acquired = (
                _find_acquire(expr, self.imports)
                if isinstance(expr, ast.expr)
                else None
            )
            if acquired is not None and isinstance(
                item.optional_vars, ast.Name
            ):
                # ``with store.pin() as pinned:`` — with-managed, safe.
                state = _VarState({acquired[0]}, stmt.lineno, acquired[1])
                state.status = "closed"
                self.env[item.optional_vars.id] = state
        if header_roots:
            self.generic(header_roots, stmt.lineno, skip_acquires=True)
        self.walk(stmt.body)
        for _ in range(pushed):
            self.held.pop()

    def _visit_try(self, stmt: ast.Try) -> None:
        guard = _Guard()
        guard.final_vars, final_calls = _releases_in(stmt.finalbody)
        guard.guard_calls |= final_calls
        for handler in stmt.handlers:
            h_vars, h_calls = _releases_in(handler.body)
            guard.handler_vars |= h_vars
            guard.guard_calls |= h_calls
        for var, state in sorted(self.env.items()):
            if state.status == "open" and guard.protects(var):
                if state.risky > 0:
                    self.issues.append(
                        LifecycleIssue(
                            kinds=tuple(sorted(state.kinds)),
                            var=var,
                            acquire_line=state.acquire_line,
                            line=state.acquire_line,
                            problem="leak-window",
                            detail=(
                                f"'{var}' ({'/'.join(sorted(state.kinds))}) is "
                                f"released by the finally at line {stmt.lineno}, "
                                "but statements that can raise run between the "
                                "acquire and the try — move the acquire inside "
                                "the try (or the risky calls out) so a failure "
                                "cannot leak it"
                            ),
                        )
                    )
                state.status = "protected"
        # The guard stays active while walking handlers/finalbody too:
        # the release call a handler makes is the guard doing its job,
        # not a fresh failure window.
        self.guards.append(guard)
        self.walk(stmt.body)
        for handler in stmt.handlers:
            self.walk(handler.body)
        self.walk(stmt.orelse)
        self.walk(stmt.finalbody)
        self.guards.pop()

    # -- generic per-statement processing -------------------------------
    def generic(
        self,
        roots: Sequence[ast.AST],
        lineno: int,
        skip_acquires: bool = False,
    ) -> None:
        roots = [root for root in roots if root is not None]
        if not roots:
            return
        acquire_target: Optional[str] = None
        acquired: Optional[Tuple[str, str]] = None
        assign = roots[0] if isinstance(roots[0], (ast.Assign, ast.AnnAssign)) else None
        if assign is not None and not skip_acquires:
            if isinstance(assign, ast.Assign):
                targets = assign.targets
                value = assign.value
            else:
                targets = [assign.target]
                value = assign.value
            if (
                value is not None
                and len(targets) == 1
                and isinstance(targets[0], ast.Name)
            ):
                acquired = _find_acquire(value, self.imports)
                if acquired is not None:
                    acquire_target = targets[0].id
                # Local type / lock bindings for RA007 and RA009.
                if isinstance(value, ast.Call):
                    reentrant = self.imports.lock_factory(value)
                    if reentrant is not None:
                        self.local_locks.setdefault(targets[0].id, reentrant)
                    else:
                        parts = _call_parts(value.func)
                        if parts is not None:
                            name = targets[0].id
                            spelling = ".".join(parts)
                            if self.local_types.get(name, spelling) != spelling:
                                self.local_types[name] = None
                            else:
                                self.local_types[name] = spelling

        # One traversal answers every per-statement question below.
        pairs = _nodes_with_parents(roots)
        statement_calls: List[ast.Call] = [
            node for node, _parent in pairs if isinstance(node, ast.Call)
        ]

        # 1. releases
        for call in statement_calls:
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in RELEASE_METHODS:
                self.release_kinds |= RELEASE_METHODS[func.attr]
                if isinstance(func.value, ast.Name):
                    state = self.env.get(func.value.id)
                    if state is not None and state.kinds & RELEASE_METHODS[func.attr]:
                        state.status = "closed"

        # 2. lock bookkeeping for explicit acquire()/release() statements
        for call in statement_calls:
            func = call.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, (ast.Name, ast.Attribute)
            ):
                spelling = expr_text(func.value)
                if func.attr == "acquire":
                    self.lock_acquires.append(
                        LockAcquire(spelling, call.lineno, tuple(self.held))
                    )
                    self.held.append(spelling)
                    if isinstance(func.value, ast.Name):
                        name = func.value.id
                        if name not in self.env:
                            self.env[name] = _VarState(
                                {"lock"}, call.lineno, spelling
                            )
                elif func.attr == "release" and spelling in self.held:
                    self.held.remove(spelling)

        # 3. escapes and ownership hand-off.  A *reference to* a release
        # method (``atexit.register(pool.shutdown)``, storing it in a
        # callback list) transfers release responsibility — the var
        # escapes rather than staying open.
        called_funcs = {id(call.func) for call in statement_calls}
        for node, _parent in pairs:
            if (
                isinstance(node, ast.Attribute)
                and id(node) not in called_funcs
                and isinstance(node.value, ast.Name)
                and node.attr in RELEASE_METHODS
            ):
                state = self.env.get(node.value.id)
                if (
                    state is not None
                    and state.status in ("open", "owned")
                    and state.kinds & RELEASE_METHODS[node.attr]
                ):
                    state.status = "escaped"
        hand_off: Optional[str] = None
        if assign is not None and isinstance(assign, ast.Assign):
            attr_target = any(
                isinstance(target, (ast.Attribute, ast.Subscript))
                for target in assign.targets
            )
            if (
                attr_target
                and self.is_init
                and isinstance(assign.value, ast.Name)
                and any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in assign.targets
                )
            ):
                hand_off = assign.value.id
        for node, parent in pairs:
            if not isinstance(node, ast.Name) or not isinstance(
                node.ctx, ast.Load
            ):
                continue
            if isinstance(parent, _READ_PARENTS):
                continue
            if isinstance(parent, ast.IfExp) and node is parent.test:
                continue
            state = self.env.get(node.id)
            if state is None or state.status not in ("open", "owned"):
                continue
            if node.id == hand_off:
                state.status = "owned"
            else:
                state.status = "escaped"

        # 4. risky-call accounting (before registering a fresh acquire,
        # so a statement is never risky for the resource it creates)
        if statement_calls:
            for var, state in self.env.items():
                if var == acquire_target:
                    continue
                if state.status == "open":
                    state.risky += 1
                elif state.status == "owned":
                    covered = any(
                        g.guards_ctor(var) for g in self.guards
                    )
                    if covered:
                        pass
                    else:
                        guard_calls = {
                            parts
                            for g in self.guards
                            for parts in g.guard_calls
                        }
                        if guard_calls:
                            state.pending_guards |= guard_calls
                        elif state.ctor_risky_line is None:
                            state.ctor_risky_line = lineno

        # 5. record call sites for the project call graph
        for call in statement_calls:
            parts = _call_parts(call.func)
            if parts is not None:
                self.calls.append(
                    CallSite(parts, call.lineno, tuple(self.held))
                )

        # 6. register the acquire
        if acquire_target is not None and acquired is not None:
            kind, receiver = acquired
            state = _VarState({kind}, lineno, receiver)
            if any(g.protects(acquire_target) for g in self.guards):
                state.status = "protected"
            previous = self.env.get(acquire_target)
            if previous is not None and previous.status in ("open", "owned"):
                # Reassignment merges kinds so later releases match either.
                state.kinds |= previous.kinds
            self.env[acquire_target] = state


# --------------------------------------------------------------------- #
# Submit-payload (RA009) extraction
# --------------------------------------------------------------------- #
class _PayloadClassifier:
    def __init__(
        self,
        fn: ast.AST,
        imports: _ImportTables,
        local_types: Dict[str, Optional[str]],
        own_attr_types: Dict[str, str],
    ) -> None:
        self.imports = imports
        self.local_types = local_types
        self.own_attr_types = own_attr_types
        self.bindings: Dict[str, List[ast.expr]] = {}
        self.nested_defs: Set[str] = set()
        for node in walk_scope(fn):
            if isinstance(node, FUNCTION_NODES):
                self.nested_defs.add(node.name)
            elif isinstance(node, ast.Assign):
                for target, value in _assign_pairs(node):
                    self.bindings.setdefault(target, []).append(value)

    def classify(
        self, expr: ast.expr, role: str, depth: int = 5
    ) -> Optional[str]:
        if depth <= 0:
            return None
        if isinstance(expr, ast.Lambda):
            # In initargs RA003 already flags lambdas; as a task argument
            # it is RA009's to catch.
            return "definite:a lambda" if role == "argument" else None
        if isinstance(expr, ast.GeneratorExp):
            return "definite:a generator expression"
        if isinstance(expr, ast.Starred):
            return self.classify(expr.value, role, depth)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                verdict = self.classify(element, role, depth - 1)
                if verdict is not None:
                    return verdict
            return None
        if isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is None:
                    continue
                verdict = self.classify(value, role, depth - 1)
                if verdict is not None:
                    return verdict
            return None
        if isinstance(expr, ast.IfExp):
            return self.classify(expr.body, role, depth - 1) or self.classify(
                expr.orelse, role, depth - 1
            )
        if isinstance(expr, ast.Call):
            if self.imports.lock_factory(expr) is not None:
                return "definite:a freshly created threading primitive"
            parts = _call_parts(expr.func)
            if parts is None:
                return None
            if parts == ("open",):
                return "definite:an open file handle"
            if len(parts) == 1 and (
                parts[0] in self.bindings or parts[0] in self.nested_defs
            ):
                return None  # calling a local alias: unresolvable result
            if parts[0] == "self":
                return None
            return "gencall:" + ".".join(parts)
        if isinstance(expr, ast.Name):
            # Chase the binding first: a definite verdict on the bound
            # expression (e.g. ``lock = threading.Lock()``) beats the
            # spelling-level type recorded in ``local_types``.
            for value in self.bindings.get(expr.id, []):
                verdict = self.classify(value, role, depth - 1)
                if verdict is not None:
                    return verdict
            resolved_type = self.local_types.get(expr.id)
            if resolved_type:
                return "type:" + resolved_type
            return None
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                spelling = self.own_attr_types.get(expr.attr)
                if spelling:
                    return "type:" + spelling
                return "selfattr:" + expr.attr
            return None
        return None


def _assign_pairs(assign: ast.Assign) -> List[Tuple[str, ast.expr]]:
    pairs: List[Tuple[str, ast.expr]] = []
    for target in assign.targets:
        if isinstance(target, ast.Name):
            pairs.append((target.id, assign.value))
        elif isinstance(target, (ast.Tuple, ast.List)) and isinstance(
            assign.value, (ast.Tuple, ast.List)
        ):
            if len(target.elts) == len(assign.value.elts):
                for element, value in zip(target.elts, assign.value.elts):
                    if isinstance(element, ast.Name):
                        pairs.append((element.id, value))
    return pairs


def _pool_receiver(
    receiver: ast.expr,
    local_types: Dict[str, Optional[str]],
    own_attr_types: Dict[str, str],
) -> bool:
    text = expr_text(receiver).lower()
    if any(marker in text for marker in POOLISH_SPELLINGS):
        return True
    spelling: Optional[str] = None
    if isinstance(receiver, ast.Name):
        spelling = local_types.get(receiver.id)
    elif (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
    ):
        spelling = own_attr_types.get(receiver.attr)
    if spelling is None:
        return False
    return spelling.split(".")[-1] in POOL_CLASS_NAMES


def _extract_submit_payloads(
    fn: ast.AST,
    imports: _ImportTables,
    local_types: Dict[str, Optional[str]],
    own_attr_types: Dict[str, str],
) -> List[SubmitPayload]:
    classifier = _PayloadClassifier(fn, imports, local_types, own_attr_types)
    payloads: List[SubmitPayload] = []

    def note(expr: ast.expr, receiver: str, role: str) -> None:
        verdict = classifier.classify(expr, role)
        if verdict is not None:
            payloads.append(
                SubmitPayload(
                    lineno=expr.lineno,
                    receiver=receiver,
                    role=role,
                    spelling=expr_text(expr),
                    verdict=verdict,
                )
            )

    for node in walk_scope(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "submit"
            and node.args
            and _pool_receiver(func.value, local_types, own_attr_types)
        ):
            receiver = expr_text(func.value)
            for arg in node.args[1:]:
                note(arg, receiver, "argument")
            for keyword in node.keywords:
                if keyword.arg is not None:
                    note(keyword.value, receiver, "argument")
        for keyword in node.keywords:
            if keyword.arg == "initargs":
                note(keyword.value, expr_text(func), "initargs")
    return payloads


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def _summarize_function(
    fn: ast.AST,
    class_name: Optional[str],
    imports: _ImportTables,
    own_attr_types: Dict[str, str],
) -> FunctionSummary:
    walker = _FunctionWalker(fn, class_name, imports)
    walker.run()
    is_generator = any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in walk_scope(fn)
    )
    local_types = {
        name: spelling
        for name, spelling in walker.local_types.items()
        if spelling is not None
    }
    payloads = _extract_submit_payloads(
        fn, imports, walker.local_types, own_attr_types
    )
    qualname = fn.name if class_name is None else f"{class_name}.{fn.name}"
    return FunctionSummary(
        qualname=qualname,
        class_name=class_name,
        name=fn.name,
        lineno=fn.lineno,
        is_generator=is_generator,
        lock_acquires=tuple(walker.lock_acquires),
        calls=tuple(walker.calls),
        local_types=tuple(sorted(local_types.items())),
        local_locks=tuple(sorted(walker.local_locks.items())),
        release_kinds=tuple(sorted(walker.release_kinds)),
        lifecycle=tuple(walker.issues),
        submit_payloads=tuple(payloads),
    )


def summarize_module(module) -> ModuleSummary:
    """Build the picklable :class:`ModuleSummary` for one parsed module."""
    tree = module.tree
    imports = _ImportTables(tree)
    classes: List[ClassSummary] = []
    functions: List[FunctionSummary] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            summary = _summarize_class(node, imports)
            classes.append(summary)
            attr_types = dict(summary.attr_types)
            for method in node.body:
                if isinstance(method, FUNCTION_NODES):
                    functions.append(
                        _summarize_function(
                            method, node.name, imports, attr_types
                        )
                    )
        elif isinstance(node, FUNCTION_NODES):
            functions.append(_summarize_function(node, None, imports, {}))
    return ModuleSummary(
        path=module.path,
        dotted=module_dotted_name(module.path),
        import_aliases=tuple(sorted(imports.aliases.items())),
        from_imports=tuple(sorted(imports.from_imports)),
        functions=tuple(functions),
        classes=tuple(classes),
    )
