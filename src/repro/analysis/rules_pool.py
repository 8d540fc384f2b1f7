"""RA003 — pool-boundary picklability.

Everything submitted to a worker-process pool is pickled: the callable,
its arguments, and the pool initializer.  Lambdas, nested functions and
bound methods are not picklable, so handing one to
``ProcessPoolExecutor.submit`` / ``WorkerPool.submit`` fails at runtime —
inside a worker, with a traceback that points nowhere near the call site.
This rule catches the bug at the call site instead.

Checked, for every ``<pool-ish receiver>.submit(fn, ...)`` call where the
receiver's spelling contains ``pool`` or ``executor``:

* ``fn`` is a lambda → flagged;
* ``fn`` names a function defined *inside* an enclosing function (a
  closure) → flagged;
* ``fn`` is a local alias (``worker = some_fn`` / tuple assignment) — the
  alias is resolved; it is flagged if any binding is a lambda or nested
  function, accepted if every known binding resolves to a module-level or
  imported callable;
* ``fn`` is an attribute on anything that is not an imported module
  (``self._run``, ``obj.method``) → flagged as a bound method;
* anything the rule cannot resolve statically (parameters, call results)
  is given the benefit of the doubt.

Additionally, for *any* call carrying pool-style keywords:

* ``initializer=`` must resolve to a module-level/imported callable;
* ``initargs=`` must not contain lambdas, nested functions, nested
  classes or instances of nested classes.  Initargs are *data*, so —
  unlike the callable positions above — attribute reads are fine: the
  ``CSRGraph`` read off ``self.snapshot`` pickles because its class is
  module-level (that is precisely what this distinction protects; a
  class defined inside a function would not).

The receiver-name heuristic keeps the rule honest about what static
analysis can know: ``service.submit(query)`` (a queue, not a pool) is
never inspected.  Name genuine pool handles ``pool``/``executor`` — the
codebase already does — or suppress with ``# repro: ignore[RA003]``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.astutil import (
    FUNCTION_NODES,
    assigned_name_pairs,
    expr_text,
    imported_module_names,
    module_level_callables,
    walk_scope,
)
from repro.analysis.core import Finding, Rule, SourceModule, register

#: Substrings identifying a worker-pool receiver.
POOLISH_RECEIVERS = ("pool", "executor")


class _Scope:
    """Alias bindings, nested-def and nested-class names of one scope."""

    def __init__(self, function: ast.AST) -> None:
        self.bindings: Dict[str, List[ast.expr]] = {}
        self.nested_defs: Set[str] = set()
        self.nested_classes: Set[str] = set()
        for node in walk_scope(function):
            if isinstance(node, FUNCTION_NODES):
                self.nested_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.nested_classes.add(node.name)
            elif isinstance(node, ast.Assign):
                for name, value in assigned_name_pairs(node):
                    self.bindings.setdefault(name, []).append(value)


@register
class PoolBoundaryRule(Rule):
    rule_id = "RA003"
    title = (
        "callables crossing the worker-pool boundary must be module-level "
        "functions (no lambdas, closures or bound methods)"
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        self._module_callables = module_level_callables(module.tree)
        self._imported_modules = imported_module_names(module.tree)
        yield from self._scan(module, module.tree, scopes=[])

    def _scan(
        self, module: SourceModule, root: ast.AST, scopes: List[_Scope]
    ) -> Iterator[Finding]:
        for node in walk_scope(root):
            if isinstance(node, FUNCTION_NODES):
                yield from self._scan(module, node, scopes + [_Scope(node)])
            elif isinstance(node, ast.ClassDef):
                # A class body is not a function scope: methods inside see
                # the enclosing function scopes, not the class's.
                yield from self._scan(module, node, scopes)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, scopes)

    def _check_call(
        self, module: SourceModule, call: ast.Call, scopes: List[_Scope]
    ) -> Iterator[Finding]:
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit"
            and call.args
            and self._is_poolish(call.func.value)
        ):
            problem = self._classify(call.args[0], scopes)
            if problem is not None:
                yield self.finding(
                    module,
                    call,
                    f"{expr_text(call.func)}(...) receives {problem}; worker "
                    "pools pickle their tasks — pass a module-level function",
                )
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                problem = self._classify(keyword.value, scopes)
                if problem is not None:
                    yield self.finding(
                        module,
                        keyword.value,
                        f"pool initializer is {problem}; initializers run in "
                        "freshly spawned workers and must be module-level "
                        "functions",
                    )
            elif keyword.arg == "initargs":
                for node in ast.walk(keyword.value):
                    if isinstance(
                        node, (ast.Lambda, ast.Name)
                    ) and self._classify_data(node, scopes):
                        yield self.finding(
                            module,
                            node,
                            "pool initargs contain a value that cannot cross "
                            "the process boundary (lambda, nested function "
                            "or nested class); ship module-level state only",
                        )

    @staticmethod
    def _is_poolish(receiver: ast.expr) -> bool:
        text = expr_text(receiver).lower()
        return any(marker in text for marker in POOLISH_RECEIVERS)

    def _classify(
        self, node: ast.expr, scopes: List[_Scope]
    ) -> Optional[str]:
        """Why ``node`` cannot cross the pool boundary (None = no proof)."""
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name):
            name = node.id
            for scope in reversed(scopes):
                if name in scope.nested_defs:
                    return f"nested function '{name}'"
            for scope in reversed(scopes):
                bindings = scope.bindings.get(name)
                if not bindings:
                    continue
                for value in bindings:
                    verdict = self._classify(value, scopes)
                    if verdict is not None:
                        return f"'{name}', bound to {verdict}"
                if all(
                    isinstance(value, ast.Name)
                    and value.id in self._module_callables
                    for value in bindings
                ):
                    return None
                return None  # mixed/unknown bindings: benefit of the doubt
            return None
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in self._imported_modules:
                return None  # module attribute, e.g. operator.add
            return f"bound method or instance attribute '{expr_text(node)}'"
        return None

    def _classify_data(
        self, node: ast.expr, scopes: List[_Scope]
    ) -> Optional[str]:
        """Why ``node`` cannot be pickled as a *data* value (None = no
        proof).

        Data crossing the pool boundary (initargs) may legitimately come
        from attribute reads — a shared-memory handle off
        ``shared.handle`` pickles fine because its class is module-level.
        What provably does not pickle: lambdas, nested functions, nested
        classes, and instances of nested classes (pickle resolves the
        class by qualified name, which a function-local class lacks).
        """
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            for scope in reversed(scopes):
                if node.func.id in scope.nested_classes:
                    return f"an instance of nested class '{node.func.id}'"
            return None
        if isinstance(node, ast.Name):
            name = node.id
            for scope in reversed(scopes):
                if name in scope.nested_defs:
                    return f"nested function '{name}'"
                if name in scope.nested_classes:
                    return f"nested class '{name}'"
            for scope in reversed(scopes):
                bindings = scope.bindings.get(name)
                if not bindings:
                    continue
                for value in bindings:
                    verdict = self._classify_data(value, scopes)
                    if verdict is not None:
                        return f"'{name}', bound to {verdict}"
                return None
            return None
        return None
