"""Project index: cross-module resolution over per-file summaries.

:class:`ProjectIndex` is built once per scan from the picklable
:class:`~repro.analysis.summaries.ModuleSummary` objects the per-file
pass produced (in-parent — workers never see each other's modules).  It
answers the questions the project rules ask:

* *name resolution* — which class/function does this spelling refer to,
  given the module it appears in (local definitions, ``import x as y``
  aliases, ``from m import n`` names with relative levels)?  Modules are
  matched by dotted **suffix**, so scans rooted anywhere (absolute test
  paths, the fixture corpus) resolve the same way as ``src``-rooted ones;
* *the call graph* — ``self.method``, ``self.attr.method``,
  ``helper()``, ``module.func()``, ``localvar.method()`` and
  ``ClassName.method()`` edges, resolved to function summaries;
* *lock identity* — a held-lock spelling like ``self._snapshots.lock``
  resolved through attribute types and ``@property`` aliases to a stable
  ``(module, Class.attr)`` identity plus its reentrancy;
* *transitive facts* — the set of locks a function may acquire through
  any chain of resolved calls (RA007), and the set of resource kinds it
  transitively releases (RA008 guard resolution).

Every resolver returns ``None`` when the evidence is ambiguous or
missing; the rules treat ``None`` as "stay silent", which is what keeps
the repo-wide scan quiet on code the index cannot see through.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.summaries import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)

#: ``(dotted module, "Class.attr" | "func.<var>")`` — stable lock identity.
LockId = Tuple[str, str]

#: ``(module path, function qualname)`` — stable function key.
FunctionKey = Tuple[str, str]

#: Class names that are unpicklable by fiat (known to hold process-local
#: state).
KNOWN_UNPICKLABLE_CLASSES = frozenset({"Tracer"})


class ProjectIndex:
    """Cross-module symbol tables + resolved call/lock graphs."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Tuple[ModuleSummary, ...] = tuple(summaries)
        self.by_path: Dict[str, ModuleSummary] = {
            module.path: module for module in summaries
        }
        self._by_dotted: Dict[str, List[ModuleSummary]] = {}
        for module in summaries:
            self._by_dotted.setdefault(module.dotted, []).append(module)
        self._classes_by_name: Dict[
            str, List[Tuple[ModuleSummary, ClassSummary]]
        ] = {}
        self.functions: Dict[FunctionKey, Tuple[ModuleSummary, FunctionSummary]] = {}
        for module in summaries:
            for classdef in module.classes:
                self._classes_by_name.setdefault(classdef.name, []).append(
                    (module, classdef)
                )
            for function in module.functions:
                self.functions[(module.path, function.qualname)] = (
                    module,
                    function,
                )
        #: Class name → why its instances cannot cross a pool boundary.
        self.unpicklable_classes: Dict[str, str] = {
            name: "holds process-local state"
            for name in KNOWN_UNPICKLABLE_CLASSES
        }

        self.lock_reentrant: Dict[LockId, bool] = {}
        self.resolved_calls: Dict[
            FunctionKey, List[Tuple[FunctionKey, CallSite]]
        ] = {}
        self.direct_locks: Dict[FunctionKey, Set[LockId]] = {}
        self.transitive_locks: Dict[FunctionKey, FrozenSet[LockId]] = {}
        self.transitive_release_kinds: Dict[FunctionKey, FrozenSet[str]] = {}
        self._build_graphs()

    @classmethod
    def build(cls, summaries: Sequence[ModuleSummary]) -> "ProjectIndex":
        return cls(summaries)

    # -- module / class / function resolution ---------------------------
    def resolve_module(
        self, written: str, importer: Optional[ModuleSummary] = None, level: int = 0
    ) -> Optional[ModuleSummary]:
        """Resolve a module name as written at an import site.

        Relative imports are made absolute against the importer's dotted
        name; the result is matched against scanned modules by dotted
        suffix.  Ambiguity (several scanned modules share the suffix)
        resolves to ``None``.
        """
        target = written
        if level > 0 and importer is not None:
            base = importer.dotted.split(".")
            if level > len(base):
                return None
            base = base[: len(base) - level]
            target = ".".join(base + [written]) if written else ".".join(base)
        if not target:
            return None
        exact = self._by_dotted.get(target)
        if exact is not None:
            return exact[0] if len(exact) == 1 else None
        suffix = "." + target
        matches = [
            module
            for dotted, bucket in self._by_dotted.items()
            if dotted.endswith(suffix)
            for module in bucket
        ]
        return matches[0] if len(matches) == 1 else None

    def resolve_class(
        self, module: ModuleSummary, spelling: str
    ) -> Optional[Tuple[ModuleSummary, ClassSummary]]:
        """Resolve a class spelling (``Name`` or ``alias.Name``) seen in
        ``module`` to its defining ``(module, class summary)``."""
        parts = spelling.split(".")
        if len(parts) == 2:
            alias, name = parts
            source = dict(module.import_aliases).get(alias)
            if source is None:
                return None
            target = self.resolve_module(source, module)
            if target is None:
                return None
            return self._class_in(target, name)
        if len(parts) != 1:
            return None
        name = parts[0]
        local = self._class_in(module, name)
        if local is not None:
            return local
        for imported, source, symbol, level in module.from_imports:
            if imported != name:
                continue
            target = self.resolve_module(source, module, level)
            if target is None:
                return None  # the import exists but points outside the scan
            return self._class_in(target, symbol)
        candidates = self._classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def _class_in(
        self, module: ModuleSummary, name: str
    ) -> Optional[Tuple[ModuleSummary, ClassSummary]]:
        for classdef in module.classes:
            if classdef.name == name:
                return (module, classdef)
        return None

    def _function_in(
        self, module: ModuleSummary, name: str, class_name: Optional[str] = None
    ) -> Optional[Tuple[ModuleSummary, FunctionSummary]]:
        qualname = name if class_name is None else f"{class_name}.{name}"
        found = self.functions.get((module.path, qualname))
        return found

    def own_class(
        self, module: ModuleSummary, function: FunctionSummary
    ) -> Optional[ClassSummary]:
        if function.class_name is None:
            return None
        resolved = self._class_in(module, function.class_name)
        return resolved[1] if resolved is not None else None

    def resolve_call(
        self,
        module: ModuleSummary,
        function: FunctionSummary,
        parts: Tuple[str, ...],
    ) -> Optional[Tuple[ModuleSummary, FunctionSummary]]:
        """Resolve one call site to its callee's summary, or ``None``."""
        if not parts:
            return None
        if parts[0] == "self" and function.class_name is not None:
            if len(parts) == 2:
                return self._function_in(module, parts[1], function.class_name)
            if len(parts) == 3:
                own = self.own_class(module, function)
                if own is None:
                    return None
                attr_type = dict(own.attr_types).get(parts[1])
                if attr_type is None:
                    return None
                resolved = self.resolve_class(module, attr_type)
                if resolved is None:
                    return None
                target_module, target_class = resolved
                return self._function_in(
                    target_module, parts[2], target_class.name
                )
            return None
        if len(parts) == 1:
            name = parts[0]
            local = self._function_in(module, name)
            if local is not None:
                return local
            classdef = self._class_in(module, name)
            if classdef is not None:
                return self._function_in(module, "__init__", name)
            for imported, source, symbol, level in module.from_imports:
                if imported != name:
                    continue
                target = self.resolve_module(source, module, level)
                if target is None:
                    return None
                found = self._function_in(target, symbol)
                if found is not None:
                    return found
                if self._class_in(target, symbol) is not None:
                    return self._function_in(target, "__init__", symbol)
                return None
            return None
        if len(parts) == 2:
            base, name = parts
            source = dict(module.import_aliases).get(base)
            if source is not None:
                target = self.resolve_module(source, module)
                if target is None:
                    return None
                found = self._function_in(target, name)
                if found is not None:
                    return found
                if self._class_in(target, name) is not None:
                    return self._function_in(target, "__init__", name)
                return None
            local_type = dict(function.local_types).get(base)
            if local_type is not None:
                resolved = self.resolve_class(module, local_type)
                if resolved is None:
                    return None
                target_module, target_class = resolved
                return self._function_in(target_module, name, target_class.name)
            resolved = self.resolve_class(module, base)
            if resolved is not None:
                target_module, target_class = resolved
                return self._function_in(target_module, name, target_class.name)
            return None
        return None

    # -- lock resolution ------------------------------------------------
    def _class_lock(
        self, module: ModuleSummary, classdef: ClassSummary, attr: str
    ) -> Optional[Tuple[LockId, bool]]:
        lock_attrs = dict(classdef.lock_attrs)
        aliases = dict(classdef.property_aliases)
        target = attr
        if target not in lock_attrs and target in aliases:
            target = aliases[target]
        if target in lock_attrs:
            return (
                (module.dotted, f"{classdef.name}.{target}"),
                lock_attrs[target],
            )
        return None

    def resolve_lock(
        self,
        module: ModuleSummary,
        function: FunctionSummary,
        spelling: str,
    ) -> Optional[Tuple[LockId, bool]]:
        """Resolve a held/acquired lock spelling to ``(identity, reentrant)``.

        Handles ``self.<attr>`` (own class), ``self.<attr>.<attr2>``
        (through the attribute's inferred type), ``<local>.<attr>``
        (through a local variable's inferred type) and bare local lock
        variables.  Anything else — including spellings that reach
        classes outside the scan — resolves to ``None``.
        """
        parts = spelling.split(".")
        if parts[0] == "self" and function.class_name is not None:
            own = self.own_class(module, function)
            if own is None:
                return None
            if len(parts) == 2:
                return self._class_lock(module, own, parts[1])
            if len(parts) == 3:
                attr_type = dict(own.attr_types).get(parts[1])
                if attr_type is None:
                    return None
                resolved = self.resolve_class(module, attr_type)
                if resolved is None:
                    return None
                return self._class_lock(resolved[0], resolved[1], parts[2])
            return None
        if len(parts) == 1:
            local_locks = dict(function.local_locks)
            if parts[0] in local_locks:
                identity = (
                    module.dotted,
                    f"{function.qualname}.<{parts[0]}>",
                )
                return identity, local_locks[parts[0]]
            return None
        if len(parts) == 2:
            local_type = dict(function.local_types).get(parts[0])
            if local_type is None:
                return None
            resolved = self.resolve_class(module, local_type)
            if resolved is None:
                return None
            return self._class_lock(resolved[0], resolved[1], parts[1])
        return None

    # -- derived graphs -------------------------------------------------
    def _build_graphs(self) -> None:
        release_direct: Dict[FunctionKey, Set[str]] = {}
        for key, (module, function) in self.functions.items():
            edges: List[Tuple[FunctionKey, CallSite]] = []
            for call in function.calls:
                resolved = self.resolve_call(module, function, call.parts)
                if resolved is None:
                    continue
                callee_key = (resolved[0].path, resolved[1].qualname)
                edges.append((callee_key, call))
            self.resolved_calls[key] = edges
            locks: Set[LockId] = set()
            for acquire in function.lock_acquires:
                resolved_lock = self.resolve_lock(
                    module, function, acquire.spelling
                )
                if resolved_lock is not None:
                    identity, reentrant = resolved_lock
                    locks.add(identity)
                    self.lock_reentrant.setdefault(identity, reentrant)
            self.direct_locks[key] = locks
            release_direct[key] = set(function.release_kinds)

        self.transitive_locks = _fixpoint(
            self.direct_locks,
            {
                key: [callee for callee, _ in edges]
                for key, edges in self.resolved_calls.items()
            },
        )
        self.transitive_release_kinds = _fixpoint(
            release_direct,
            {
                key: [callee for callee, _ in edges]
                for key, edges in self.resolved_calls.items()
            },
        )


def _fixpoint(
    direct: Dict[FunctionKey, Set[object]],
    edges: Dict[FunctionKey, List[FunctionKey]],
) -> Dict[FunctionKey, FrozenSet[object]]:
    """Propagate set-valued facts along call edges to a fixpoint."""
    facts: Dict[FunctionKey, Set[object]] = {
        key: set(values) for key, values in direct.items()
    }
    changed = True
    while changed:
        changed = False
        for key, callees in edges.items():
            bucket = facts.setdefault(key, set())
            before = len(bucket)
            for callee in callees:
                bucket |= facts.get(callee, set())
            if len(bucket) != before:
                changed = True
    return {key: frozenset(values) for key, values in facts.items()}
