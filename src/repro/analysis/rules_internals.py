"""RA004 — leaky internals.

A public method that ends in ``return self._rows`` hands the caller a
live reference to private mutable state: one ``result.append(...)`` by a
consumer and the object's invariants are gone, with the corruption
surfacing far from the mutation (this is exactly the PR 1 streaming bug —
fragments yielded the engine's internal per-position lists).

The rule flags ``return self._x`` inside a public method (name not
starting with ``_``) when ``_x`` can be shown to hold a *mutable
container*:

* somewhere in the class it is assigned a list/dict/set display, a
  comprehension, or a call to ``list``/``dict``/``set``/``deque``/
  ``defaultdict``/``Counter``/``OrderedDict``; or
* it carries a ``List[...]``/``Dict[...]``/``Set[...]``/``list``/…
  annotation.

Attributes that are never provably mutable (ints, strings, tuples,
frozensets, arbitrary objects) are left alone, as are private methods —
intra-class plumbing may share references deliberately.

Fix by returning a copy (``list(self._x)``, ``dict(self._x)``) or a
read-only view.  When sharing really is the contract — a hot-path cache
whose callers promise not to mutate — suppress with
``# repro: ignore[RA004]`` and say why.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Set

from repro.analysis.astutil import (
    class_defs,
    is_self_attribute,
    methods_of,
    walk_scope,
)
from repro.analysis.core import Finding, Rule, SourceModule, register

#: Constructor names whose result is a mutable container.
MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
        "bytearray",
    }
)

#: Annotation heads naming mutable container types.
MUTABLE_ANNOTATIONS = frozenset(
    {
        "list",
        "dict",
        "set",
        "List",
        "Dict",
        "Set",
        "Deque",
        "DefaultDict",
        "MutableMapping",
        "MutableSequence",
        "MutableSet",
        "bytearray",
    }
)


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in MUTABLE_CONSTRUCTORS
    return False


def _annotation_head(annotation: ast.expr) -> str:
    node: ast.expr = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _mutable_private_attributes(classdef: ast.ClassDef) -> Dict[str, int]:
    """``{attr: lineno}`` of private attrs provably holding mutable state."""
    mutable: Dict[str, int] = {}
    for node in ast.walk(classdef):
        if isinstance(node, ast.Assign):
            if _is_mutable_value(node.value):
                for target in node.targets:
                    if is_self_attribute(target) and target.attr.startswith("_"):
                        mutable.setdefault(target.attr, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if is_self_attribute(node.target) and node.target.attr.startswith("_"):
                if _annotation_head(node.annotation) in MUTABLE_ANNOTATIONS or (
                    node.value is not None and _is_mutable_value(node.value)
                ):
                    mutable.setdefault(node.target.attr, node.lineno)
    return mutable


@register
class LeakyInternalsRule(Rule):
    rule_id = "RA004"
    title = (
        "public methods must not return bare references to private "
        "mutable containers"
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        for classdef in class_defs(module.tree):
            mutable = _mutable_private_attributes(classdef)
            if not mutable:
                continue
            yield from self._check_class(module, classdef, set(mutable))

    def _check_class(
        self, module: SourceModule, classdef: ast.ClassDef, mutable: Set[str]
    ) -> Iterator[Finding]:
        for method in methods_of(classdef):
            if method.name.startswith("_"):
                continue
            for node in walk_scope(method):
                value = None
                verb = "returns"
                if isinstance(node, ast.Return):
                    value = node.value
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    value = node.value
                    verb = "yields"
                if (
                    value is not None
                    and is_self_attribute(value)
                    and value.attr in mutable
                ):
                    yield self.finding(
                        module,
                        node,
                        f"public method '{classdef.name}.{method.name}' "
                        f"{verb} internal mutable container "
                        f"'self.{value.attr}' by reference; return a copy "
                        "(e.g. list(...)) or suppress with a justification "
                        "if sharing is the contract",
                    )
