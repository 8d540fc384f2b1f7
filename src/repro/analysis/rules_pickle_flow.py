"""RA009 — transitive pool-boundary picklability.

RA003 checks the *callable* handed to ``pool.submit`` / ``initargs``
(must be module-level).  RA009 extends the check to the *payload*: every
argument flowing across the process boundary is chased through local
assignment chains and classified.  Values that provably cannot pickle:

* generator expressions and results of calling a **generator function**
  (resolved project-wide — the generator function may live in another
  module);
* lambdas passed as task arguments;
* freshly created ``threading`` primitives (locks, conditions,
  semaphores) and ``self``-attributes the class summary identifies as
  lock attributes;
* instances of classes that are known process-local (``Tracer``) —
  whether constructed inline, bound to a local, or stored on ``self``
  with a resolvable attribute type;
* ``open(...)`` handles.

Everything else — parameters, attributes of unknown type, results of
non-generator calls — is silent: the rule only speaks when the payload
is provably wrong, so a clean scan stays meaningful.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.project import ProjectIndex
from repro.analysis.summaries import FunctionSummary, ModuleSummary, SubmitPayload


@register
class PickleFlowRule(ProjectRule):
    rule_id = "RA009"
    title = (
        "values crossing the worker-pool boundary (submit args, initargs) "
        "must be picklable"
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fkey in sorted(index.functions):
            module, function = index.functions[fkey]
            for payload in function.submit_payloads:
                reason = self._diagnose(index, module, function, payload)
                if reason is None:
                    continue
                where = (
                    "initializer initargs"
                    if payload.role == "initargs"
                    else f"submit to {payload.receiver}"
                )
                findings.append(
                    self.project_finding(
                        module.path,
                        payload.lineno,
                        f"in {function.qualname}: '{payload.spelling}' "
                        f"crosses the pool boundary ({where}) but is "
                        f"{reason} — it cannot be pickled",
                    )
                )
        return findings

    def _diagnose(
        self,
        index: ProjectIndex,
        module: ModuleSummary,
        function: FunctionSummary,
        payload: SubmitPayload,
    ) -> Optional[str]:
        kind, _, detail = payload.verdict.partition(":")
        if kind == "definite":
            return detail
        if kind == "gencall":
            parts = tuple(detail.split("."))
            # An inline constructor of a known-unpicklable class may not
            # resolve to an ``__init__`` summary (the class can omit one);
            # the terminal name is evidence enough.
            why = index.unpicklable_classes.get(parts[-1])
            if why is not None:
                return f"a {parts[-1]} instance ({why})"
            resolved = index.resolve_call(module, function, parts)
            if resolved is None:
                return None
            callee_module, callee = resolved
            if callee.is_generator:
                return (
                    f"the result of generator function "
                    f"{callee_module.dotted}.{callee.qualname} (a generator)"
                )
            if (
                callee.name == "__init__"
                and callee.class_name in index.unpicklable_classes
            ):
                why = index.unpicklable_classes[callee.class_name]
                return f"a {callee.class_name} instance ({why})"
            return None
        if kind == "selfattr":
            own = index.own_class(module, function)
            if own is None:
                return None
            lock_attrs = dict(own.lock_attrs)
            if detail in lock_attrs:
                return f"the lock attribute self.{detail}"
            return None
        if kind == "type":
            terminal = detail.split(".")[-1]
            why = index.unpicklable_classes.get(terminal)
            if why is None:
                return None
            return f"a {terminal} instance ({why})"
        return None
