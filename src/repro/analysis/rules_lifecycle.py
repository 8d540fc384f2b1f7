"""RA008 — resource lifecycle: every acquire must reach a release.

The resources this repo hand-manages are exactly the ones whose leaks
have hurt before: snapshot pins (``store.pin()``/``release()``) and
worker pools (constructor or ``create_pool()``/``shutdown``).

The per-file pass (``summaries._FunctionWalker``) runs a conservative
abstract interpretation over each function and records candidate
*lifecycle issues*; this rule resolves the interprocedural parts against
the :class:`~repro.analysis.project.ProjectIndex` and reports:

``unreleased``
    an acquire that reaches the end of the function (or a ``return``)
    still open on some path, without escaping to a caller/owner;
``leak-window``
    the release *is* in a ``finally``, but statements that can raise run
    between the acquire and the ``try`` — an exception there leaks the
    resource.  Move the acquire inside the try (acquires already under
    their guard are fine);
``ctor-window``
    ``__init__`` stored the resource on ``self`` (the instance owns it)
    but can still fail afterwards, before any caller could possibly call
    the release method.  A guard that calls a helper absolves the issue
    iff some resolved helper *transitively* releases the resource's kind
    (e.g. ``self._release_pin()``); unresolvable helpers are
    given the benefit of the doubt.

Escapes are silent by design: a resource that is returned, yielded,
passed to a call, stored in a container or aliased has an owner this
analysis cannot see, and guessing would drown the signal in noise.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.project import ProjectIndex


@register
class ResourceLifecycleRule(ProjectRule):
    rule_id = "RA008"
    title = (
        "acquired resources (snapshot pins, worker pools) must be released "
        "on every path"
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fkey in sorted(index.functions):
            module, function = index.functions[fkey]
            for issue in function.lifecycle:
                if issue.pending_guards:
                    resolved_release = False
                    unresolvable = False
                    for guard in issue.pending_guards:
                        resolved = index.resolve_call(
                            module, function, guard
                        )
                        if resolved is None:
                            unresolvable = True
                            continue
                        callee_key = (resolved[0].path, resolved[1].qualname)
                        kinds = index.transitive_release_kinds.get(
                            callee_key, frozenset()
                        )
                        if kinds & set(issue.kinds):
                            resolved_release = True
                            break
                    if resolved_release or unresolvable:
                        continue
                findings.append(
                    self.project_finding(
                        module.path,
                        issue.line,
                        f"[{issue.problem}] in {function.qualname}: "
                        f"{issue.detail}",
                    )
                )
        return findings
