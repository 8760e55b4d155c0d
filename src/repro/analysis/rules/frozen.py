"""Rule ``frozen-after-build``: estimators are immutable once built.

The ROADMAP's serving tier swaps per-table estimator snapshots
atomically so readers never block on ANALYZE — which is only safe if a
built estimator never mutates.  The same property backs
``Catalog.fork`` (a fork shares its estimator objects with the
snapshots already serving) and pickling round-trips.

The rule flags assignments to ``self.*`` (plain, augmented, annotated,
and tuple-unpacking targets) inside methods of estimator-hierarchy
classes **outside** the construction surface:

* ``__init__`` / ``__setstate__`` / ``__init_subclass__``,
* ``build`` / ``rebuild`` and any ``_build*`` helper (streaming
  maintenance will rebuild in place behind a swap),
* properties with an explicit ``setter`` decorator are *not* exempt —
  a settable property on an estimator is precisely the mutation the
  rule exists to catch.

Legitimate lazy caches must opt out per line with
``# repro: allow[frozen-after-build] — <why sharing stays safe>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, ModuleInfo, finding
from repro.analysis.project import ProjectIndex

_ALLOWED_METHODS = frozenset({"__init__", "__setstate__", "__init_subclass__", "build", "rebuild"})


def _is_construction_method(name: str) -> bool:
    return name in _ALLOWED_METHODS or name.startswith("_build")


def _self_attribute_targets(node: ast.AST) -> Iterator[ast.Attribute]:
    """Attribute targets rooted at ``self`` within an assignment target."""
    for target in ast.walk(node):
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target


class FrozenAfterBuildRule:
    name = "frozen-after-build"
    description = (
        "estimator attributes may only be written during construction "
        "(__init__/build); built estimators are shared snapshots"
    )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not project.is_estimator_class(cls):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _is_construction_method(method.name):
                    continue
                yield from self._check_method(module, cls, method)

    def _check_method(
        self,
        module: ModuleInfo,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for attr in _self_attribute_targets(target):
                    yield finding(
                        module,
                        attr,
                        self.name,
                        f"{cls.name}.{method.name} writes self.{attr.attr} after "
                        "construction; built estimators are immutable snapshots "
                        "(atomic swap + shared cache safety) — move the write "
                        "into __init__/build or justify a lazy cache via pragma",
                    )
