"""The whole-program index the multi-file lint rules consume.

One :class:`ProjectIndex` is built per :func:`~repro.lint.engine.lint_paths`
run, after every file has parsed and before any
:class:`~repro.lint.engine.ProjectRule` executes.  It holds the facts a
single-file pass cannot see:

* the **module map** -- every parsed file keyed by its package-relative
  path, with its resolved :class:`~repro.lint.rules.ImportMap`;
* the **import graph** -- which ``repro.*`` modules each module pulls in
  (``import_edges``), so conformance rules can reason about who reaches
  the registries they check;
* **per-class symbol tables** (:class:`ClassInfo`) -- methods, which
  attributes each method assigns, attribute constructor types from
  ``__init__`` (``self.x = asyncio.Event()``), attributes holding
  caller-supplied callbacks, and the intra-class ``self.m()`` call
  graph;
* **coroutine bodies with await positions** (:class:`FunctionInfo`) --
  each function's directly-contained ``await`` expressions (nested
  ``def``/``lambda`` bodies excluded), which the async interleaving
  detector walks for check-then-act windows.

Everything is derived from the stdlib ``ast`` -- no imports of the
scanned code ever happen, so the index is safe to build over broken or
hostile trees (unparseable files simply are not in it; they were
already reported as PARSE001).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext
from repro.lint.rules import ImportMap, dotted_name


def direct_awaits(fn: ast.AST) -> List[ast.Await]:
    """``await`` expressions whose innermost enclosing function is *fn*.

    Awaits inside nested ``def`` / ``async def`` / ``lambda`` bodies
    belong to those functions, not to *fn*, and are excluded.
    """
    awaits: List[ast.Await] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Await):
            awaits.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(awaits, key=lambda n: (n.lineno, n.col_offset))


def self_attr_target(node: ast.AST) -> Optional[str]:
    """``A`` when *node* is a store to ``self.A``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def self_attr_loads(node: ast.AST) -> Set[str]:
    """All attributes of ``self`` read anywhere inside *node*."""
    loads: Set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            loads.add(sub.attr)
    return loads


def _store_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from target.elts
            else:
                yield target
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        yield stmt.target


@dataclass
class FunctionInfo:
    """One function or method, with its await positions."""

    name: str
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_async: bool
    awaits: List[ast.Await] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Symbol table for one class definition."""

    name: str
    module_rel: str
    module_path: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute -> methods (excluding __init__) that assign ``self.attr``
    attr_writes: Dict[str, Set[str]] = field(default_factory=dict)
    #: attributes assigned in __init__
    init_attrs: Set[str] = field(default_factory=set)
    #: attribute -> resolved dotted constructor (``self.x = asyncio.Event()``)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attributes that store an ``__init__`` parameter (user callbacks etc.)
    callback_attrs: Set[str] = field(default_factory=set)
    #: method -> methods it calls on ``self``
    self_calls: Dict[str, Set[str]] = field(default_factory=dict)

    def close_path_methods(
        self, entry_names: Tuple[str, ...] = ("aclose", "close", "stop", "shutdown")
    ) -> List[FunctionInfo]:
        """Methods reachable from the shutdown entry points via self-calls."""
        reachable: List[str] = [n for n in entry_names if n in self.methods]
        seen: Set[str] = set(reachable)
        queue = list(reachable)
        while queue:
            current = queue.pop()
            for callee in sorted(self.self_calls.get(current, ())):
                if callee in self.methods and callee not in seen:
                    seen.add(callee)
                    reachable.append(callee)
                    queue.append(callee)
        return [self.methods[name] for name in reachable]


@dataclass
class ModuleInfo:
    """One parsed file plus its resolved names."""

    path: str  # reported path, used in findings
    rel: str  # package-relative scoping path
    domain: str  # src / tests / benchmarks
    tree: ast.Module
    source: str
    imports: ImportMap
    module_name: Optional[str]  # dotted repro.* name when in src
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    imported_modules: Set[str] = field(default_factory=set)


def _module_name(rel: str, domain: str) -> Optional[str]:
    if domain != "src" or not rel.endswith(".py"):
        return None
    stem = rel[: -len(".py")]
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    if stem == "__init__":
        return "repro"
    return "repro." + stem.replace("/", ".")


def _function_info(node: ast.AST, qualname: str) -> FunctionInfo:
    return FunctionInfo(
        name=node.name,
        qualname=qualname,
        node=node,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        awaits=direct_awaits(node),
    )


def _class_info(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        module_rel=module.rel,
        module_path=module.path,
        node=node,
    )
    for child in node.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = _function_info(child, f"{node.name}.{child.name}")
        info.methods[child.name] = method
        init_params: Set[str] = set()
        if child.name == "__init__":
            args = child.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                init_params.add(arg.arg)
            init_params.discard("self")
        calls: Set[str] = set()
        for sub in ast.walk(child):
            if isinstance(sub, ast.Call):
                target = self_attr_target(sub.func)
                if target is not None:
                    calls.add(target)
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _store_targets(sub):
                    attr = self_attr_target(target)
                    if attr is None:
                        continue
                    if child.name == "__init__":
                        info.init_attrs.add(attr)
                        value = getattr(sub, "value", None)
                        if isinstance(value, ast.Call):
                            ctor = module.imports.resolve(dotted_name(value.func))
                            if ctor is not None and attr not in info.attr_types:
                                info.attr_types[attr] = ctor
                        elif (
                            isinstance(value, ast.Name)
                            and value.id in init_params
                        ):
                            info.callback_attrs.add(attr)
                    else:
                        info.attr_writes.setdefault(attr, set()).add(child.name)
        info.self_calls[child.name] = calls
    return info


class ProjectIndex:
    """All parsed modules of one lint run, cross-referenced."""

    def __init__(self, roots: List[Path]) -> None:
        self.roots = roots
        #: package-relative path -> module
        self.modules: Dict[str, ModuleInfo] = {}
        #: dotted module name -> module (src domain only)
        self.by_name: Dict[str, ModuleInfo] = {}
        #: dotted module name -> imported repro.* module names
        self.import_edges: Dict[str, Set[str]] = {}

    @classmethod
    def build(
        cls, contexts: List[FileContext], roots: Optional[List[Path]] = None
    ) -> "ProjectIndex":
        index = cls(roots=list(roots or []))
        for ctx in contexts:
            imports = ImportMap(ctx.tree)
            module = ModuleInfo(
                path=ctx.path,
                rel=ctx.rel,
                domain=ctx.domain,
                tree=ctx.tree,
                source=ctx.source,
                imports=imports,
                module_name=_module_name(ctx.rel, ctx.domain),
            )
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    module.classes[node.name] = _class_info(node, module)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    module.functions[node.name] = _function_info(node, node.name)
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        module.imported_modules.add(alias.name)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    module.imported_modules.add(node.module)
            index.modules[ctx.rel] = module
            if module.module_name is not None:
                index.by_name[module.module_name] = module
                index.import_edges[module.module_name] = {
                    name
                    for name in module.imported_modules
                    if name == "repro" or name.startswith("repro.")
                }
        return index

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def module(self, rel: str) -> Optional[ModuleInfo]:
        return self.modules.get(rel)

    def iter_modules(
        self, domain: Optional[str] = None, prefix: Optional[str] = None
    ) -> Iterator[ModuleInfo]:
        for rel in sorted(self.modules):
            module = self.modules[rel]
            if domain is not None and module.domain != domain:
                continue
            if prefix is not None and not rel.startswith(prefix):
                continue
            yield module

    def iter_classes(
        self, domain: Optional[str] = None, prefix: Optional[str] = None
    ) -> Iterator[Tuple[ModuleInfo, ClassInfo]]:
        for module in self.iter_modules(domain=domain, prefix=prefix):
            for name in sorted(module.classes):
                yield module, module.classes[name]

    def doc_file(self, relative: str) -> Optional[Path]:
        """Locate a docs file (e.g. ``docs/PROTOCOLS.md``) near the scan roots.

        Checked under each scanned root and its parent, so scanning
        ``src`` from the repo root finds ``docs/`` beside it, and
        fixture trees can carry their own ``docs/`` directory.
        """
        seen: Set[Path] = set()
        for root in self.roots:
            for base in (root, root.parent):
                candidate = (base / relative).resolve()
                if candidate in seen:
                    continue
                seen.add(candidate)
                if candidate.is_file():
                    return candidate
        return None
