"""The benchmark's call surface: every madness callable that ``perfbench/worker.py``
calls exists and accepts the arguments the worker passes.

The worker is parsed, never imported or run.  A call is bound with
``inspect.signature(...).bind`` using placeholders for the worker's argument
values, so a renamed function, a dropped parameter or a renamed keyword fails
here, in tier-1, rather than in the benchmark's ``queries`` workload or its
traced replay.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


class _CallSurface(ast.NodeVisitor):
    """The worker's calls of madness callables.

    Names resolve by name across the whole file, which the worker keeps unique:
    ``from madness import m`` and ``import madness.m`` bind modules (a
    parameter of the same name is the module passed in), ``from madness.m
    import f`` binds callables, ``x = C(...)`` binds an instance of a madness
    class C, ``d = {k: f, ...}`` a dict of callables that ``for _, g in
    d.items()`` hands to ``g``.  A callable is also called when it is handed
    to ``<spans>.time(name, f, *args)``.
    """

    def __init__(self):
        self.names = {}        # name -> (kind, value); kinds as ``resolve`` gives them, or "callables"
        self.calls = []        # (line, callable, bound method?, positional count, keyword names)
        self.referenced = set()

    # -- binding names ------------------------------------------------------

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] == "madness":
                module = importlib.import_module(alias.name)
                if alias.asname is None:    # import madness.m binds madness
                    module = importlib.import_module("madness")
                self.names[alias.asname or "madness"] = ("module", module)

    def visit_ImportFrom(self, node):
        if node.module is None or node.module.split(".")[0] != "madness":
            return
        module = importlib.import_module(node.module)
        for alias in node.names:
            value = getattr(module, alias.name, None)
            if value is None:
                value = importlib.import_module("%s.%s" % (node.module, alias.name))
            kind = "module" if inspect.ismodule(value) else "callable" if callable(value) else "value"
            self.names[alias.asname or alias.name] = (kind, value)

    def resolve(self, node):
        """What an expression denotes: a (kind, value) pair, with kind "module",
        "callable", "value", "instance" (of a class) or "method" (looked up on the
        class); None when it is not madness."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value)
            if owner is None:
                return None
            kind, value = owner
            if kind == "module":
                assert hasattr(value, node.attr), "%s has no %s" % (value.__name__, node.attr)
                found = getattr(value, node.attr)
                if inspect.ismodule(found):
                    return ("module", found)
                return ("callable", found) if callable(found) else ("value", found)
            if kind == "instance":
                assert hasattr(value, node.attr), "%s has no %s" % (value.__name__, node.attr)
                return ("method", getattr(value, node.attr))
            return None
        if isinstance(node, ast.Call):
            called = self.resolve(node.func)
            if called and called[0] == "callable" and inspect.isclass(called[1]):
                return ("instance", called[1])
        return None

    def visit_Assign(self, node):
        self.generic_visit(node)
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        name = node.targets[0].id
        if isinstance(node.value, ast.Dict):
            values = [self.resolve(v) for v in node.value.values]
            if values and all(v and v[0] in ("callable", "method") for v in values):
                self.names[name] = ("callables", values)
            return
        value = self.resolve(node.value)
        if value and value[0] == "instance":
            self.names[name] = value

    def visit_For(self, node):
        # for _, g in d.items(): g denotes each callable of the dict d
        it, target = node.iter, node.target
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr == "items"
            and isinstance(target, ast.Tuple)
            and isinstance(target.elts[-1], ast.Name)
        ):
            owner = self.names.get(it.func.value.id) if isinstance(it.func.value, ast.Name) else None
            if owner and owner[0] == "callables":
                self.names[target.elts[-1].id] = owner
        self.generic_visit(node)

    # -- recording calls ----------------------------------------------------

    def _record(self, node, denoted, args, keywords):
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in keywords):
            raise AssertionError("line %d: a * or ** argument cannot be bound statically" % node.lineno)
        names = tuple(k.arg for k in keywords)
        for kind, value in denoted:
            self.calls.append((node.lineno, value, kind == "method", len(args), names))
            self.referenced.add(value)

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "time" and len(node.args) >= 2:
            handed = self.resolve(node.args[1])
            if handed and handed[0] in ("callable", "method"):
                self._record(node, [handed], node.args[2:], node.keywords)
                return
        if isinstance(func, ast.Name) and self.names.get(func.id, ("",))[0] == "callables":
            self._record(node, self.names[func.id][1], node.args, node.keywords)
            return
        denoted = self.resolve(func)
        if denoted and denoted[0] in ("callable", "method"):
            self._record(node, [denoted], node.args, node.keywords)

    def visit_Attribute(self, node):
        denoted = self.resolve(node)
        if denoted and denoted[0] in ("callable", "method"):
            self.referenced.add(denoted[1])
        self.generic_visit(node)


@pytest.fixture(scope="module")
def surface():
    visitor = _CallSurface()
    visitor.visit(ast.parse(WORKER.read_text(encoding="utf-8")))
    return visitor


def test_every_madness_call_of_the_benchmark_worker_binds(surface):
    failures = []
    for line, target, is_method, positional, keywords in surface.calls:
        signature = inspect.signature(target)
        # Methods are looked up on the class: the instance fills the first parameter.
        arguments = [None] * (positional + is_method)
        try:
            signature.bind(*arguments, **dict.fromkeys(keywords))
        except TypeError as exc:
            failures.append("line %d: %s%s: %s" % (line, target.__qualname__, signature, exc))
    assert not failures, "\n".join(failures)


def test_the_call_surface_covers_every_madness_callable_the_worker_names(surface):
    # A callable the worker names but the visitor saw no call of would go unchecked.
    called = {target for _, target, _, _, _ in surface.calls}
    unseen = sorted(t.__qualname__ for t in surface.referenced - called)
    assert not unseen, "named by the worker but never bound here: %s" % unseen
    modules = {target.__module__ for target in called}
    assert {"madness.cli", "madness.cubes", "madness.reports", "madness.solver"} <= modules
    assert {"madness.sweeps", "madness.universal"} <= modules
    qualnames = {target.__qualname__ for target in called}
    assert {"ReportCache.store", "ReportCache.load", "Envelope.as_dict", "exhaustive_search"} <= qualnames
