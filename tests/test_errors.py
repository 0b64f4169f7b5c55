import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import hamstat
from hamstat import errors

SRC = Path(hamstat.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# the programs: the package itself (the CLI included), the demos and the
# benchmark harness, without its tests
PROGRAMS = [path for folder in (SRC, ROOT / "demos", ROOT / "perfbench")
            for path in sorted(folder.glob("*.py"))
            if not path.name.startswith("test_")]
# public names that only the acceptance criteria call
ACCEPTANCE_ONLY = {"formal_killing", "period_lattice", "lax_flatness_residual",
                   "flow_field"}
# public methods whose bare name another definition under the package also
# has, so a mention of the name does not tell which one a program reaches:
# each with the program that reaches this class's method
SHARED_NAMES = {
    "checks.CheckReport.to_dict": "src/hamstat/cli.py",
    "finitetype.KillingField.from_dict": "src/hamstat/cli.py",
    "lattices.Lattice.coords": "src/hamstat/lattices.py",
    "loops.HolomorphicPotentialData.h": "src/hamstat/loops.py",
    "loops.SpecLift.samples": "src/hamstat/loops.py",
    "loops.TwistedLoop.to_dict": "src/hamstat/finitetype.py",
    "loops.TwistedLoop.to_json": "perfbench/workloads.py",
    "weierstrass.TorusSpec.from_dict": "src/hamstat/cli.py",
    "weierstrass.TorusSpec.to_dict": "src/hamstat/weierstrass.py",
    "weierstrass.TorusSpec.to_json": "src/hamstat/cli.py",
}
# shared-name methods that only tests reach, kept until they are removed
TESTS_ONLY = {"loops.ReconstructedLift.samples"}


def _raised():
    """Names of the classes the package's sources raise."""
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_error_class_is_raised():
    # an error class nothing raises is dead API
    declared = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.HamstatError)
                and cls is not errors.HamstatError}
    assert declared and not declared - _raised(), sorted(declared - _raised())


def _public_definitions():
    """(qualified name, name) of every public module-level function and
    class under the package, and of every public method that overrides no
    base-class method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(f"hamstat.{path.stem}"),
                              node.name)
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            and not any(hasattr(base, item.name)
                                        for base in cls.__mro__[1:])):
                        yield (f"{path.stem}.{node.name}.{item.name}",
                               item.name)


def _mentions(path: Path) -> set:
    """Names a program mentions, as a name or an attribute."""
    mentioned = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            mentioned.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
    return mentioned


def test_every_public_name_is_reached():
    # a public name that no program mentions is dead API; an import or an
    # __all__ entry is not a mention.  A method whose bare name is defined
    # more than once must be listed with the program that reaches it, and
    # that program must mention it: a new shared name fails until listed
    mentions = {path: _mentions(path) for path in PROGRAMS}
    mentioned = set().union(*mentions.values()) | ACCEPTANCE_ONLY
    defined = Counter(node.name for path in SRC.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    shared, unreached = set(), []
    for qual, name in _public_definitions():
        if qual.count(".") == 2 and defined[name] > 1:
            shared.add(qual)
            if qual in SHARED_NAMES and name not in mentions[ROOT / SHARED_NAMES[qual]]:
                unreached.append(qual)
        elif name not in mentioned:
            unreached.append(qual)
    assert shared == set(SHARED_NAMES) | TESTS_ONLY, sorted(
        shared ^ (set(SHARED_NAMES) | TESTS_ONLY))
    assert not unreached, unreached


def test_every_parameter_is_read():
    # a parameter the body never reads is dead API; the receiver of a
    # method (self, cls) may go unread when an override fixes its signature
    unread = []
    for path in sorted(Path(hamstat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [p for p in (a.vararg, a.kwarg) if p is not None]]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {p}" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert not unread, unread
