import ast
import inspect
from pathlib import Path

import hamstat
from hamstat import errors


def _raised_and_warned():
    """Names of the classes the package's sources raise, and of the warning
    categories they pass to ``warnings.warn``."""
    raised, warned = set(), set()
    for path in Path(hamstat.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"):
                categories = node.args[1:2] + [k.value for k in node.keywords
                                               if k.arg == "category"]
                warned.update(c.id for c in categories
                              if isinstance(c, ast.Name))
    return raised, warned


def test_every_error_class_is_raised():
    # an error class nothing raises is dead API
    declared = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.HamstatError)
                and cls is not errors.HamstatError}
    raised, warned = _raised_and_warned()
    assert declared and not declared - raised, sorted(declared - raised)
    assert "MonodromyWarning" in warned


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
