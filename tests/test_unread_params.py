"""Every parameter of every function and lambda in the package is read.

A parameter that nothing reads is a setting that changes nothing, and every
caller still has to pass it. The few below keep their place for protocol
parity: both world kinds answer the same calls, but a quadratic world needs
neither the point of its constant Hessian nor a domain to report no data.
"""

import ast
from pathlib import Path

import mergemix

PACKAGE = Path(mergemix.__file__).parent

PROTOCOL_PARITY = {
    ("worlds.py", "QuadraticWorld.hvp", "theta"),
    ("worlds.py", "QuadraticWorld.train_size", "k"),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parameter_names(node) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


def body(node) -> list:
    return node.body if isinstance(node.body, list) else [node.body]


def is_read(name: str, nodes: list) -> bool:
    """Whether `name` is loaded anywhere in `nodes`, nested functions
    included unless one of them takes a parameter of the same name."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, FUNCTIONS):
            # Defaults and decorators run in the enclosing scope.
            stack += [d for d in node.args.defaults + node.args.kw_defaults if d]
            stack += getattr(node, "decorator_list", [])
            if name not in parameter_names(node):
                stack += body(node)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def unread_parameters(tree: ast.Module, filename: str) -> set[tuple[str, str, str]]:
    found = set()

    def visit(node, scope: list[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
                continue
            if not isinstance(child, FUNCTIONS):
                visit(child, scope)
                continue
            inner = scope + [getattr(child, "name", "<lambda>")]
            names = parameter_names(child)
            if isinstance(node, ast.ClassDef) and names[:1] in (["self"], ["cls"]):
                names = names[1:]  # a method's receiver is the protocol's
            for name in names:
                if not is_read(name, body(child)):
                    found.add((filename, ".".join(inner), name))
            visit(child, inner)

    visit(tree, [])
    return found


def test_checker_sees_unread_parameters():
    tree = ast.parse(
        "def f(a, b, *, c=1):\n"
        "    g = lambda b, d: b\n"
        "    def h(a):\n"
        "        return a\n"
        "    return g(c, h(1))\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        return lambda: x\n"
    )
    assert unread_parameters(tree, "t.py") == {
        ("t.py", "f", "a"), ("t.py", "f", "b"), ("t.py", "f.<lambda>", "d"),
    }


def test_every_package_parameter_is_read():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        found |= unread_parameters(ast.parse(path.read_text("utf-8")),
                                   str(path.relative_to(PACKAGE)))
    assert sorted(found - PROTOCOL_PARITY) == []
    assert sorted(PROTOCOL_PARITY - found) == [], "stale protocol-parity entry"
