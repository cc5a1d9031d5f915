"""No pass of the package recurses: each module's call graph, by name, has
no cycle, and a join chain deep enough to need one Python frame per join
settles with a recursion limit a couple of hundred frames above the test's.
"""
import ast
import inspect
import sys
from pathlib import Path

from provopt.algebra import Attr, Cmp, Const, Join, Relation, Select, structurally_equal
from provopt.rewrites import selection_move_around

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "provopt"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn: ast.AST) -> list[ast.AST]:
    """The nodes of a function's body, its lambdas' included, but not those
    of the functions and classes defined in it."""
    out, todo = [], list(fn.body)
    while todo:
        x = todo.pop()
        out.append(x)
        if not isinstance(x, (*_DEFS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(x))
    return out


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each function's callees, by qualified name (``f``, ``f.inner``,
    ``Class.method``), among the module's own functions.

    A call is an edge when it names a function visible from the caller (its
    own nested functions, those of the functions around it, then the
    module's) or calls a method of the caller's class through ``self.``;
    calls inside a lambda are the enclosing function's. A call to a
    generator function is no edge: it only builds the generator, which a
    driver runs one level at a time; but ``yield from`` runs it on the
    caller's frame, so that call is one.

    What it cannot see: recursion through attributes and properties (for
    example ``Node.schema`` reads a child's ``.schema``, which
    :func:`provopt.algebra.schema_of` guards by caching children first),
    through functions passed as values or kept in tables, and across
    modules."""
    functions: dict[str, tuple[list, dict[str, str], str]] = {}  # own nodes, scope, class

    def collect(nodes: list, prefix: str, outer: dict[str, str], cls, class_body=False):
        """Record the functions defined in a body; returns the names its code
        sees (a class body's are not seen by its methods)."""
        defs = [x for x in nodes if isinstance(x, _DEFS)]
        scope = outer if class_body else {**outer, **{d.name: prefix + d.name for d in defs}}
        for d in defs:
            own = _own_nodes(d)
            functions[prefix + d.name] = (own, collect(own, f"{prefix}{d.name}.", scope, cls), cls)
        for c in (x for x in nodes if isinstance(x, ast.ClassDef)):
            collect(c.body, f"{prefix}{c.name}.", scope, prefix + c.name, class_body=True)
        return scope

    collect(tree.body, "", {}, None)
    generators = {name for name, (own, _, _) in functions.items()
                  if any(isinstance(x, (ast.Yield, ast.YieldFrom)) for x in own)}
    graph: dict[str, set[str]] = {}
    for name, (own, scope, cls) in functions.items():
        delegated = {id(x.value) for x in own if isinstance(x, ast.YieldFrom)}
        graph[name] = set()
        for call in (x for x in own if isinstance(x, ast.Call)):
            f = call.func
            if isinstance(f, ast.Name):
                callee = scope.get(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id == "self" and cls:
                callee = f"{cls}.{f.attr}"
            else:
                continue
            if callee in functions and (callee not in generators or id(call) in delegated):
                graph[name].add(callee)
    return graph


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """The strongly connected components that hold a cycle, each sorted
    (Tarjan's algorithm, run on an explicit stack)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found = []
    for start in sorted(graph):
        if start in index:
            continue
        work = [(start, iter(sorted(graph[start])))]
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        while work:
            v, callees = work[-1]
            w = next(callees, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in graph[v]:
                    found.append(sorted(component))
    return sorted(found)


def test_no_module_of_the_package_has_a_call_cycle():
    found = {path.name: cycles(call_graph(ast.parse(path.read_text())))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: c for name, c in found.items() if c} == {}


def test_the_guard_names_recursion_through_self_lambdas_and_nested_functions():
    source = '''
class P:
    def a(self):
        return self.b()
    def b(self):
        return [self.a() for _ in ()]
    def c(self):
        return self.c

def walk(n, settle=None):
    return walk(n, lambda c: settle(c))

def outer():
    def rec(x):
        return rec(x - 1) if x else 0
    return rec(3)

def callback(n):
    return helper(n, lambda c: callback(c))

def helper(n, f):
    return f(n)

def gen(n):
    yield gen(n - 1)

def delegating(n):
    yield from delegating(n - 1)

def plain():
    return gen(1), plain
'''
    assert cycles(call_graph(ast.parse(source))) == [
        ["P.a", "P.b"], ["callback"], ["delegating"], ["outer.rec"], ["walk"]]


def right_nested_join_chain(n: int):
    """``R0 ⋈ (R1 ⋈ (… Rn))`` on ``a_i = a_{i+1}``, with ``a0 = 5`` selected
    on R0: settling the outermost join places the condition in every
    input below it."""
    node = Relation(f"R{n}", (f"a{n}", f"b{n}"))
    for i in reversed(range(n)):
        r = Relation(f"R{i}", (f"a{i}", f"b{i}"))
        if i == 0:
            r = Select(Cmp("=", Attr("a0"), Const(5)), r)
        node = Join(((f"a{i}", f"a{i + 1}"),), r, node)
    return node


def test_a_150_join_chain_moves_its_selections_without_recursing():
    want = selection_move_around(right_nested_join_chain(150))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        got = selection_move_around(right_nested_join_chain(150))
    finally:
        sys.setrecursionlimit(limit)
    assert structurally_equal(got, want)
    inputs = []
    node = got
    while isinstance(node, Join):
        inputs.append(node.left)
        node = node.right
    # every input, the last included, gets the condition in its own column
    assert [x.cond for x in (*inputs, node)] == [
        Cmp("=", Attr(f"a{i}"), Const(5)) for i in range(151)]
