"""Source hygiene: no import, no function-local assignment and no private
helper in the package goes unused.

No linter ships with the project, so these stdlib-`ast` checks stand in
for one.  A name bound by a module-level import, one under
`if TYPE_CHECKING:` included, must be read somewhere in its module or be
listed in `__all__`; `__init__.py` files are exempt because their
imports are the package's re-exports.  A name imported inside a
function, as the commands of `cli` import the modules they run, must be
read in that function or in a function nested in it.  A name bound in a
function by a plain single-name assignment must be read in that function
or in a function nested in it, which catches a table that a rewrite
leaves computed but unused; tuple-unpacking targets are exempt.  A
module-level function or class whose name starts with `_` must be read
by some module of the package, which catches a helper that a rewrite
leaves defined but no longer called.  Within one function, no system may
reach the elimination entry points twice (say `solve(a, b)` and then
`nullspace(a)`): one `Elimination` answers the solution, the rank and the
kernel together.  No check walks its index grid by hand (a loop setting
`ok = False` that a later `report.add(..., ok, ...)` reads): a grid is
compared as a table identity, a slice at a time, by
`hopf._slice_mismatch`, which names the first failure in lexicographic
order.  The axiom verifiers (`verify_algebra` to `verify_quasi_hopf`),
the certifiers' checks of a mapping system (`pams._check_primal`,
`pams._module_map`, `pams._biunitary`), the transport checks of the two
isomorphism checks, the convolution kernels (`convolution_product`,
`convolution_inverse`), the derivation of gamma (`pams._gamma`) and
`certify_pams` itself, and every package function they reach call
neither `.multiply(` nor `_weighted_sum`: they compare integer tables,
not products of field scalars.  Outside the
package (tests, demos, the benchmark) nothing calls a private trusted
constructor such as `Vector._of`: external input always enters through
a coercing constructor.  Outside `hopf`, which owns the flat layout, no
loop over the coordinates of a flat tensor decodes an index with
`divmod`: `hopf._support` lists the nonzeros of a (support, den) form
with their leg indices.  Dense
tensors are read only at the public boundary: outside `linalg`, no code
reads a dense view (`.mult`, `.comult`, `.coaction`, `.action`, `.phi`,
`.phi_inv`) or the entries of a `Tensor3` (`.data`, `.nonzero()`), or
calls `hopf._tensor3`, except the view and forwarding properties of
those names and `hopf._flat`, which decodes the dense tensor a public
constructor takes; every other reader takes the stored integer tables.
In particular, in `linalg` too, no loop regroups the `.nonzero()`
entries of a tensor into per-index lists by hand, and no code groups a
comultiplication with `_grouped(<...>.comult, 0)`: its grouped nonzeros
are `Coalgebra.int_comult`.  No function of the package calls the
public `Algebra`, `Coalgebra` or `QuasiHopfAlgebra` constructor, which
check and scan a dense tensor or associator, or builds a dense tensor
with `Tensor3(...)` or `Tensor3.from_entries`: every builder, those of
`examples` and the document reader included, hands its integer tables to
`Algebra._of`, `Coalgebra._of` or `QuasiHopfAlgebra._of`, and only the
views build a `Tensor3`, through the trusted `Tensor3._of`.
`verify_hopf` is called only where a Hopf algebra enters without
certification: `certify_coideal`, the entry of the
pipeline, and the commands and constructors that build or reassemble a
Hopf algebra of their own.  The same checker pins the callers of
`coideal._certify_inclusion`, which certifies a coideal without
`verify_hopf`: `certify_coideal` after its own verification, and the
three places whose parent is a transport of a certified parent
(`dual_coideal`, `induced_pams`, `pams_from_split_projection`).
`partial_dual.left_partial_dual` states no check of its own, neither a
`report.add` nor a linear system to reduce: every check of its report
comes from `verify_quasi_hopf`.  What
a scalar is made of (the `numerator` and `denominator` of a `Fraction`,
the residue `v` of a `ModInt`) and the modulus `p` of a prime field are
read only in `linalg`, whose fields convert scalars to and from ints and
reduce the supports of the integer kernels.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "partialdual"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# code that feeds the package from outside: it must use coercing constructors
CLIENTS = sorted(p for d in ("tests", "demos", "perfbench") for p in (REPO / d).rglob("*.py"))


def _module_statements(body: list[ast.stmt]):
    """The module's own statements, through `if` blocks such as
    `if TYPE_CHECKING:` but not into functions or classes."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_statements(node.body + node.orelse)


def _imported_names(statements) -> dict[str, int]:
    """Names bound by the imports among these statements, with their line."""
    bound = {}
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name read anywhere, including the roots of dotted attribute
    chains and the names inside string annotations such as "Report | None"."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    """Imports never read where they bind: a module-level one (under
    `if TYPE_CHECKING:` too) in its module, as "name (line)", and one in a
    function in that function, as "function.name (line)"."""
    tree = ast.parse(source)
    used = _used(tree) | _exported(tree)
    found = [(line, f"{name} (line {line})") for name, line in _imported_names(_module_statements(tree.body)).items()
             if name not in used]
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = _used(func)
            found += [(line, f"{func.name}.{name} (line {line})")
                      for name, line in _imported_names(_own_scope(func)).items() if name not in read]
    return [text for _, text in sorted(found)]


def test_checker_flags_an_unused_import():
    source = "from typing import Callable, Sequence\nimport json\n\ndef f(x: Sequence) -> None:\n    json.dumps(x)\n"
    assert unused_imports(source) == ["Callable (line 1)"]


def test_checker_flags_unused_local_and_type_checking_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from a import Annotated, Forgotten\n"
        "def f(x: Annotated) -> None:\n"
        "    import json\n"
        "    from b import helper, unused\n"
        "    def g():\n"
        "        return helper(x)\n"
        "    return g\n"
        "def h():\n"
        "    from c import json\n"
        "    return 0\n"
    )
    assert unused_imports(source) == [
        "Forgotten (line 3)", "f.json (line 5)", "f.unused (line 6)", "h.json (line 11)"
    ]


def test_checker_counts_exports_and_annotations_not_docstrings():
    source = (
        "from a import exported, annotated, named_in_text\n"
        "__all__ = ['exported']\n"
        "def f(x: 'annotated | None') -> None:\n    'named_in_text'\n"
    )
    assert unused_imports(source) == ["named_in_text (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def _own_scope(func):
    """The nodes of a function body, not descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list[str]:
    """Function-local names bound by `x = ...` or `x: T = ...` and never
    read in the function, as "function.name (line)"."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        declared, assigned = set(), []
        for node in _own_scope(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                assigned.append((node.targets[0], node.lineno))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigned.append((node.target, node.lineno))
        found += [
            f"{func.name}.{target.id} (line {line})"
            for target, line in sorted(assigned, key=lambda pair: pair[1])
            if isinstance(target, ast.Name) and target.id not in read and target.id not in declared
        ]
    return found


def test_checker_flags_an_unread_local():
    source = (
        "def f(xs):\n"
        "    table = [x * x for x in xs]\n"
        "    total: int = 0\n"
        "    head, tail = xs[0], xs[1:]\n"
        "    return len(xs)\n"
    )
    assert unread_locals(source) == ["f.table (line 2)", "f.total (line 3)"]


def test_checker_counts_closures_and_declared_names():
    source = (
        "counter = 0\n"
        "def f(xs):\n"
        "    global counter\n"
        "    counter = len(xs)\n"
        "    scale = 2\n"
        "    def g(x):\n"
        "        unused = x\n"
        "        return x * scale\n"
        "    return [g(x) for x in xs]\n"
    )
    assert unread_locals(source) == ["g.unused (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_function_local(path):
    assert unread_locals(path.read_text()) == []


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes named `_x` that no module of the
    package reads, by name or as an attribute, as "module._x (line)"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _used(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [
        f"{name}.{node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def test_checker_flags_an_unread_private_definition():
    sources = {
        "a": "def _shared(x):\n    return x\n\ndef _orphan():\n    pass\n\nclass _Unused:\n    pass\n",
        "b": "from a import _shared\nimport a\n\ndef public(x):\n    return _shared(x) + a._by_attribute(x)\n",
        "c": "def _by_attribute(x):\n    return x\n\ndef __getattr__(name):\n    raise AttributeError(name)\n",
    }
    assert unread_private_definitions(sources) == ["a._orphan (line 4)", "a._Unused (line 7)"]


def test_no_unread_private_definition():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_definitions(sources) == []


# functions whose first argument is the system they reduce; for
# `Elimination(field, ncols, rows, ...)` it is the rows
ELIMINATING_CALLS = {"rref": 0, "solve": 0, "nullspace": 0, "subspace_basis": 0, "of_matrix": 0, "Elimination": 2}
# matrix methods that reduce their receiver
ELIMINATING_METHODS = {"rank", "inverse"}


def repeated_eliminations(source: str) -> list[str]:
    """Systems that one function passes to elimination entry points more
    than once, as "function: system (lines)".  Systems are compared as
    source expressions, so `solve(a.matrix, b)` and `a.matrix.rank()`
    match; nested functions are scopes of their own."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lines: dict[str, list[int]] = {}
        for node in _own_scope(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in ELIMINATING_CALLS and len(node.args) > ELIMINATING_CALLS[name]:
                system = node.args[ELIMINATING_CALLS[name]]
            elif name in ELIMINATING_METHODS and isinstance(callee, ast.Attribute) and not node.args:
                system = callee.value
            else:
                continue
            lines.setdefault(ast.unparse(system), []).append(node.lineno)
        found += [
            f"{func.name}: {system} (lines {', '.join(map(str, sorted(at)))})"
            for system, at in sorted(lines.items())
            if len(at) > 1
        ]
    return found


def test_checker_flags_a_system_reduced_twice():
    source = (
        "def f(system, b, m):\n"
        "    x = solve(system, b)\n"
        "    return x, nullspace(system), m.rank(), rank(m)\n"
        "def g(a):\n"
        "    def inner():\n"
        "        return a.matrix.rank()\n"
        "    return Elimination(a.field, 3, rows), Elimination(a.field, 3, rows, [b]), inner(), solve(a.matrix, b)\n"
    )
    assert repeated_eliminations(source) == ["f: system (lines 2, 3)", "g: rows (lines 7, 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_system_reduced_twice_in_one_function(path):
    assert repeated_eliminations(path.read_text()) == []


def _falsified(loop) -> set[str]:
    """Names the loop assigns the constant False, also by tuple unpacking."""
    names = set()
    for node in ast.walk(loop):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            else:
                pairs = [(target, node.value)]
            names |= {
                t.id for t, v in pairs
                if isinstance(t, ast.Name) and isinstance(v, ast.Constant) and v.value is False
            }
    return names


def hand_written_first_failure_loops(source: str) -> list[str]:
    """Hand-written check loops, as "function (line)" of the outermost loop.

    A loop is one when it assigns False to a name that a later `.add(...)`
    call of the function reads, with no earlier `.add` of that name in
    between.  Loops that feed paired names (`ok_l`, `ok_r`) or one name
    in phases count once, at their first line."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_own_scope(func))
        loops = [(node.lineno, _falsified(node)) for node in nodes if isinstance(node, (ast.For, ast.While))]
        adds = sorted(
            (node.lineno, arg.id)
            for node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add"
            for arg in node.args
            if isinstance(arg, ast.Name)
        )
        previous: dict[str, int] = {}
        sites = set()
        for line, name in adds:
            starts = [start for start, names in loops if name in names and previous.get(name, 0) < start < line]
            if starts:
                sites.add(min(starts))
            previous[name] = line
        found += [f"{func.name} (line {line})" for line in sorted(sites)]
    return found


def test_checker_flags_hand_written_first_failure_loops():
    source = (
        "def f(report, xs):\n"
        "    ok_l = ok_r = True\n"
        "    for x in xs:\n"
        "        if x < 0:\n"
        "            ok_l = False\n"
        "        if x > 9:\n"
        "            ok_r = False\n"
        "    report.add('left', ok_l)\n"
        "    report.add('right', ok_r)\n"
        "    ok, witness = True, ''\n"
        "    for x in xs:\n"
        "        for y in xs:\n"
        "            if x == y:\n"
        "                ok, witness = False, f'{x}'\n"
        "    for x in xs:\n"
        "        if not x:\n"
        "            ok = False\n"
        "    report.add('pairs', ok, witness)\n"
        "    while xs:\n"
        "        ok = xs.pop() and False\n"
        "        if not xs[-1:]:\n"
        "            ok = False\n"
        "    report.add('again', ok)\n"
        "    seen = True\n"
        "    for x in xs:\n"
        "        seen = False\n"
        "    report.add('walked', *_slice_mismatch(f, '{0}'.format, lambda i: (({xs[i]: 1}, 1), ({}, 1)), len(xs)))\n"
        "    return seen\n"
    )
    assert hand_written_first_failure_loops(source) == ["f (line 3)", "f (line 11)", "f (line 19)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_first_failure_loop(path):
    assert hand_written_first_failure_loops(path.read_text()) == []


def trusted_constructor_calls(source: str) -> list[str]:
    """Calls of a private trusted constructor (`Vector._of(...)`,
    `Matrix._of(...)`, `Tensor3._of(...)`), as "callee (line)"."""
    return [
        f"{ast.unparse(node.func)} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_of"
    ]


def test_checker_flags_trusted_constructor_calls():
    source = (
        "from partialdual import linalg\n"
        "from partialdual.linalg import Matrix, Vector\n"
        "v = Vector._of(QQ, [1])\n"
        "m = Matrix(QQ, [[1]])\n"
        "build = Matrix.__dict__['_of'].__func__\n"
        "t = linalg.Tensor3._of(QQ, data, (1, 1, 1))\n"
    )
    assert trusted_constructor_calls(source) == ["Vector._of (line 3)", "linalg.Tensor3._of (line 6)"]


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: str(p.relative_to(REPO)))
def test_no_trusted_constructor_call_outside_the_package(path):
    assert trusted_constructor_calls(path.read_text()) == []


def _walks_flat_coordinates(source: ast.expr) -> bool:
    """A loop source that walks the coordinates of a flat tensor:
    `flat_nonzeros(...)` or `enumerate(<...>.entries)`."""
    if not isinstance(source, ast.Call):
        return False
    name = source.func.id if isinstance(source.func, ast.Name) else getattr(source.func, "attr", None)
    if name == "flat_nonzeros":
        return True
    return name == "enumerate" and bool(source.args) and getattr(source.args[0], "attr", None) == "entries"


def _loops(func):
    """(loop node, its sources) for the for-loops and comprehensions of a function."""
    for node in _own_scope(func):
        if isinstance(node, ast.For):
            yield node, [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            yield node, [g.iter for g in node.generators]


def hand_decoded_flat_indices(source: str) -> list[str]:
    """Loops over the coordinates of a flat tensor that call `divmod`, as
    "function (line)" of the loop."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop, sources in _loops(func):
            if any(map(_walks_flat_coordinates, sources)) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "divmod"
                for n in ast.walk(loop)
            ):
                found.add((loop.lineno, func.name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_flags_a_hand_decoded_flat_index():
    source = (
        "def f(v, n):\n"
        "    for idx, c in flat_nonzeros(v):\n"
        "        i, j = divmod(idx, n)\n"
        "    pairs = [(divmod(idx, n), c) for idx, c in enumerate(v.entries) if c]\n"
        "    for i in range(n * n):\n"
        "        q, r = divmod(i, n)\n"
        "    return pairs, [c for idx, c in enumerate(v.entries)]\n"
    )
    assert hand_decoded_flat_indices(source) == ["f (line 2)", "f (line 4)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "hopf.py"], ids=lambda p: p.name)
def test_no_flat_index_decoded_by_hand_outside_hopf(path):
    assert hand_decoded_flat_indices(path.read_text()) == []


# the dense views of the stored tables (m, Delta, B's coaction, C's action,
# phi, phi^-1), and the entries of a Tensor3
DENSE_READS = {"mult", "comult", "coaction", "action", "phi", "phi_inv", "data", "nonzero"}


def dense_reads(source: str) -> list[str]:
    """Reads of a dense tensor: `.mult`, `.comult`, `.coaction`, `.action`,
    `.phi`, `.phi_inv`, `.data` and `.nonzero`, and calls of `_tensor3`,
    as "expression (line)".  The properties of those names, the views and
    the forwarding ones, and `_flat`, the one decoder of a dense tensor,
    are exempt."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (func.name == "_flat" or (
            func.name in DENSE_READS and any(getattr(d, "id", None) == "property" for d in func.decorator_list)
        ))
        for node in ast.walk(func)
    }
    found = [
        (node.lineno, node.col_offset, f"{ast.unparse(node)} (line {node.lineno})")
        for node in ast.walk(tree)
        if id(node) not in exempt and (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in DENSE_READS
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_tensor3"
        )
    ]
    return [text for _, _, text in sorted(found)]


def test_checker_flags_dense_reads_outside_the_views():
    source = (
        "class A:\n"
        "    @property\n"
        "    def mult(self):\n"
        "        return _tensor3(self.field, self.dims, _stacked(self.int_terms, 2))\n"
        "    @property\n"
        "    def comult(self):\n"
        "        return self.coalgebra.comult\n"
        "    def __eq__(self, other):\n"
        "        return self.mult == other.mult and self.phi_inv == other.int_phi_inv\n"
        "def _flat(t):\n"
        "    return [x for plane in t.data for row in plane for x in row]\n"
        "def f(q, b, t):\n"
        "    q.int_action = _by(t, q.dims, (1, 0, 2))\n"
        "    return q.action, b.coaction[0, 1, 0], t.nonzero(), t.data, _tensor3(t.field, t.dims, t)\n"
    )
    assert dense_reads(source) == [
        "self.mult (line 9)", "other.mult (line 9)", "self.phi_inv (line 9)",
        "q.action (line 14)", "b.coaction (line 14)", "t.nonzero (line 14)", "t.data (line 14)",
        "_tensor3(t.field, t.dims, t) (line 14)",
    ]


def hand_regrouped_nonzeros(source: str) -> list[str]:
    """Loops over `<tensor>.nonzero()` that append to `<table>[index]`, as
    "function (line)" of the loop.  No function is exempt: the stored
    tables are regrouped from (support, den) forms by `hopf._by`."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop, sources in _loops(func):
            walks_nonzero = any(
                isinstance(s, ast.Call) and getattr(s.func, "attr", None) == "nonzero" for s in sources
            )
            if walks_nonzero and any(
                isinstance(n, ast.Call)
                and getattr(n.func, "attr", None) == "append"
                and isinstance(n.func.value, ast.Subscript)
                for n in ast.walk(loop)
            ):
                found.add((loop.lineno, func.name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_flags_a_hand_regrouped_nonzero_walk():
    """The boundary rule flags every walk over `.nonzero()`; the narrower
    rule flags the walks that regroup one by hand, `_grouped` included."""
    source = (
        "def f(t, n):\n"
        "    rho = [[] for _ in range(n)]\n"
        "    for (s, i, u), c in t.nonzero():\n"
        "        rho[u].append((s, i, c))\n"
        "    flat = []\n"
        "    for index, c in t.nonzero():\n"
        "        flat.append(c)\n"
        "    return rho, flat\n"
        "def _grouped(t, axis):\n"
        "    out = [[] for _ in range(3)]\n"
        "    for index, c in t.nonzero():\n"
        "        out[index[axis]].append(c)\n"
        "    return out\n"
    )
    assert dense_reads(source) == ["t.nonzero (line 3)", "t.nonzero (line 6)", "t.nonzero (line 11)"]
    assert hand_regrouped_nonzeros(source) == ["f (line 3)", "_grouped (line 11)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nonzero_regrouped_by_hand(path):
    assert hand_regrouped_nonzeros(path.read_text()) == []


def comultiplications_grouped_by_hand(source: str) -> list[str]:
    """Calls `_grouped(<expr>.comult, 0)`, as "expr (line)": the grouped
    nonzeros of a comultiplication are `Coalgebra.int_comult`."""
    return [
        f"{ast.unparse(node.args[0])} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "_grouped" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and len(node.args) == 2
        and getattr(node.args[0], "attr", None) == "comult"
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == 0
    ]


def test_checker_flags_a_comultiplication_grouped_by_hand():
    """The boundary rule flags every read of a `.comult` view; the narrower
    rule flags only `_grouped(<...>.comult, 0)`."""
    source = (
        "def f(c, q, b):\n"
        "    a = _grouped(c.comult, 0)\n"
        "    d = hopf._grouped(q.coalgebra.comult, 0)\n"
        "    return a, d, _grouped(b.mult, 2), _grouped(c.comult, 1), c.int_comult\n"
        "def __init__(self, field, comult, counit):\n"
        "    self.int_comult = _grouped(comult, 0)\n"
    )
    assert dense_reads(source) == [
        "c.comult (line 2)", "q.coalgebra.comult (line 3)", "b.mult (line 4)", "c.comult (line 4)"
    ]
    assert comultiplications_grouped_by_hand(source) == ["c.comult (line 2)", "q.coalgebra.comult (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_comultiplication_grouped_outside_the_coalgebra(path):
    assert comultiplications_grouped_by_hand(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_dense_tensors_are_read_only_at_the_boundary(path):
    assert dense_reads(path.read_text()) == []


# the only functions of the package that may run verify_hopf: the entry
# of the pipeline, and code that builds or reassembles a Hopf algebra
VERIFY_HOPF_CALLERS = {
    "coideal.certify_coideal",
    "cli.verify_hopf_cmd",
    "cli._transform",
    "cli.example_bismash",
    "examples.bismash_product",
    "partial_dual.CoquasiHopfAlgebra.hopf_view",
}
# the only functions that certify a coideal without verify_hopf: the entry
# itself, and code whose parent is a transport of a certified parent
CERTIFY_INCLUSION_CALLERS = {
    "coideal.certify_coideal",
    "coideal.dual_coideal",
    "pams.induced_pams",
    "examples.pams_from_split_projection",
}


def callers(source: str, module: str, callee: str) -> list[str]:
    """The function around each `callee(...)` call, as "module.function"
    or "module.Class.method"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call) and callee in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append(".".join([module] + scope))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


# the functions of the package that call a public structure constructor
# (Algebra, Coalgebra, QuasiHopfAlgebra) or build a dense Tensor3 (Tensor3,
# Tensor3.from_entries): none, every builder hands its tables to _of
PUBLIC_CONSTRUCTOR_CALLERS: set[str] = set()
PUBLIC_CONSTRUCTORS = ("Algebra", "Coalgebra", "QuasiHopfAlgebra", "Tensor3", "from_entries")


def test_checker_tells_the_public_constructors_from_the_trusted_ones():
    source = (
        "from partialdual import hopf\n"
        "def read(field, mult, unit):\n"
        "    return Algebra(field, mult, unit)\n"
        "def build(field, table, images, unit):\n"
        "    return hopf.Algebra._of(field, table, unit), Coalgebra._of(field, images, unit)\n"
        "def view(a):\n"
        "    return hopf.Coalgebra(a.field, a.comult, a.counit), Algebra\n"
        "def dense(field, dims, rows):\n"
        "    return Tensor3(field, rows), linalg.Tensor3.from_entries(field, dims, []), Tensor3._of(field, rows, dims)\n"
    )
    assert callers(source, "m", "Algebra") == ["m.read"]
    assert callers(source, "m", "Coalgebra") == ["m.view"]
    assert callers(source, "m", "Tensor3") == ["m.dense"]
    assert callers(source, "m", "from_entries") == ["m.dense"]


def test_only_examples_call_the_public_structure_constructors():
    found = {
        c for path in MODULES for callee in PUBLIC_CONSTRUCTORS
        for c in callers(path.read_text(), path.stem, callee)
    }
    assert found == PUBLIC_CONSTRUCTOR_CALLERS


def test_checker_names_the_callers_of_verify_hopf():
    source = (
        "from partialdual import hopf\n"
        "def certify(h):\n"
        "    verify_hopf(h).raise_if_failed()\n"
        "class View:\n"
        "    def check(self):\n"
        "        return hopf.verify_hopf(self.h)\n"
        "report = verify_hopf(h)\n"
        "def verify_hopf_cmd(f):\n"
        "    return f\n"
    )
    assert callers(source, "m", "verify_hopf") == ["m.certify", "m.View.check", "m"]


def test_checker_names_the_callers_of_any_callee():
    source = (
        "def certify(h, iota):\n"
        "    verify_hopf(h)\n"
        "    return _certify_inclusion(h, iota)\n"
        "def induced(p):\n"
        "    return coideal._certify_inclusion(p.h2, p.iota2)\n"
    )
    assert callers(source, "m", "_certify_inclusion") == ["m.certify", "m.induced"]
    assert callers(source, "m", "verify_hopf") == ["m.certify"]


def test_verify_hopf_runs_only_at_the_entry_and_where_a_hopf_algebra_is_built():
    found = {c for path in MODULES for c in callers(path.read_text(), path.stem, "verify_hopf")}
    assert found <= VERIFY_HOPF_CALLERS


def test_inclusions_skip_verify_hopf_only_on_transports_of_a_certified_parent():
    found = {c for path in MODULES for c in callers(path.read_text(), path.stem, "_certify_inclusion")}
    assert found == CERTIFY_INCLUSION_CALLERS


def own_checks(source: str, function: str) -> list[str]:
    """The checks a module-level function states itself, nested helpers
    included: its `report.add(...)` calls and the linear systems it hands
    to an elimination entry point, as "callee (line)"."""
    found = []
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef) or func.name != function:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            receiver = getattr(callee, "value", None)
            reports = getattr(receiver, "id", getattr(receiver, "attr", None)) == "report"
            if name in ELIMINATING_CALLS or (name == "add" and reports):
                found.append((node.lineno, f"{ast.unparse(callee)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_checker_flags_checks_a_function_states_itself():
    source = (
        "def build(p, report):\n"
        "    seen = set()\n"
        "    seen.add(p)\n"
        "    report.add('form', p == p)\n"
        "    def unique():\n"
        "        return Elimination(p.field, 2, rows).rank\n"
        "    p.report.add('again', True)\n"
        "    return solve(p.matrix, p.rhs), unique()\n"
        "def verify(p, report):\n"
        "    report.add('axiom', True)\n"
    )
    assert own_checks(source, "build") == [
        "report.add (line 4)", "Elimination (line 6)", "p.report.add (line 7)", "solve (line 8)"
    ]
    assert own_checks(source, "verify") == ["report.add (line 10)"]


def test_left_partial_dual_states_no_check_of_its_own():
    assert own_checks((PACKAGE / "partial_dual.py").read_text(), "left_partial_dual") == []


def own_predictions(source: str, function: str) -> list[str]:
    """What a module-level function builds or refuses itself, nested
    helpers included: its `Tensor3(...)` and `Tensor3.<constructor>(...)`
    calls and its `raise CertificationError(...)`, as "what (line)"."""
    found = []
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef) or func.name != function:
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                if "Tensor3" in (getattr(callee, "id", None), getattr(getattr(callee, "value", None), "id", None)):
                    found.append((node.lineno, f"{ast.unparse(callee)} (line {node.lineno})"))
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == "CertificationError":
                    found.append((node.lineno, f"raise CertificationError (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_checker_flags_structure_a_function_predicts_itself():
    source = (
        "def induce(p, kind):\n"
        "    mult = p.mult\n"
        "    def tensor(fn):\n"
        "        return Tensor3._of(p.field, fn(), p.dims)\n"
        "    if tensor(p.fn) != Tensor3(p.field, p.data):\n"
        "        raise CertificationError('mismatch', kind)\n"
        "    if kind not in KINDS:\n"
        "        raise ValueError(kind)\n"
        "    return certify(p.h2, mult, p.entries.flip)\n"
        "def certify(h, mult, flip):\n"
        "    raise CertificationError('axiom', 'fails')\n"
    )
    assert own_predictions(source, "induce") == [
        "Tensor3._of (line 4)", "Tensor3 (line 5)", "raise CertificationError (line 6)"
    ]
    assert own_predictions(source, "certify") == ["raise CertificationError (line 11)"]


def test_induced_pams_predicts_no_structure_of_its_own():
    """induced_pams hands each row's maps to the certifiers: whatever it
    predicted of the induced structure, they certify already."""
    assert own_predictions((PACKAGE / "pams.py").read_text(), "induced_pams") == []


# the parts of a scalar: Fraction.numerator/denominator (and the private
# fields behind them) and the residue ModInt.v; and the modulus p of a
# PrimeField (or ModInt), by which only linalg reduces
SCALAR_PARTS = {"numerator", "denominator", "_numerator", "_denominator", "v", "p"}


def scalar_part_reads(source: str) -> list[str]:
    """Reads of a part of a scalar or of a modulus (`x.numerator`, `x.v`, `field.p`, ...), as "attr (line)"."""
    reads = [
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SCALAR_PARTS
    ]
    return [f"{attr} (line {line})" for line, _, attr in sorted(reads)]


def test_checker_flags_reads_of_scalar_parts():
    source = (
        "from fractions import Fraction\n"
        "def f(x, r, limit, p, field):\n"
        "    den = x.denominator\n"
        "    y = Fraction(1, 3).limit_denominator(limit)\n"
        "    return x.numerator * den, r.v, r.value, y, p.zeta, p % field.p\n"
    )
    assert scalar_part_reads(source) == ["denominator (line 3)", "numerator (line 5)", "v (line 5)", "p (line 5)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_scalar_parts_are_read_only_in_linalg(path):
    assert scalar_part_reads(path.read_text()) == []


# the axiom verifiers, the checks of a mapping system and of a transport, the
# convolution kernels, the certifier of a mapping system and the constructors
# of both partial duals: everything they reach computes on integer tables
AXIOM_VERIFIERS = {
    "verify_algebra", "verify_coalgebra", "verify_compatibility", "verify_quasi_bialgebra", "verify_hopf",
    "verify_quasi_hopf", "_check_primal", "_module_map", "_biunitary", "_transport_checks",
    "convolution_product", "convolution_inverse", "_gamma", "certify_pams",
    "left_partial_dual", "right_partial_dual", "_derive_antipodes",
}
FIELD_SCALAR_PRODUCTS = {"multiply", "_weighted_sum"}


def field_scalar_products_in_verifiers(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Calls `<...>.multiply(...)` or `_weighted_sum(...)` in the roots and in
    every module-level function of the package they reach by name, as
    "module.function: callee (line)"."""
    functions = {
        node.name: (module, node)
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }
    seen, stack, found = set(), sorted(roots & set(functions)), []
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        module, func = functions[name]
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee in FIELD_SCALAR_PRODUCTS and (callee == "_weighted_sum" or isinstance(node.func, ast.Attribute)):
                found.append((module, name, node.lineno, callee))
            if isinstance(node.func, ast.Name) and callee in functions:
                stack.append(callee)
    return [f"{module}.{name}: {callee} (line {line})" for module, name, line, callee in sorted(found)]


def test_checker_flags_field_scalar_products_reached_from_a_verifier():
    sources = {
        "a": (
            "def verify(alg, u):\n"
            "    return helper(alg, u), alg.is_invertible(u)\n"
            "def helper(alg, u):\n"
            "    return alg.multiply(u, u) + _weighted_sum(u)\n"
            "def build(alg, u):\n"
            "    return alg.multiply(u, u)\n"
        ),
        "b": "def _weighted_sum(u):\n    return multiply(u)\ndef unused():\n    return verify\n",
    }
    assert field_scalar_products_in_verifiers(sources, {"verify"}) == [
        "a.helper: _weighted_sum (line 4)", "a.helper: multiply (line 4)"
    ]


def test_axiom_verifiers_compute_no_field_scalar_product():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert field_scalar_products_in_verifiers(sources, AXIOM_VERIFIERS) == []

