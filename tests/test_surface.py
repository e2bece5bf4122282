"""Every function, class and method that ``src/nwalgebra`` defines is
named somewhere else in ``src/``, or is on the list below with the reason
it stays: a command or a paper statement runs each helper, the
benchmark in ``perfbench/`` names it, and an oracle that only tests
call lives in ``tests/oracles.py``.  An entry kept for the benchmark
names a function that ``perfbench/*.py`` names.  Every name a module
reads is bound in it or is a builtin, every name it imports from the
package is read, and only the functions on ``CAP_RAISERS`` raise
``DegreeCapExceeded``.  In ``cli`` only ``main`` and ``_Phases.emit``
write to stderr, and ``sys.exit`` runs only when ``cli`` is the program:
a handler raises, and ``main`` picks the exit code.  One function sums
sparse columns, ``exactlinalg.mat_col``: only it and the exceptions on
``ACCUMULATORS`` accumulate into a dict by ``d[k] = d.get(k, 0) + ...``."""

import ast
import builtins
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nwalgebra"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PAPER_STATEMENT = "a paper statement that no `verify` choice runs yet"
ALLOWED = {
    "calculus.check_prep_abstr_comm": PAPER_STATEMENT,
    "calculus.find_commuting_cofactors": PAPER_STATEMENT,
    "disjoint.motiv_check": PAPER_STATEMENT,
    "exactlinalg.in_span": "perfbench traces it (exactlinalg.in_span.*)",
    "integrals.lift_monomial_to_integral": PAPER_STATEMENT,
    "modp.greedy_solve": "perfbench times it (modp.micro.*, modp.greedy_solve.*)",
}

# the refusals of a degree the cap does not reach: a degree past the cap
# (extend_degree), a build truncated before the top a statement reads
# (require_top), a subalgebra past the cap, and a need known before any
# build (_refuse_past_cap)
CAP_RAISERS = {
    "cli._refuse_past_cap",
    "integrals.subalgebra_build",
    "nichols_core.AlgebraState.extend_degree",
    "nichols_core.AlgebraState.require_top",
}

# the functions that accumulate into a dict: the one sparse product, and
# the sums it cannot express
ACCUMULATORS = {
    "exactlinalg.mat_col": "the one sparse product M c (+ plus)",
    "nichols_core.AlgebraState._candidate_vector":
        "scatters each root's block with its offset and sign, which mat_col cannot take",
    "nichols_core._derive_along":
        "sums raw values across a word tree's leaves, canonical once per accumulator",
    "orbits.OrbitState._candidate":
        "scatters each moved block with its offset and sign, which mat_col cannot take",
    "orbits.OrbitState._degree_two_relations": "builds a two-entry vector by hand",
}

# the scopes of cli that may read sys.stderr or sys.exit
CLI_REPORTERS = {
    ("_Phases.emit", "sys.stderr"),
    ("main", "sys.stderr"),
    ("__main__", "sys.exit"),
}


def _references(node, shadowed, out):
    """Append (name, line, kind) for each name that ``node`` reads: kind
    "bare" for a loaded bare name that no enclosing parameter shadows,
    ("from", module) for a name that ``from .module import`` brings in,
    the module name for a loaded ``module.name``, and "attr" for any
    other loaded attribute.  A store is no read."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # the signature is read in the enclosing scope, the body in its own
        args = node.args
        outer = [*args.defaults, *args.kw_defaults, *getattr(node, "decorator_list", ()),
                 getattr(node, "returns", None)]
        for child in filter(None, outer):
            _references(child, shadowed, out)
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a}
        body = node.body if isinstance(node.body, list) else [node.body]
        for child in body:
            _references(child, shadowed | params, out)
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            out.append((node.id, node.lineno, "bare"))
    elif isinstance(node, ast.ImportFrom) and node.module:
        module = node.module.rsplit(".", 1)[-1]
        out += [(alias.name, node.lineno, ("from", module)) for alias in node.names]
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        kind = node.value.id if isinstance(node.value, ast.Name) else "attr"
        out.append((node.attr, node.lineno, kind))
    for child in ast.iter_child_nodes(node):
        _references(child, shadowed, out)


def _stored(node):
    """The attribute names that ``node`` stores: an assigned attribute,
    and for a class its class-level assignments and ``__slots__``
    entries."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return {node.attr}
    names = set()
    if isinstance(node, ast.ClassDef):
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id == "__slots__":
                        names |= {c.value for c in ast.walk(stmt.value)
                                  if isinstance(c, ast.Constant) and isinstance(c.value, str)}
                    elif isinstance(t, ast.Name):
                        names.add(t.id)
    return names


def unreferenced(src):
    """Qualified names of the module-level functions and classes, and the
    non-dunder methods, that no code in ``src`` names outside their own
    definition.  A module-level name of module M counts as named only by
    a bare load in M, by ``from .M import`` of it, or by a loaded
    ``M.name``: a same-named store, import or definition elsewhere does
    not name it.  A method counts as named by any loaded name or
    attribute of its name, except that a method whose name ``src`` also
    stores as an attribute or slot counts as named only by a call
    ``.name(...)``; a property, read without a call, keeps the general
    rule."""
    defs, refs, calls, stored = [], {}, {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, path, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{sub.name}", sub.name, path, sub, True)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)
                         and not (sub.name.startswith("__") and sub.name.endswith("__"))]
        found = []
        _references(tree, frozenset(), found)
        for name, line, kind in found:
            refs.setdefault(name, []).append((path, line, kind))
        for node in ast.walk(tree):
            stored |= _stored(node)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.setdefault(node.func.attr, []).append((path, node.func.lineno, "call"))

    def named(path, node, method, p, line, kind):
        if p == path and node.lineno <= line <= node.end_lineno:
            return False  # its own definition
        if method:
            return True
        return kind in (("from", path.stem), path.stem) or (kind == "bare" and p == path)

    def references(name, node, method):
        if method and name in stored and not any(
                isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list):
            return calls.get(name, ())
        return refs.get(name, ())

    return sorted(qual for qual, name, path, node, method in defs
                  if not any(named(path, node, method, *ref)
                             for ref in references(name, node, method)))


def stale_perfbench_reasons(allowed, perfbench):
    """The allowed names whose reason names perfbench but whose short name
    no ``perfbench/*.py`` file contains as a word.  The files are read as
    text, so no benchmark module is imported."""
    text = "\n".join(path.read_text() for path in sorted(perfbench.glob("*.py")))
    return sorted(qual for qual, why in allowed.items() if "perfbench" in why
                  and not re.search(rf"\b{re.escape(qual.rsplit('.', 1)[-1])}\b", text))


def test_src_defines_nothing_unused():
    # an allowed name that gains a caller leaves the list too
    assert unreferenced(SRC) == sorted(ALLOWED)


def test_every_name_kept_for_the_benchmark_is_named_there():
    assert stale_perfbench_reasons(ALLOWED, PERFBENCH) == []


def test_a_name_kept_for_the_benchmark_that_it_no_longer_names_is_flagged(tmp_path):
    # only a reason that names perfbench is checked, and only a whole word
    # of a perfbench module counts
    (tmp_path / "tracer.py").write_text(
        "TARGETS = [(\"modp\", \"greedy_solve\"), (\"exactlinalg\", \"in_spans\")]\n")
    (tmp_path / "README.md").write_text("solve_all\n")
    allowed = {"modp.greedy_solve": "perfbench times it",
               "exactlinalg.in_span": "perfbench traces it",
               "modp.solve_all": "perfbench times it",
               "calculus.check": PAPER_STATEMENT}
    assert stale_perfbench_reasons(allowed, tmp_path) == ["exactlinalg.in_span",
                                                          "modp.solve_all"]


def test_a_parameter_or_attribute_of_the_same_name_names_no_function(tmp_path):
    # a module-level function is named by a bare name, an import or
    # module.name, not by a parameter or an attribute that shares its name
    (tmp_path / "core.py").write_text(
        "def degree(z):\n    return z\n\n\n"
        "def used(z):\n    return z\n\n\n"
        "class Cert:\n"
        "    def __init__(self, degree):\n        self.degree = degree\n\n"
        "    def method(self):\n        return self.degree\n")
    (tmp_path / "cli.py").write_text(
        "from .core import used\nimport core\n\n\n"
        "def run(cert, degree=None):\n"
        "    return used(cert.degree), degree, core.Cert(1).method(), (lambda used: used)\n")
    assert unreferenced(tmp_path) == ["cli.run", "core.degree"]


def test_a_store_or_import_of_the_same_name_elsewhere_names_no_function(tmp_path):
    # a module-level function is named only through its own module: a
    # class attribute stored under its name, or an import of a same-named
    # function from another module, does not name it
    (tmp_path / "core.py").write_text(
        "def normalize(x):\n    return x\n\n\n"
        "def element_from_json(data):\n    return data\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def main():\n    return helper()\n")
    (tmp_path / "group.py").write_text(
        "def element_from_json(data):\n    return data\n")
    (tmp_path / "field.py").write_text(
        "from .group import element_from_json\n\n\n"
        "class Field:\n    normalize = staticmethod(abs)\n\n\n"
        "def run(data):\n    return element_from_json(data), Field.normalize(-1)\n")
    assert unreferenced(tmp_path) == ["core.element_from_json", "core.main",
                                      "core.normalize", "field.run"]


def test_a_stored_attribute_of_the_same_name_names_a_method_only_by_a_call(tmp_path):
    # a method whose name is also a stored attribute or slot is named only
    # by a call .name(...): reading the attribute does not name it, and a
    # property, read without a call, is named by any load
    (tmp_path / "group.py").write_text(
        "class Element:\n"
        "    def order(self):\n        return 1\n\n"
        "    def length(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return 2\n\n"
        "    def zero(self):\n        return 0\n\n\n"
        "class System:\n    __slots__ = (\"order\", \"length\")\n"
        "    size = 3\n\n"
        "    def __init__(self):\n        self.order, self.length = 2, 1\n\n\n"
        "class Field:\n    def __init__(self):\n        self.zero = 0\n")
    (tmp_path / "cli.py").write_text(
        "def run(d, w, field):\n"
        "    return d.order, w.length(), w.size, field.zero\n")
    assert unreferenced(tmp_path) == ["cli.run", "group.Element", "group.Element.order",
                                      "group.Element.zero", "group.Field", "group.System"]


def _modules(src):
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def _loaded(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _bound(tree):
    """The names that ``tree`` binds in any of its scopes: a stored or
    deleted name, a definition, a parameter, an import, or the name of an
    exception handler."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                               ast.ExceptHandler)) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def unbound_reads(src):
    """module.name for each bare name that a module of ``src`` reads but
    binds nowhere and that is no builtin."""
    known = set(dir(builtins))
    return sorted(f"{stem}.{name}" for stem, tree in _modules(src)
                  for name in _loaded(tree) - _bound(tree) - known)


def unused_imports(src):
    """module.name for each name that ``from .module import`` brings into
    a module of ``src`` and that the module never reads; a name listed in
    its ``__all__`` counts as read."""
    out = []
    for stem, tree in _modules(src):
        read = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        out += [f"{stem}.{a.asname or a.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for a in node.names if (a.asname or a.name) not in read]
    return sorted(out)


def cap_raisers(src):
    """The qualified names (module.Class.function) of the functions, or the
    module itself at its top level, that raise ``DegreeCapExceeded``."""
    out = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "DegreeCapExceeded":
                    out.add(qual)
            visit(child, qual)

    for stem, tree in _modules(src):
        visit(tree, stem)
    return sorted(out)


def _own_nodes(node):
    """The nodes of a function's body outside its nested functions and
    classes, which are scopes of their own."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                  ast.Lambda)):
            yield child
            yield from _own_nodes(child)


def sparse_accumulators(src):
    """The qualified names (module.Class.function) of the functions that
    accumulate into a dict: an assignment ``d[k] = g(k, 0) + ...`` where g
    is a ``.get`` or a name the function binds to one (``get = d.get``).
    The default must be the int zero: ``get(k, False)`` reads a memo."""
    out = set()

    def accumulates(fn):
        nodes = list(_own_nodes(fn))
        getters = {t.id for n in nodes if isinstance(n, ast.Assign)
                   and isinstance(n.value, ast.Attribute) and n.value.attr == "get"
                   for t in n.targets if isinstance(t, ast.Name)}
        for n in nodes:
            if not (isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Subscript)
                    and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, ast.Add)
                    and isinstance(n.value.left, ast.Call)):
                continue
            call = n.value.left
            f = call.func
            if not (isinstance(f, ast.Attribute) and f.attr == "get"
                    or isinstance(f, ast.Name) and f.id in getters):
                continue
            if (len(call.args) == 2 and isinstance(call.args[1], ast.Constant)
                    and type(call.args[1].value) is int and call.args[1].value == 0):
                return True
        return False

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}"
                if not isinstance(child, ast.ClassDef) and accumulates(child):
                    out.add(name)
                visit(child, name)

    for stem, tree in _modules(src):
        visit(tree, stem)
    return sorted(out)


def stderr_and_exit_scopes(path):
    """(scope, name) for each ``sys.stderr`` and ``sys.exit`` that the
    module at ``path`` reads, once per pair.  The scope is the qualified
    name of the innermost enclosing function or class, ``__main__`` in a
    module-level ``if __name__ == "__main__":`` block, else ``<module>``."""
    out = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "sys" and node.attr in ("stderr", "exit")):
            out.add((scope, f"sys.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for stmt in ast.parse(path.read_text()).body:
        guard = isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "__name__ == '__main__'"
        visit(stmt, "__main__" if guard else "<module>")
    return sorted(out)


def test_src_reads_only_bound_names():
    assert unbound_reads(SRC) == []


def test_src_reads_every_name_it_imports_from_the_package():
    assert unused_imports(SRC) == []


def test_only_the_cap_refusals_raise_degree_cap_exceeded():
    # a statement that reads the top of a truncated build asks
    # AlgebraState.require_top instead of raising its own refusal
    assert cap_raisers(SRC) == sorted(CAP_RAISERS)


def test_a_name_read_but_never_bound_is_flagged(tmp_path):
    # a parameter, a loop or comprehension target, a handler's name, a
    # definition, an import or a builtin binds a name anywhere in the
    # module; a name bound nowhere, such as a dropped import, is flagged
    (tmp_path / "core.py").write_text(
        "import os.path\nfrom .field import QQ as Q\n\n\n"
        "class Cert:\n    pass\n\n\n"
        "def run(z, *rest):\n"
        "    for k in rest:\n        z += k\n"
        "    try:\n        pass\n    except ValueError as e:\n        print(e)\n"
        "    return [w for w in rest], os.path, Q, Cert, len(z), CheckFailed\n")
    (tmp_path / "cli.py").write_text("def main():\n    return DegreeCapExceeded, run\n")
    assert unbound_reads(tmp_path) == ["cli.DegreeCapExceeded", "cli.run",
                                       "core.CheckFailed"]


def test_a_package_import_never_read_is_flagged(tmp_path):
    # only ``from .module import`` counts, under the name it binds; a name
    # in ``__all__`` is read, and an absolute import is not checked
    (tmp_path / "__init__.py").write_text(
        "from .core import run\nfrom . import cli\n\n__all__ = [\"run\"]\n")
    (tmp_path / "core.py").write_text(
        "import os\nfrom sys import path\n"
        "from .field import QQ as Q, ZZ\nfrom .group import identity, GroupElement\n\n\n"
        "def run(z: GroupElement):\n    return Q(z), identity\n")
    assert unused_imports(tmp_path) == ["__init__.cli", "core.ZZ"]


def test_a_raise_of_the_cap_refusal_is_found_in_any_scope(tmp_path):
    # a raise of the class or of a call to it, bare or through its module,
    # is placed in its innermost function or class, else at the module
    (tmp_path / "core.py").write_text(
        "from . import nichols_core\n\n"
        "class State:\n"
        "    def extend(self):\n        raise DegreeCapExceeded(\"past the cap\")\n\n"
        "    def top(self):\n"
        "        def inner():\n            raise nichols_core.DegreeCapExceeded\n"
        "        return inner\n\n\n"
        "def check():\n    raise ValueError(\"DegreeCapExceeded\")\n\n\n"
        "if nichols_core:\n    raise DegreeCapExceeded()\n")
    assert cap_raisers(tmp_path) == ["core", "core.State.extend", "core.State.top.inner"]


def test_only_the_sparse_product_and_its_exceptions_accumulate():
    # every other sum over stored columns goes through exactlinalg.mat_col
    assert sparse_accumulators(SRC) == sorted(ACCUMULATORS)


def test_a_hand_written_accumulation_is_found_in_any_scope(tmp_path):
    # a .get or an aliased get with the int zero as default, in a
    # function, a method or a nested function; a False default reads a
    # memo, and a get that is not summed into a dict is no accumulation
    (tmp_path / "core.py").write_text(
        "def combine(terms):\n    acc = {}\n"
        "    for k, x in terms:\n        acc[k] = acc.get(k, 0) + x\n    return acc\n\n\n"
        "class Solver:\n"
        "    def express(self, coeffs):\n        out = {}\n        get = out.get\n"
        "        for k, x in coeffs.items():\n            out[k] = get(k, 0) + x\n"
        "        return out\n\n"
        "    def plan(self, plans, d):\n        plan = plans.get(d, False)\n"
        "        hits = {}\n        hits[d] = plans.get(d, False) + 1\n"
        "        return plan, hits, plans.get(0, 0)\n\n\n"
        "def multiplier(y):\n    def times(x):\n        acc = {}\n"
        "        for t, v in x.items():\n            acc[t] = acc.get(t, 0) + v * y\n"
        "        return acc\n    return times\n")
    assert sparse_accumulators(tmp_path) == ["core.Solver.express", "core.combine",
                                             "core.multiplier.times"]


def test_only_main_writes_to_stderr_or_exits():
    # a handler returns its report's code or raises; main alone maps an
    # exception to an exit code and a stderr prefix
    assert stderr_and_exit_scopes(SRC / "cli.py") == sorted(CLI_REPORTERS)


def test_a_handler_that_writes_to_stderr_or_exits_is_flagged(tmp_path):
    # a copy of cli whose handler prints to stderr and exits, and a helper
    # that exits under a __main__ test that is not the module's own block
    handler = "def cmd_roots(args, phases):\n"
    source = (SRC / "cli.py").read_text()
    assert handler in source
    copy = tmp_path / "cli.py"
    copy.write_text(source.replace(handler, handler + (
        "    print(\"roots\", file=sys.stderr)\n"
        "    if not args:\n        sys.exit(2)\n")) + (
        "\n\ndef _quit():\n    if __name__ == \"__main__\":\n        sys.exit(1)\n"))
    assert stderr_and_exit_scopes(copy) == sorted(CLI_REPORTERS | {
        ("cmd_roots", "sys.stderr"), ("cmd_roots", "sys.exit"), ("_quit", "sys.exit")})
