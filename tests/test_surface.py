"""Every function, class and method that ``src/nwalgebra`` defines is
named somewhere else in ``src/``, or is on the list below with the reason
it stays: a command or a paper statement runs each helper, and an oracle
that only tests call lives in ``tests/oracles.py``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nwalgebra"

PAPER_STATEMENT = "a paper statement that no `verify` choice runs yet"
ALLOWED = {
    "calculus.check_ofbskew": PAPER_STATEMENT,
    "calculus.check_prep_abstr_comm": PAPER_STATEMENT,
    "calculus.find_commuting_cofactors": PAPER_STATEMENT,
    "disjoint.motiv_check": PAPER_STATEMENT,
    "integrals.lift_monomial_to_integral": PAPER_STATEMENT,
    "exactlinalg.in_span": "perfbench/tracer.py traces it by name",
    "modp.greedy_solve": "perfbench times it (modp.micro.*, modp.greedy_solve.*)",
    "orbits.OrbitState.class_dims": "the orbit build's per-class dims, compared with the "
                                    "word build's class blocks",
    "nichols_core.starts_with_set": "the nilCoxeter statements: y = w . x_{w_o} starts with T_w",
    "nichols_core.ends_with": "the nilCoxeter statements: y = w . x_{w_o} ends with T_w",
}


def unreferenced(src):
    """Qualified names of the module-level functions and classes, and the
    non-dunder methods, that no code in ``src`` names outside their own
    definition."""
    defs, refs = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, path, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{sub.name}", sub.name, path, sub)
                         for sub in node.body if isinstance(sub, ast.FunctionDef)
                         and not (sub.name.startswith("__") and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return sorted(qual for qual, name, path, node in defs
                  if all(p == path and node.lineno <= line <= node.end_lineno
                         for p, line in refs.get(name, ())))


def test_src_defines_nothing_unused():
    # an allowed name that gains a caller leaves the list too
    assert unreferenced(SRC) == sorted(ALLOWED)
