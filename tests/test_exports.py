"""What the package exports: every public name is one the program itself
uses, apart from a short list of names kept for a stated reason."""

import ast
from pathlib import Path

import arrgroup

SRC = Path(arrgroup.__file__).parent

# exported names the program does not use, and why each stays
UNUSED_EXPORTS = {
    "lefschetz_pairs": "bench/ imports it",
    "genericize": "bench/ imports it",
    "point_relation_words": "bench/ imports it",
    "abelianization": "bench/ imports it",
    "AbelianInvariants": "bench/ imports it",
    "hom_count_scalar": "it is the oracle hom_count is checked against",
    "smith_diagonal": "the kernel invariants of ROADMAP item 4 need it",
}


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_definitions():
    """Top-level functions and classes of the program (outside __init__.py)
    that no used code refers to.  A definition's references to its own name
    do not count, nor do references from inside unused definitions, so a
    helper only an unused function calls is unused too."""
    statements = []  # (name defined or None, names the statement loads)
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            loads = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)}
            name = (stmt.name if isinstance(stmt, (ast.FunctionDef,
                                                   ast.ClassDef)) else None)
            loads.discard(name)
            statements.append((name, loads))
    unused = set()
    while True:
        used = set().union(*(loads for name, loads in statements
                             if name not in unused))
        grown = {name for name, _ in statements if name and name not in used}
        if grown == unused:
            return unused
        unused = grown


def test_every_export_is_used_by_the_program():
    unused = exported_names() & unused_definitions()
    assert sorted(unused - set(UNUSED_EXPORTS)) == []


def test_every_allowed_exception_is_an_unused_export():
    unused = exported_names() & unused_definitions()
    assert sorted(set(UNUSED_EXPORTS) - unused) == []
