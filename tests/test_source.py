"""Source guard: nothing in src/dgreader exists only for its tests.

Every module-level function and public method of the package must be
referenced somewhere in src/dgreader outside its own body. References
are matched by name (a plain name or an attribute spelled the same,
other than one read off `np`), not by resolved target, so the guard
finds entry points that nothing in the package reaches, not every
unused overload.
"""

import ast
from collections import Counter
from pathlib import Path

import dgreader

PACKAGE = Path(dgreader.__file__).parent

# Unreferenced in src/ on purpose: the Tape primitives that the
# gru_cell oracle and the op tests are built from, and the constructor
# the benchmark builds its reader configurations with.
ALLOWED = {"Tape.sigmoid", "Tape.tanh", "Tape.sum_all", "ReaderConfig.from_preset"}


def names_in(node: ast.AST) -> Counter:
    """Names and attribute names read in node. Attributes read off `np`
    are skipped, so a numpy function spelled like a method (`np.tanh`)
    does not count as a caller of it."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id == "np"):
                found[sub.attr] += 1
    return found


def definitions(tree: ast.Module):
    """(qualified name, def node) for each module-level function and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced() -> list[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    everywhere = sum((names_in(tree) for tree in trees), Counter())
    return sorted(
        qualified
        for tree in trees
        for qualified, node in definitions(tree)
        if everywhere[node.name] - names_in(node)[node.name] == 0
    )


def test_every_function_and_public_method_has_a_caller_in_src():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, f"referenced nowhere in src/dgreader outside their own bodies: {dead}"


def test_allowlist_names_only_unreferenced_definitions():
    assert ALLOWED <= set(unreferenced())
