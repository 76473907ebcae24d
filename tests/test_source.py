"""Source guard: nothing in src/dgreader exists only for its tests.

Every module-level function and public method of the package must be
referenced somewhere in src/dgreader outside its own body. References
are matched by name (a plain name or an attribute spelled the same,
other than one read off `np`), not by resolved target, so the guard
finds entry points that nothing in the package reaches, not every
unused overload. Likewise every name a class declares in `__slots__`,
and every attribute its methods assign on `self`, must be read as an
attribute somewhere in src/dgreader: state that is written but never
read is dead weight on every instance.
"""

import ast
from collections import Counter
from pathlib import Path

import dgreader

PACKAGE = Path(dgreader.__file__).parent

# Unreferenced in src/ on purpose: the constructor the benchmark builds
# its reader configurations with.
ALLOWED = {"ReaderConfig.from_preset"}


def trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]


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
    parsed = trees()
    everywhere = sum((names_in(tree) for tree in parsed), Counter())
    return sorted(
        qualified
        for tree in parsed
        for qualified, node in definitions(tree)
        if everywhere[node.name] - names_in(node)[node.name] == 0
    )


def slots(tree: ast.Module):
    """(qualified name, slot name) for each name in the __slots__ of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    for elt in item.value.elts:
                        yield f"{node.name}.{elt.value}", elt.value


def self_attributes(tree: ast.Module):
    """(qualified name, attribute name) for each attribute that a method
    of a module-level class assigns on `self`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    yield f"{node.name}.{sub.attr}", sub.attr


def unread(declared) -> list[str]:
    """The qualified names that declared(tree) yields, over every module,
    whose attribute is read nowhere in src/dgreader."""
    parsed = trees()
    read = {
        sub.attr
        for tree in parsed
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return sorted(
        {qualified for tree in parsed for qualified, name in declared(tree) if name not in read}
    )


def test_every_function_and_public_method_has_a_caller_in_src():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, f"referenced nowhere in src/dgreader outside their own bodies: {dead}"


def test_allowlist_names_only_unreferenced_definitions():
    assert ALLOWED <= set(unreferenced())


def test_every_slot_is_read_in_src():
    dead = unread(slots)
    assert not dead, f"declared in __slots__ but never read in src/dgreader: {dead}"


def test_every_attribute_set_on_self_is_read_in_src():
    dead = unread(self_attributes)
    assert not dead, f"assigned on self but never read in src/dgreader: {dead}"
