"""The package's public names, and where the oracle code lives."""

import ast
import os

import lfock
from lfock import operators

_PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "src", "lfock")
# bench/spans.py wraps these by module attribute, so they stay in fock and
# specfun although only operators, verify and the tests call them
_PINNED = {"gram", "laguerre0_log"}


def test_every_export_resolves_once():
    assert len(lfock.__all__) == len(set(lfock.__all__))
    missing = [name for name in lfock.__all__ if not hasattr(lfock, name)]
    assert missing == []


def test_public_closed_forms_resolve_to_the_oracle_module():
    for name in ("overlap_analytic", "ladder_down", "ladder_up",
                 "lowering_scalar", "raising_scalar", "matel_normal_ordered"):
        assert getattr(lfock, name) is getattr(operators, name)


def _reads(tree: ast.Module) -> set:
    """(owner, name) for every name or attribute read in a module, owner the
    top-level function or class it is read in (None at module level)."""
    out = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.add((owner, node.attr))
    return out


def test_fock_and_specfun_hold_no_function_only_the_oracles_call():
    # every command compiles fock and specfun; code that only operators,
    # verify, the tests or the demos call belongs in operators. The
    # production modules are every other module of the package (the name
    # table of __init__ holds strings, which read nothing)
    reads, defined = {}, set()
    for name in os.listdir(_PACKAGE):
        if name.endswith(".py") and name not in ("operators.py", "verify.py"):
            with open(os.path.join(_PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            reads[name] = _reads(tree)
            if name in ("fock.py", "specfun.py"):
                defined |= {(name, fn.name) for fn in tree.body
                            if isinstance(fn, ast.FunctionDef)}
    assert ("fock.py", "_gram_rows") in defined and len(defined) > 20

    def read_elsewhere(module: str, fn: str) -> bool:  # a recursion is no caller
        return any(name == fn and (where, owner) != (module, fn)
                   for where, names in reads.items() for owner, name in names)

    assert {fn for module, fn in defined if not read_elsewhere(module, fn)} == _PINNED
