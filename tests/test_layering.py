"""Module boundaries: no adaptsel module uses another module's private
(underscore-prefixed) names, whether imported or reached as an attribute."""

import ast
from pathlib import Path

import adaptsel

PACKAGE = Path(adaptsel.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _imported_module(node):
    """The adaptsel module an ``ImportFrom`` reads from, or None."""
    if node.level == 1:
        return node.module or "adaptsel"
    if node.module and node.module.startswith("adaptsel."):
        return node.module.split(".", 1)[1]
    return "adaptsel" if node.module == "adaptsel" else None


def imported_names(source):
    """(module, name, text) for every ``from .mod import name`` and every
    ``mod.name`` in ``source``, where ``mod`` is an adaptsel module (or, for
    the import form, the package itself)."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the adaptsel module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node)
            if module is None:
                continue
            for alias in node.names:
                if module == "adaptsel" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    found.append((module, alias.name,
                                  f"from {module} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "adaptsel":
                    continue
                if alias.asname and len(parts) == 2:
                    aliases[alias.asname] = parts[1]
                else:
                    aliases[alias.asname or "adaptsel"] = "adaptsel"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name):
            module = aliases.get(value.id)
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and aliases.get(value.value.id) == "adaptsel"):
            module = value.attr
        else:
            continue
        if module in MODULES:
            found.append((module, node.attr, f"{module}.{node.attr}"))
    return found


def private_reach_ins(source, own):
    """Every ``from .mod import _name`` and ``mod._name`` in ``source``
    (the text of module ``own``) where ``mod`` is another adaptsel module."""
    return [text for module, name, text in imported_names(source)
            if module != own and _private(name)]


#: Conditioning primitives: only ``core`` uses them.  Every other module
#: conditions through ``core.path_root``, ``core.path_state`` or
#: ``core.conditioned_states``, or, as both oracle DPs do, keys a state by
#: its support bitset and prices it from prior masses, so none grows its own
#: conditioning code.
CONDITIONING = {"split", "partition", "renormalize", "version_space"}

#: Modules that may name a conditioning primitive; ``__init__`` re-exports
#: ``version_space`` as public API.
CONDITIONING_READERS = {"core", "__init__"}


def conditioning_reach_ins(source):
    """Every import of a conditioning primitive from ``core`` or the
    package, and every ``core.<primitive>``, in ``source``."""
    return [text for module, name, text in imported_names(source)
            if module in ("core", "adaptsel") and name in CONDITIONING]


def test_no_module_uses_another_modules_private_names():
    for path in sorted(PACKAGE.glob("*.py")):
        assert private_reach_ins(path.read_text(), path.stem) == [], path.name


def test_reach_in_detector_flags_each_form():
    cases = {
        "from .policy import _gains": ["from policy import _gains"],
        "from adaptsel.policy import _gains": ["from policy import _gains"],
        "from . import gen\ngen._staircase_value": ["gen._staircase_value"],
        "from . import policy as p\np._gains": ["policy._gains"],
        "import adaptsel.gen as g\ng._tabulate_set_function":
            ["gen._tabulate_set_function"],
        "import adaptsel.gen\nadaptsel.gen._staircase_value":
            ["gen._staircase_value"],
        "def f():\n    from . import gen\n    return gen._staircase_value":
            ["gen._staircase_value"],
    }
    for source, expected in cases.items():
        assert private_reach_ins(source, "fileio") == expected, source
    # A module's own private names, dunders, and attributes of non-modules.
    assert private_reach_ins("from .core import _expectation", "core") == []
    for source in ("from . import policy\npolicy.__name__",
                   "from .policy import run\nrun._cache"):
        assert private_reach_ins(source, "fileio") == [], source


def test_only_core_uses_the_conditioning_primitives():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in CONDITIONING_READERS:
            assert conditioning_reach_ins(path.read_text()) == [], path.name


def test_conditioning_detector_flags_each_form():
    cases = {
        "from .core import TOL, split": ["from core import split"],
        "from adaptsel.core import partition": ["from core import partition"],
        "from . import version_space": ["from adaptsel import version_space"],
        "from . import core\ncore.renormalize": ["core.renormalize"],
        "import adaptsel.core as c\nc.split": ["core.split"],
    }
    for source, expected in cases.items():
        assert conditioning_reach_ins(source) == expected, source
    # PathState.split and str.split are methods, not the primitive.
    for source in ("from .core import path_root\npath_root(i).split(i, 0)",
                   "spec.split(',')", "from .core import path_state"):
        assert conditioning_reach_ins(source) == [], source
