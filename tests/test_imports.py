"""Every import in the package's modules is used, none reaches another
module's underscore name, the evaluator families import nothing of each
other, caches memoise by argument, each module's __all__ lists exactly its
public names, and no np.unique call is bare."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ordense"


def _imported_names(nodes) -> set[str]:
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported


def _exported(tree: ast.Module) -> set[str]:
    """The names a module's top-level __all__ lists."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(source: str) -> list[str]:
    # an imported name listed in __all__ is a re-export, so it is used
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(_imported_names(ast.walk(tree)) - used - _exported(tree))


def test_unused_import_is_caught():
    source = "import math\nimport numpy as np\nfrom .arith import nu2\nnp.ones(1)\n"
    assert _unused_imports(source) == ["math", "nu2"]


def test_unused_import_outside_all_is_caught():
    source = '__all__ = ["nu2"]\nfrom .arith import nu2, valuation\n'
    assert _unused_imports(source) == ["valuation"]


# __init__.py imports only to re-export: its imports are the package's API
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == [], path.name


def _private_imports(source: str) -> list[str]:
    """Underscore names imported from a module of the package."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ordense")
        for a in node.names
        if a.name.startswith("_")
    )


def test_private_import_is_caught():
    source = (
        "from __future__ import annotations\nfrom numpy import _z\n"
        "from .arith import _x, nu2\nfrom ordense.sieve import _t as t\n"
    )
    assert _private_imports(source) == ["_t", "_x"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    # each fact stays behind its owner's public name
    assert _private_imports(path.read_text()) == [], path.name


def _package_imports(source: str) -> set[str]:
    """The modules of the package that a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names]
            found.update(p[1] for p in parts if p[0] == "ordense" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level or parts[:1] == ["ordense"]:
                inner = parts if node.level else parts[1:]
                # "from . import series" names the module itself
                found.update(inner[:1] or [a.name for a in node.names])
    return found


# the three evaluator families agree only if they share no code: each may
# read the primitives under them (arith, sieve, decomp, and the closed forms
# with the types in closed), never another family's machinery, directly or
# through a module it imports.  Counting reads no analytic module at all.
_ANALYTIC = {"closed", "series", "charform", "density", "kummer", "characters"}
FORBIDDEN = {
    "series": {"characters", "charform"},
    "charform": {"series", "kummer"},
    "closed": {"series", "charform", "kummer"},
    "empirical": _ANALYTIC,
}


def _reached(module: str, sources: dict[str, str]) -> set[str]:
    """The package modules that importing module loads: the closure of its
    imports over sources, which maps module names to their source (a module
    missing from it imports nothing)."""
    seen, todo = set(), [module]
    while todo:
        new = _package_imports(sources.get(todo.pop(), "")) - seen
        seen |= new
        todo.extend(new)
    return seen


def _family_violations(module: str, sources: dict[str, str]) -> list[str]:
    return sorted(_reached(module, sources) & FORBIDDEN[module])


def test_family_import_is_caught():
    source = (
        "import numpy as np\nfrom .arith import nu2\nfrom .kummer import eps2s\n"
        "import ordense.characters\nfrom ordense.sieve import tables\n"
        "from . import series\ndef f():\n    from .closed import DensityValue\n"
    )
    assert _package_imports(source) == {"arith", "kummer", "characters", "sieve", "series", "closed"}
    assert _family_violations("charform", {"charform": source}) == ["kummer", "series"]
    assert _family_violations("series", {"series": source}) == ["characters"]
    assert _family_violations("empirical", {"empirical": source}) == [
        "characters", "closed", "kummer", "series"
    ]


def test_transitive_family_import_is_caught():
    # series imports nothing forbidden itself, but closed, which it imports,
    # imports characters
    sources = {
        "series": "from .closed import TruncationConfig\nfrom .sieve import tables\n",
        "closed": "from .arith import nu2\nfrom .characters import check_prime_cutoff\n",
        "characters": "from .sieve import primes_upto\n",
    }
    assert _reached("series", sources) == {"closed", "sieve", "arith", "characters"}
    assert _family_violations("series", sources) == ["characters"]
    assert _family_violations("closed", sources) == []


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_families_stay_independent(module):
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _family_violations(module, sources) == [], module


def _module_caches(source: str) -> set[str]:
    """Names ending in _cache assigned at a module's top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_cache"))
    return names


def test_module_cache_is_caught():
    source = "_a_cache = {}\nb = {}\n_c_cache: dict = {}\ndef f():\n    _d_cache = {}\n"
    assert _module_caches(source) == {"_a_cache", "_c_cache"}


def test_hand_rolled_caches_are_the_grow_only_and_one_entry_ones():
    # any other cache is functools.lru_cache on the function it memoises, so
    # its key is the call's arguments and it reports cache_info()
    found = {f"{p.stem}.{n}" for p in SRC.glob("*.py") for n in _module_caches(p.read_text())}
    assert found == {"sieve._prime_cache", "sieve._table_cache", "empirical._factored_cache"}


def _all_problems(source: str) -> tuple[list[str], list[str]]:
    """(names in __all__ not defined at top level, public top-level
    functions and classes missing from __all__)."""
    tree = ast.parse(source)
    # an imported name counts as defined: listed in __all__, it is a re-export
    defined, public = _imported_names(tree.body), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    exported = _exported(tree)
    return sorted(exported - defined), sorted(public - exported)


def test_all_problems_are_caught():
    source = (
        '__all__ = ["f", "Gone", "K", "nu2"]\nfrom .arith import nu2\nK = 1\n'
        "def f():\n    pass\nclass C:\n    pass\ndef _private():\n    pass\n"
    )
    assert _all_problems(source) == (["Gone"], ["C"])


# the CLI is an entry point, not a library module: it exports nothing
API_MODULES = [p for p in MODULES if p.name != "cli.py"]


@pytest.mark.parametrize("path", API_MODULES, ids=lambda p: p.name)
def test_all_is_complete(path):
    # every name in __all__ is defined in the module, and every public
    # function or class is listed in it
    assert _all_problems(path.read_text()) == ([], []), path.name


def _bare_uniques(source: str) -> list[int]:
    """Lines of np.unique(...) calls that pass no return_* keyword."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and not any((k.arg or "").startswith("return_") for k in node.keywords)
    )


def test_bare_unique_is_caught():
    source = (
        "import numpy as np\nx = np.unique(a)\ny, c = np.unique(a, return_counts=True)\n"
        "z = sorted(set(a))\nw = np.unique(a, axis=0)\n"
    )
    assert _bare_uniques(source) == [2, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_unique(path):
    # a bare np.unique imports numpy.ma on first use, which costs a process
    # about 15 ms and 1 MB; a return_* keyword takes the path that does not
    assert _bare_uniques(path.read_text()) == [], path.name
