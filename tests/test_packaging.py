import ast
import fnmatch
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steerkit"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_every_config_file_is_package_data():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["steerkit"]
    files = [p.relative_to(PACKAGE).as_posix() for p in (PACKAGE / "configs").iterdir()
             if p.is_file()]
    assert files
    missing = [f for f in files if not any(fnmatch.fnmatch(f, g) for g in globs)]
    assert not missing, f"not shipped in the wheel: {missing}"


def _definitions(package: Path):
    """The names the package defines, each with the code that runs when it is
    used, and the code that runs at import.  A name is `module.name` or
    `module.Class.method`; a dunder method runs with its class, so it is part
    of the class's code, not a name of its own."""
    defs, roots = {}, []
    for file in sorted(package.glob("*.py")):
        module = file.stem
        for node in ast.parse(file.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = [node]
            elif isinstance(node, ast.ClassDef):
                body = [*node.decorator_list, *node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defs[f"{module}.{node.name}.{item.name}"] = [item]
                    else:
                        body.append(item)
                defs[f"{module}.{node.name}"] = body
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                roots += [node.value] if node.value is not None else []
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    defs[f"{module}.{name.id}"] = []
            else:
                roots.append(node)
    return defs, roots


def _words(nodes) -> set[str]:
    """Every name the code refers to: names, attributes and imported names."""
    words = set()
    for node in (sub for n in nodes for sub in ast.walk(n)):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words |= {node.name.split(".")[-1], (node.asname or node.name).split(".")[0]}
    return words


def _unreached(package: Path) -> list[str]:
    """The names of `package` that neither import-time code nor `cli.main`/
    `cli.entry` reaches, following references by name to a fixed point.  A
    name matches every definition that has it, so the scan can miss an unused
    name, never flag one that code refers to."""
    defs, roots = _definitions(package)
    entry = defs["cli.main"] + defs["cli.entry"]
    reached, todo = {"cli.main", "cli.entry"}, _words(roots + entry)
    seen = set()
    while todo:
        word = todo.pop()
        seen.add(word)
        for name, code in defs.items():
            if name.rsplit(".", 1)[-1] == word and name not in reached:
                reached.add(name)
                todo |= _words(code) - seen
    return sorted(set(defs) - reached)


def test_every_src_name_is_reached():
    """Every function, class, method and constant in src/ is reached from code
    that runs at import or from the command line's entry points.
    Test oracles belong in tests/oracles.py."""
    unreached = _unreached(PACKAGE)
    assert not unreached, f"no command reaches {unreached}"


def test_the_reachability_scan_finds_what_is_unreached(tmp_path):
    """The scan flags exactly the dead names of a small package: a function,
    a chain that only dead code calls, a method of a live class and the
    constants that nothing reads, while names reached through a chain, an
    import alias, a method call, a dunder method and a value computed at
    import all count as reached."""
    (tmp_path / "cli.py").write_text(
        "from .model import Plant as P\n"
        "def main(argv):\n"
        "    return helper(P(argv).step())\n"
        "def entry():\n"
        "    raise SystemExit(main(None))\n"
        "def helper(x):\n"
        "    return deep(x)\n"
        "def deep(x):\n"
        "    return x\n"
        "def orphan():\n"
        "    return deep(1)\n", encoding="utf-8")
    (tmp_path / "model.py").write_text(
        "LIMIT = 3.0\n"
        "UNUSED = 4.0\n"
        "TABLE = {'limit': LIMIT}\n"
        "class Plant:\n"
        "    def __init__(self, argv):\n"
        "        self.k = scale(argv)\n"
        "    def step(self):\n"
        "        return self.k\n"
        "    def spare(self):\n"
        "        return 0\n"
        "def scale(v):\n"
        "    return v\n"
        "def dead_chain():\n"
        "    return dead_leaf()\n"
        "def dead_leaf():\n"
        "    return UNUSED\n", encoding="utf-8")
    assert _unreached(tmp_path) == ["cli.orphan", "model.Plant.spare", "model.TABLE",
                                    "model.UNUSED", "model.dead_chain", "model.dead_leaf"]
