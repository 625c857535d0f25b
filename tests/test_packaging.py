import ast
import fnmatch
import re
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


MAKERS = {"mkdir", "makedirs", "write_text", "write_bytes", "replace", "rename", "mkdtemp",
          "rmtree"}
TEMP_FILES = {"logfork._format"}   # the forked log child, which writes the staged log.csv


def _text(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _mode(call: ast.Call):
    """The mode of an `open` call, or None: the `mode` keyword, else the
    second argument, or the first where it reads as a mode (`path.open("w")`)."""
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    first = call.args[0] if call.args else None
    if not modes and _text(first) and re.fullmatch(r"[rwabxt+]+", first.value):
        modes = [first]
    return (modes or call.args[1:2] or [None])[0]


def _writes(call: ast.Call) -> bool:
    """A call that makes, moves or removes a file or directory, or opens a file
    for writing: one of MAKERS, or an `open` whose mode writes, appends or
    creates (w, a, x, +); a mode that is not a string written in the code
    counts as writing.  A `replace` of string literals edits text
    (`str.replace`), so a move between two literal names is not seen."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in MAKERS:
        return not (name == "replace" and call.args and all(map(_text, call.args)))
    mode = _mode(call) if name == "open" else None
    if mode is None:
        return False
    return not _text(mode) or bool(set(mode.value) & set("wax+"))


def _writers(package: Path) -> list[str]:
    """The code of `package` outside cli.OutputDir and TEMP_FILES that writes
    (`_writes`), as `module`, `module.name` or `module.Class.name`."""
    found = set()
    for file in sorted(package.glob("*.py")):
        module = file.stem
        for node in ast.parse(file.read_text(encoding="utf-8")).body:
            name = f"{module}.{node.name}" if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                else module
            units = [(name, node)]
            if isinstance(node, ast.ClassDef):
                units = [(f"{name}.{item.name}" if isinstance(item, ast.FunctionDef) else name,
                          item) for item in node.body]
            found |= {unit for unit, code in units for call in ast.walk(code)
                      if isinstance(call, ast.Call) and _writes(call)}
    return sorted(n for n in found
                  if n.split(".")[:2] != ["cli", "OutputDir"] and n not in TEMP_FILES)


def test_only_outputdir_writes():
    """cli.OutputDir is the only code in src/ that makes an output directory
    or opens, moves or removes a file for writing, so every artifact gets its
    dialect, its failure message, its manifest entry and its stage."""
    writers = _writers(PACKAGE)
    assert not writers, f"write outside cli.OutputDir: {writers}"


def test_the_writer_scan_finds_every_writer(tmp_path):
    """The scan flags a writing mode given as a keyword, as the second or
    (`path.open`) the first argument or unknown, a directory made, a file
    moved (`os.replace`, `Path.rename`), a temporary directory made and a tree
    removed, and a file written at module level or in another class, and
    passes reads, text replaced, cli.OutputDir and the log child."""
    (tmp_path / "cli.py").write_text(
        "import os, shutil, tempfile\n"
        "class OutputDir:\n"
        "    def open(self, f):\n"
        "        os.makedirs(f.parent, exist_ok=True)\n"
        "        os.replace(tempfile.mkdtemp(), f)\n"
        "        shutil.rmtree(f.parent)\n"
        "        return open(f, 'w')\n"
        "class OutputDirs:\n"
        "    def save(self, p):\n"
        "        return p.open('x+b')\n"
        "def read(f, p, out):\n"
        "    return open(f).read() + open(f, 'rb').read() + p.open().read() + out.open('a.csv')\n"
        "def append(f):\n"
        "    return open(f, mode='a')\n"
        "def made(p):\n"
        "    p.mkdir()\n"
        "def raw(p, flags):\n"
        "    return os.open(p, flags)\n"
        "def moved(a, b):\n"
        "    os.replace(a, b)\n"
        "def renamed(p, q):\n"
        "    return p.rename(q)\n"
        "def staged():\n"
        "    return tempfile.mkdtemp(prefix='.x-')\n"
        "def removed(d):\n"
        "    shutil.rmtree(d, ignore_errors=True)\n"
        "def escaped(text):\n"
        "    return text.replace('&', '&amp;').replace(' ', '')\n"
        "LOG = open('log.txt', 'w')\n", encoding="utf-8")
    (tmp_path / "logfork.py").write_text(
        "def _format(fd):\n"
        "    return open(fd, 'w')\n"
        "def copy(p):\n"
        "    p.write_bytes(b'')\n", encoding="utf-8")
    assert _writers(tmp_path) == ["cli", "cli.OutputDirs.save", "cli.append", "cli.made",
                                  "cli.moved", "cli.raw", "cli.removed", "cli.renamed",
                                  "cli.staged", "logfork.copy"]
