"""Every file the package writes goes through `homorag.atomic.write_atomic`,
every file it reads as text goes through `read_lines` or `read_json_object`
there, which decode UTF-8 and name the fault, every JSON document and JSON-lines
text takes its layout from `dump_json` or `dump_json_lines` there, and only that
module imports `hashlib`. The package imports nothing beyond the standard
library, numpy and PyYAML."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homorag.atomic import read_json_object, read_lines

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homorag"
# modules whose `open(file, mode)` takes the file first; any other `x.open(mode)` is Path.open
_FILE_FIRST = {"io", "os", "codecs", "gzip", "bz2", "lzma"}


def url_openers(tree: ast.AST) -> set[str]:
    """Names bound to an `OpenerDirector()`, whose `open` fetches a URL through
    the handlers added to it; the gateway's has no file: handler."""
    return {
        target.id for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", getattr(node.value.func, "id", None))
        == "OpenerDirector"
        for target in node.targets if isinstance(target, ast.Name)
    }


def is_url_open(func: ast.expr, openers: set[str]) -> bool:
    return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
        and func.value.id in openers


def file_writes(source: str) -> list[int]:
    """Line numbers of `open` calls whose mode writes, appends or creates (or
    is not a literal), and of `write_text` / `write_bytes` calls."""
    lines, tree = [], ast.parse(source)
    openers = url_openers(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open" and not is_url_open(func, openers):
            file_first = isinstance(func, ast.Name) or (
                isinstance(func.value, ast.Name) and func.value.id in _FILE_FIRST)
            pos = 1 if file_first else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[pos] if len(node.args) > pos else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax"):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_each_way_of_writing():
    source = "\n".join([
        'open(p, "w")', 'open(p, mode="ab")', 'p.open("x")', 'io.open(p, "w+")',
        'p.write_text("")', 'p.write_bytes(b"")', "open(p, m)",
        'open(p)', 'open(p, "rb")', 'open("a.txt")', 'p.open()', 'p.read_text()',
        'io.open(p, "r")',
    ])
    assert file_writes(source) == [1, 2, 3, 4, 5, 6, 7]


def test_scan_passes_only_opens_on_a_url_opener():
    source = "\n".join([
        "o = urllib.request.OpenerDirector()", "o.open(request, timeout=t)",
        "p.open(request)", "other.o.open(request)", "open(o)",
    ])
    assert file_writes(source) == [3, 4]
    assert text_reads(source) == [3, 4, 5]


def test_only_atomic_module_opens_files_for_writing():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "atomic.py" in modules
    assert file_writes((PACKAGE / "atomic.py").read_text(encoding="utf-8"))
    writers = {
        path.name: found for path in modules if path.name != "atomic.py"
        if (found := file_writes(path.read_text(encoding="utf-8")))
    }
    assert writers == {}


def text_reads(source: str) -> list[int]:
    """Line numbers of `open` calls whose mode is not binary (or is not a
    literal), and of `read_text` / `json.load` calls."""
    lines, tree = [], ast.parse(source)
    openers = url_openers(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "read_text" or (name == "load" and isinstance(func, ast.Attribute)
                                   and isinstance(func.value, ast.Name)
                                   and func.value.id == "json"):
            lines.append(node.lineno)
        elif name == "open" and not is_url_open(func, openers):
            file_first = isinstance(func, ast.Name) or (
                isinstance(func.value, ast.Name) and func.value.id in _FILE_FIRST)
            pos = 1 if file_first else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[pos] if len(node.args) > pos else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or "b" not in mode.value:
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_each_way_of_reading_text():
    source = "\n".join([
        "open(p)", 'open(p, "r")', 'open(p, mode="rt")', "p.open()", 'io.open(p, "r")',
        "p.read_text()", "json.load(fh)", "open(p, m)",
        'open(p, "rb")', 'open(p, mode="rb")', 'p.open("rb")', 'io.open(p, "rb")',
        "p.read_bytes()", "json.loads(s)", "yaml.load(fh)",
    ])
    assert text_reads(source) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_only_atomic_module_reads_files_as_text():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = {
        path.name: found for path in modules if path.name != "atomic.py"
        if (found := text_reads(path.read_text(encoding="utf-8")))
    }
    assert readers == {}


def json_dumps_calls(source: str) -> list[tuple[str, int, bool]]:
    """(qualified name of the enclosing function, line, whether it passes
    `indent=`) of each `json.dumps` / `json.dump` call, and of `dumps` /
    `dump` called by a bare name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id in ("dumps", "dump")) or (
                        isinstance(func, ast.Attribute) and func.attr in ("dumps", "dump")
                        and isinstance(func.value, ast.Name) and func.value.id == "json"):
                    indent = any(k.arg == "indent" for k in child.keywords)
                    found.append((".".join(scope), child.lineno, indent))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found, key=lambda call: call[1])


# the one document layout and the one JSON-lines layout
JSON_DUMPS_SITES = {("atomic.py", "dump_json"), ("atomic.py", "dump_json_lines")}


def test_scan_finds_each_json_dumps_call():
    source = "\n".join([
        "json.dumps(x)",
        "class A:",
        "    def f(self):",
        "        return [json.dumps(y, indent=1) for y in self]",
        "def g(fh):",
        "    json.dump(x, fh, sort_keys=True)",
        "    dumps(x, indent=None)",
        "    json.loads(s); other.dumps(x); yaml.dump(x)",
    ])
    assert json_dumps_calls(source) == [
        ("", 1, False), ("A.f", 4, True), ("g", 6, False), ("g", 7, True)]


def test_json_documents_take_their_layout_from_dump_json():
    calls = [
        (path.name, scope, line, indent) for path in sorted(PACKAGE.glob("*.py"))
        for scope, line, indent in json_dumps_calls(path.read_text(encoding="utf-8"))
    ]
    assert {(name, scope) for name, scope, _, _ in calls} == JSON_DUMPS_SITES
    assert [call for call in calls if call[3]] == []


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level name) of each absolute import, those inside functions too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return sorted(found)


def test_scan_finds_each_absolute_import():
    source = "\n".join([
        "import os.path, numpy as np", "from yaml import safe_load", "from . import atomic",
        "def f():", "    import scipy.sparse", "    from .config import X",
    ])
    assert absolute_imports(source) == [(1, "numpy"), (1, "os"), (2, "yaml"), (5, "scipy")]


def test_only_atomic_module_imports_hashlib():
    importers = {
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if any(name == "hashlib" for _, name in
               absolute_imports(path.read_text(encoding="utf-8")))
    }
    assert importers == {"atomic.py"}


def test_package_imports_only_the_standard_library_numpy_and_yaml():
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    foreign = {
        path.name: found for path in sorted(PACKAGE.glob("*.py"))
        if (found := [(line, name) for line, name in
                      absolute_imports(path.read_text(encoding="utf-8")) if name not in allowed])
    }
    assert foreign == {}


def test_importing_the_cli_and_pipeline_loads_no_ssl():
    # urllib.request loads ssl, so only the HTTP transport may import it, when called
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, homorag.cli, homorag.pipeline;"
         "print(sorted({'ssl', 'urllib.request'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("content, cause", [
    (b"\xe9{}", UnicodeDecodeError),
    (b'{"a": [1, 2', json.JSONDecodeError),
    (b"[" * 200_000, RecursionError),
    (b"[1, 2]", TypeError),
], ids=["not-utf8", "truncated", "too-deep", "list"])
def test_read_json_object_names_the_file(tmp_path, content, cause):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_json_object(path)
    assert str(info.value) == f"{path}: not a UTF-8 JSON object"
    assert isinstance(info.value.__cause__, cause)


def test_read_json_object_returns_the_object_and_passes_os_errors(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes('{"k": ["\u00e9", 1]}'.encode("utf-8"))
    assert read_json_object(path) == {"k": ["\u00e9", 1]}
    with pytest.raises(FileNotFoundError):
        read_json_object(tmp_path / "missing.json")


def test_read_lines_numbers_lines_and_keeps_their_ends(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\r\n\u00e9\n\nlast".encode("utf-8"))
    assert list(read_lines(path)) == [(1, "a\r\n"), (2, "\u00e9\n"), (3, "\n"), (4, "last")]
