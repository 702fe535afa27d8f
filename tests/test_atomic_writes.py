"""Every file the package writes goes through `homorag.atomic.write_atomic`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homorag"
# modules whose `open(file, mode)` takes the file first; any other `x.open(mode)` is Path.open
_FILE_FIRST = {"io", "os", "codecs", "gzip", "bz2", "lzma"}


def file_writes(source: str) -> list[int]:
    """Line numbers of `open` calls whose mode writes, appends or creates (or
    is not a literal), and of `write_text` / `write_bytes` calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
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


def test_only_atomic_module_opens_files_for_writing():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "atomic.py" in modules
    assert file_writes((PACKAGE / "atomic.py").read_text(encoding="utf-8"))
    writers = {
        path.name: found for path in modules if path.name != "atomic.py"
        if (found := file_writes(path.read_text(encoding="utf-8")))
    }
    assert writers == {}
