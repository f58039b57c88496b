"""jsonio.write_output, the one writer of every output file and of stdout.

A file is replaced whole or left as it was; a symlink is followed and kept;
a FIFO is written in place. No test points at a device node: under root, a
writer that replaced one would replace it for the whole machine.
"""

import ast
import os
import stat
import threading
from pathlib import Path

import pytest

from singprep.jsonio import write_output

SRC = Path(__file__).resolve().parents[1] / "src" / "singprep"
TEXT = "我和你 from one world, café\n"


def temporaries(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_bytes_and_mode_equal_write_text(tmp_path):
    write_output(TEXT, tmp_path / "a.txt")
    (tmp_path / "b.txt").write_text(TEXT, encoding="utf-8")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.txt").stat().st_mode == (tmp_path / "b.txt").stat().st_mode
    assert temporaries(tmp_path) == []


def test_bytes_are_written_as_given(tmp_path):
    write_output(b"RIFF\x00\xff\n", tmp_path / "a.wav")
    assert (tmp_path / "a.wav").read_bytes() == b"RIFF\x00\xff\n"


@pytest.mark.parametrize("path", [None, "-"])
def test_none_and_dash_write_to_stdout(tmp_path, monkeypatch, capsys, path):
    monkeypatch.chdir(tmp_path)
    write_output(TEXT, path)
    assert capsys.readouterr().out == TEXT
    assert list(tmp_path.iterdir()) == []


def test_a_longer_file_is_replaced_whole(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"x" * 1000)
    write_output("{}\n", target)
    assert target.read_bytes() == b"{}\n"
    assert temporaries(tmp_path) == []


def test_unencodable_text_leaves_the_old_file(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        write_output('{"utt_id": "\ud800"}\n', target)
    assert target.read_bytes() == b"old\n"
    assert temporaries(tmp_path) == []


def test_failed_replace_leaves_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="no space"):
        write_output(TEXT, target)
    assert target.read_bytes() == b"old\n"
    assert temporaries(tmp_path) == []


def test_a_symlink_stays_a_link_and_its_target_is_written(tmp_path):
    real = tmp_path / "data" / "out.json"
    real.parent.mkdir()
    real.write_bytes(b"old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_output(TEXT, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == TEXT
    assert temporaries(tmp_path) == temporaries(real.parent) == []


def test_a_dangling_symlink_gets_its_target(tmp_path):
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "new.json")
    write_output(TEXT, link)
    assert link.is_symlink() and (tmp_path / "new.json").read_text(encoding="utf-8") == TEXT


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_output(TEXT, fifo)
    reader.join(timeout=30)
    assert got == [TEXT.encode("utf-8")]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert temporaries(tmp_path) == []


def test_a_directory_raises(tmp_path):
    with pytest.raises(IsADirectoryError):
        write_output(TEXT, tmp_path)
    assert temporaries(tmp_path) == temporaries(tmp_path.parent) == []


def test_a_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_output(TEXT, tmp_path / "no" / "out.json")
    assert list(tmp_path.iterdir()) == []


# -- one writer ----------------------------------------------------------------

def _calls(node, function=None):
    """(name of the innermost enclosing function, call) for each call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _calls(child, inner)


def _mode(call: ast.Call):
    """The mode argument of an open-like call, or None if it is left at "r"."""
    if len(call.args) > 1:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def _writes(tree: ast.Module) -> list[tuple[str | None, ast.Call]]:
    """The calls in tree that write a file: write_text, write_bytes, and open,
    wave.open or open_input with a mode that is not a read mode. A mode held
    in a variable counts as a write. wave.open on a name bound to an
    io.BytesIO writes into memory, not to a path."""
    buffers = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call) and "BytesIO" in ast.unparse(node.value.func)
               for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for function, call in _calls(tree):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append((function, call))
        elif name in ("open", "open_input") and (mode := _mode(call)) is not None:
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                    and not set(mode.value) & set("wax+"):
                continue
            if call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in buffers:
                continue
            found.append((function, call))
    return found


def test_write_output_is_the_only_writer():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for function, call in _writes(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault(function, []).append(f"{path.name}:{call.lineno}: "
                                                  f"{ast.unparse(call)}")
    # write_output's own open; open_input's, whose mode is its parameter,
    # as every call of open_input is itself checked for a read mode
    assert [s.split(": ", 1)[1] for s in found.pop("write_output")] == [
        "open(path if in_place else tmp, 'wb')"]
    assert [s.split(": ", 1)[1] for s in found.pop("open_input")] == [
        "open(path, mode, encoding=encoding)"]
    assert found == {}


@pytest.mark.parametrize("code", [
    "Path(p).write_text(s, encoding='utf-8')",
    "p.write_bytes(b)",
    "open(p, 'w')",
    "open(p, mode='ab')",
    "open(p, 'x')",
    "open(p, 'r+b')",
    "wave.open(str(p), 'wb')",
    "open_input(p, 'wb')",
    "open(p, m)",
])
def test_the_writer_scan_finds_each_kind_of_write(code):
    assert len(_writes(ast.parse(f"def f(p, s, b, m):\n    {code}\n"))) == 1


@pytest.mark.parametrize("code", [
    "open(p)",
    "open(p, 'rb')",
    "open_input(p, 'rb')",
    "wave.open(raw, 'rb')",
    "buf = io.BytesIO()\n    wave.open(buf, 'wb')",
])
def test_the_writer_scan_passes_reads_and_buffers(code):
    assert _writes(ast.parse(f"def f(p, raw):\n    {code}\n")) == []
