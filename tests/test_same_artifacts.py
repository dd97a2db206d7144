"""tools/same_artifacts.py's comparison of two set directories."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
_spec = importlib.util.spec_from_file_location("same_artifacts", _TOOL)
same_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_artifacts)


def _difference(tmp_path, rev_files, work_files):
    """_first_difference of a working-tree set and a revision's set."""
    for tree, files in (("work", work_files), ("rev", rev_files)):
        (tmp_path / tree).mkdir()
        for name, data in files.items():
            (tmp_path / tree / name).write_bytes(data)
    return same_artifacts._first_difference(tmp_path / "work",
                                            tmp_path / "rev", "REV")


def test_identical_sets_have_no_difference(tmp_path):
    files = {"cli.txt": b"exit 0\n", "empty": b""}
    assert _difference(tmp_path, files, dict(files)) is None


def test_file_in_one_set_only(tmp_path):
    assert _difference(tmp_path, {"a": b"x\n"}, {"b": b"x\n"}) == \
        "a only in REV"


@pytest.mark.parametrize("rev, work, line", [
    (b"row\n", b"row", 1),                 # a missing last line ending
    (b"head\nrow\r\n", b"head\nrow\n", 2),  # CRLF against LF
    (b"head\n\xff\n", b"head\n\xfe\n", 2),  # two undecodable bytes
    (b"\\xff\n", b"\xff\n", 1),            # a byte and its escape's text
    (b"a\nb\n", b"a\nb\nc\n", 3),          # an extra line
])
def test_every_byte_difference_names_its_line(tmp_path, rev, work, line):
    found = _difference(tmp_path, {"out.csv": rev}, {"out.csv": work})
    assert found.startswith(f"out.csv line {line}: REV ")


def test_unknown_revision_is_one_line_error(capsys):
    assert same_artifacts.main(["--against", "no-such-revision"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("same_artifacts: cannot archive no-such-revision: ")
    assert line != "same_artifacts: cannot archive no-such-revision: "
