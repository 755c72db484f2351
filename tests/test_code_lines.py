"""tools/code_lines.py, the code-line count that simplicity changes are
measured by, on a fixture whose count is checked by hand."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""A fixture module.

Its docstring spans three lines.
"""
import os  # a comment after code


# a comment line
def greet(name):
    """Say hello.

    Twice over.
    """
    message = "hello, " + name
    return os.path.join(
        "greetings",
        message,
    )


print(greet(
    "world"))
'''

# The lines that hold code: 5 (import), 9 (def), 14, 15, 16 and 17 (the
# string "greetings" passed as an argument is not a docstring), 18, 21 and
# 22.  The docstrings (1-4, 10-13), the comment line 8 and the blank lines
# hold none.
FIXTURE_LINES = 9


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_count_by_hand(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert _tool().code_lines(path) == FIXTURE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    monkeypatch.setattr("sys.argv", ["code_lines.py", str(tmp_path)])
    _tool().main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(FIXTURE_LINES), "a.py"], ["1", "sub/b.py"], [str(FIXTURE_LINES + 1), "total"]]
