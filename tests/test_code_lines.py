import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Code lines: the import, the def line, both lines of the return
# expression, the class line and both lines of the string assigned there,
# which is not a docstring.
FIXTURE = '''"""Module docstring
over two lines."""

# a comment

import os


def f(x):
    """Function docstring."""
    # another comment
    return (x +
            1)


class C:
    \'\'\'Class docstring.\'\'\'

    value = """not a docstring,
    two lines"""
'''


def test_counts_code_lines_outside_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "one.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert result.stdout.split("\n") == ["    7 fixture.py", "    1 one.py", "    8 total", ""]
