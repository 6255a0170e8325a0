import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"

# 7 code lines: the two imports are one statement over two lines, and the
# return spans two; docstrings, comments and blanks are not counted, but a
# string that only follows a docstring is
FIXTURE = '''"""Module docstring,
over two lines."""

from math import (pi,
                  tau)  # a trailing comment does not hide the code


class Circle:
    """Class docstring."""

    # a comment line
    def area(self, r):
        \'\'\'Function docstring.\'\'\'
        "a second string statement is code"
        return (pi * r
                * r)
'''


def test_code_lines_counts_a_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"),
                          str(path)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == [f"     7  {path}",
                   "     7  code lines in total (16 lines by wc -l)"]
