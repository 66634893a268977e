"""The size of the package, for ROADMAP item 11.

``test_package_size`` prints one ``PACKAGE lines=<n> code=<n>`` line
straight to the terminal, as the acceptance tests print their
``ACCEPTANCE`` lines, then one ``PACKAGE_MODULES <module>=<lines>/<code> ...``
line with each module's two counts.  ``lines`` counts the lines of
``src/pianofinger/*.py`` as ``wc -l`` does; ``code`` leaves out blank
lines, ``#`` comment lines and the lines of module, class and function
docstrings.  No bound is set on either count.
"""

import ast
from pathlib import Path

import pianofinger


def count_lines(source: str) -> tuple[int, int]:
    """(all lines, code lines) of a Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(1 for line_no, line in enumerate(source.split("\n"), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and line_no not in docstrings)
    return source.count("\n"), code


_ONE_OF_EACH = '''"""A module docstring
over two lines."""

# a comment
import math   # code with a comment


def root(x):
    """A function docstring."""
    return math.sqrt(x)


class Box:
    """A class docstring."""
    text = """a string that is
code"""
'''


def test_counting_rule():
    # code: the import, the def, the return, the class and the two lines of text
    assert count_lines(_ONE_OF_EACH) == (16, 6)


def test_package_size(capsys):
    counts = {path.stem: count_lines(path.read_text(encoding="utf-8"))
              for path in sorted(Path(pianofinger.__file__).parent.glob("*.py"))}
    lines, code = map(sum, zip(*counts.values()))
    with capsys.disabled():
        print(f"PACKAGE lines={lines} code={code}", flush=True)
        print("PACKAGE_MODULES " + " ".join(f"{name}={n}/{c}" for name, (n, c) in counts.items()),
              flush=True)
    assert 0 < code < lines
