"""The size of the package, for ROADMAP item 11.

``test_package_size`` prints one ``PACKAGE lines=<n> code=<n>`` line
straight to the terminal, as the acceptance tests print their
``ACCEPTANCE`` lines, then one ``PACKAGE_MODULES <module>=<lines>/<code> ...``
line with each module's two counts, then one ``PACKAGE_NAMES <module>=<n> ...``
line with each module's count of public names.  ``lines`` counts the lines of
``src/pianofinger/*.py`` as ``wc -l`` does; ``code`` leaves out blank
lines, ``#`` comment lines and the lines of module, class and function
docstrings.  A public name is a module-level function or class whose name
does not start with ``_``, or a public method or property of such a class,
so a deleted alias shows as a count and not only as lines.  No bound is
set on any count.
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


def count_public_names(source: str) -> int:
    """Public module-level functions and classes, plus those classes' public
    methods and properties."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    public = [node for node in ast.parse(source).body
              if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_")]
    methods = [member for node in public if isinstance(node, ast.ClassDef)
               for member in node.body
               if isinstance(member, functions) and not member.name.startswith("_")]
    return len(public) + len(methods)


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


_NAMES = '''
def public(): pass
def _private(): pass


class Shown:
    size = 3
    def __init__(self): pass
    def method(self): pass
    def _helper(self): pass
    @property
    def width(self): return 1
    @classmethod
    def build(cls): pass


class _Hidden:
    def method(self): pass
'''


def test_counting_rule():
    # code: the import, the def, the return, the class and the two lines of text
    assert count_lines(_ONE_OF_EACH) == (16, 6)
    assert count_public_names(_ONE_OF_EACH) == 2
    # public, Shown and Shown's method, width and build
    assert count_public_names(_NAMES) == 5


def test_package_size(capsys):
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(pianofinger.__file__).parent.glob("*.py"))}
    counts = {name: count_lines(source) for name, source in sources.items()}
    lines, code = map(sum, zip(*counts.values()))
    with capsys.disabled():
        print(f"PACKAGE lines={lines} code={code}", flush=True)
        print("PACKAGE_MODULES " + " ".join(f"{name}={n}/{c}" for name, (n, c) in counts.items()),
              flush=True)
        print("PACKAGE_NAMES " + " ".join(f"{name}={count_public_names(source)}"
                                          for name, source in sources.items()), flush=True)
    assert 0 < code < lines
