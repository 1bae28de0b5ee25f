import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment

def f(x):  # code with a trailing comment
    """One-line docstring."""
    text = """a string
    that is code"""
    return x
'''


def test_each_kind_is_counted():
    assert code_lines.line_kinds(SOURCE) == {"code": 4, "docstring": 3, "comment": 1,
                                             "blank": 2}


def test_kinds_add_up_to_the_line_count():
    for path in (ROOT / "src" / "jdrcap").glob("*.py"):
        source = path.read_text()
        assert sum(code_lines.line_kinds(source).values()) == len(source.splitlines())
