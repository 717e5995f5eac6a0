"""The source line counter of tools/src_lines.py."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("src_lines", os.path.join(ROOT, "tools", "src_lines.py"))
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""A module docstring

with a blank line inside."""

import os  # a trailing comment is code

# a comment line


def f():
    """One docstring line."""
    text = """a string that is
    code, not a docstring"""
    # another comment
    return text
'''


def test_each_line_is_counted_by_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    counts = src_lines.count_file(path)
    assert counts == {"code": 5, "docstring": 4, "comment": 2, "blank": 4}
    assert sum(counts.values()) == len(SAMPLE.splitlines())
