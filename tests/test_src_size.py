"""`src_size.py` counts code lines with no docstring, comment or blank line, so refilling a docstring moves no count."""

import src_size

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment


class A:
    """A class docstring."""

    x = """a string that is no docstring,
over two lines"""

    def f(self):
        # a comment before the docstring
        """The docstring of f."""
        return (os.sep +
                "a")
'''


def test_code_lines_of_a_known_snippet():
    # code on lines 4, 7, 10, 11, 13, 16 and 17
    assert src_size.code_lines(SNIPPET) == 7
    refilled = SNIPPET.replace("The docstring of f.", "The docstring\n        of f,\n        refilled.")
    assert len(refilled.splitlines()) == len(SNIPPET.splitlines()) + 2 and src_size.code_lines(refilled) == 7


def test_every_module_is_counted(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert src_size.sizes(tmp_path) == [("a.py", 17, 7, len(SNIPPET)), ("b.py", 3, 1, 14)]
