"""``tests/code_lines.py`` counts code lines as the project's change notes
do: no docstring, comment or blank line, and every line of a statement
that spans several."""

from tests.code_lines import code_lines

_SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


def f(a):
    """A function docstring."""
    # a comment on its own line

    text = """a string that is
not a docstring"""
    return max(
        a,
        os.sep,
    )
'''


def test_the_counter_reads_a_snippet():
    # import, def, the two lines of text = ..., the four of return max(...)
    assert code_lines(_SNIPPET) == 8
