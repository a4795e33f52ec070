from code_lines import code_lines, main

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment-only line


class Box:
    """Class docstring."""

    size = 1


def f(x):
    """Function docstring
    over two lines.
    """
    # another comment
    label = "not a docstring"
    text = """a multi-line
string that is code"""
    return os.path.join(
        label,

        text,
    )
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    # import, class, size, def, label, the two lines of text, and the four
    # non-blank lines of the call
    assert code_lines(FIXTURE) == 11


def test_prints_one_line_a_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 11\nb 1\ntotal 12\n"
