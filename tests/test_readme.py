"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _library_example():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    code = _library_example()
    expected = [line.split("# ", 1)[1].strip()
                for line in code.splitlines()
                if line.startswith("print(") and "# " in line]
    assert expected == ["-2*b1^3 + 6*b1*b2 - 6*b3", "-z^3", "(1, 2, 4)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    assert out.getvalue().splitlines() == expected
