"""Run the fenced ``python`` blocks of README.md, so the quick start stays true.

The blocks run in order in one namespace, with `RuntimeWarning` raised as
an error (numpy's `ComplexWarning` is one).
"""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_python_blocks_run(capsys):
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in BLOCKS:
            exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
