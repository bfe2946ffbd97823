"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the example certifies an exact solution of df = A
    assert namespace["cert"].verdict
    assert capsys.readouterr().out.startswith("True ")
