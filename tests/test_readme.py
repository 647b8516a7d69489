import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    '''The python code block under the README's "## Library example".'''
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    # executed verbatim, so the documented API cannot drift from the code
    exec(compile(library_example(), str(README), "exec"), {})
    eps = float(capsys.readouterr().out)
    assert 0.0 <= eps <= 1e-10
