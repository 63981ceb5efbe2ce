import re
from pathlib import Path

import ringqed
from ringqed import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_names_the_namespace(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out
    # every name the package exports resolves and is one the README documents
    for name in ringqed.__all__:
        getattr(ringqed, name)
        assert name == "__version__" or "`%s`" % name in text


def test_readme_command_table_names_every_command():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` +\|", text, flags=re.MULTILINE)
    assert rows == list(cli.COMMANDS)
