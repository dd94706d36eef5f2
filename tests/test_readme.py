import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_the_readme_quickstart_runs(capsys):
    # the first python block of README.md is the library quickstart; an API change must not leave it stale
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quickstart"})
    printed = capsys.readouterr().out.splitlines()
    assert printed and "nan" not in " ".join(printed).lower()
