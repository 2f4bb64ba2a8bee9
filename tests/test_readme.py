"""README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    """Each fenced python block of README (the library quick start) runs
    in a fresh namespace and prints what it promises: the reference
    allocation's crisp metrics, then a solve's feasibility flag."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("MetricSet(reliability=0.870")
    assert out[-1].startswith("True MetricSet(")
