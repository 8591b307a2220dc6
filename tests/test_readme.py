"""The README's examples run against the code as it is."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_and_scores():
    """The first python block under ``## Library`` runs and gives a score."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    score = namespace["score"]
    assert isinstance(score, float)
    assert math.isfinite(score)
