"""README's code runs as it is written there."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    ideal, adjusted_fidelity, motional = (float(v) for v in printed.getvalue().split())
    assert 0.0 < ideal < 1.0
    assert 0.0 < adjusted_fidelity <= 1.0 - ideal
    assert 0.0 < motional < 1.0
