"""README's library example runs as written, so the API it documents holds."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None
    code = block.group(1)
    for name in ("run_m_add", "threshold", "check_dst"):
        assert f"{name}(" in code
    exec(compile(code, str(README), "exec"), {})
