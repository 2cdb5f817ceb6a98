"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    pattern = r"^## Library quick start\n.*?^```python\n(.*?)^```"
    match = re.search(pattern, README.read_text(), re.S | re.M)
    assert match, "README has no python block under '## Library quick start'"
    return match.group(1)


def test_library_quick_start_runs():
    namespace: dict = {}
    exec(compile(quick_start_block(), str(README), "exec"), namespace)
    # the outcomes its comments promise
    assert namespace["result"].reject
    assert abs(namespace["result"].cp_index - 300) <= 10
    assert namespace["verdict"].alarm
    assert namespace["consumed"] <= 20
    assert list(namespace["verdicts"].alarm) == [False, True, False]
