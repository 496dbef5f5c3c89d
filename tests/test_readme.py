"""The README's Python examples run as written, in order, in one namespace.

Run as a script (``python tests/test_readme.py [README.md]``) it executes
the same blocks against whichever ``cocyclelab`` the interpreter imports,
such as an installed copy.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def run_blocks(path: Path = README) -> dict:
    namespace: dict = {"__name__": "__readme__"}
    for i, block in enumerate(python_blocks(path.read_text(encoding="utf-8"))):
        exec(compile(block, f"{path.name}, python block {i + 1}", "exec"), namespace)
    return namespace


def test_readme_python_blocks_run():
    namespace = run_blocks()
    # names bound by the first block and by the last one
    assert namespace["ok"][0]
    assert len(namespace["report"].rows) == 6


if __name__ == "__main__":
    run_blocks(Path(sys.argv[1]) if len(sys.argv) > 1 else README)
