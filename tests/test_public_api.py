"""The top-level package: README's library example and psbp.__all__."""

import re
from pathlib import Path

import psbp

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert namespace["grad"].mask.any()
    assert 0.0 <= namespace["mse_normalized"] < 1e-2


def test_every_exported_name_resolves():
    assert len(set(psbp.__all__)) == len(psbp.__all__)
    missing = [name for name in psbp.__all__ if not hasattr(psbp, name)]
    assert missing == []
