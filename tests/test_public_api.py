"""The documented API exists: every exported name, and the README example."""

import os
import re

import stochinv

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_every_exported_name_resolves():
    missing = [name for name in stochinv.__all__ if not hasattr(stochinv, name)]
    assert missing == []


def test_readme_quick_start_runs():
    with open(README) as handle:
        text = handle.read()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
