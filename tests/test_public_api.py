"""The documented API exists: every exported name, and the README example."""

import os
import re

import pytest

import stochinv
from conftest import scipy_modules_after

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_every_exported_name_resolves():
    missing = [name for name in stochinv.__all__ if not hasattr(stochinv, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["stochinv", "stochinv.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == set()


def test_readme_quick_start_runs():
    with open(README) as handle:
        text = handle.read()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
