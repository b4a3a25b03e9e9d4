import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def run_python(args):
    # demos import dotgates from the source tree, installed or not
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    result = run_python([str(script)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
