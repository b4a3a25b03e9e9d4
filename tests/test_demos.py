import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dotgates import GateSpec, PulseSchedule, array_from_json

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def run_python(args):
    # demos import dotgates from the source tree, installed or not; warnings
    # are errors there too, as pyproject's filterwarnings makes them in-process
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True, text=True, timeout=120,
        env=env,
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


def test_readme_file_formats_parse():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### File formats", 1)[1].split("\n## ", 1)[0]
    array_block, gate_block, schedule_block = re.findall(r"```json\n(.*?)```", section, re.DOTALL)
    array = array_from_json(array_block)
    decoder, rest, gates = json.JSONDecoder(), gate_block.strip(), []
    while rest:  # the gate block holds one document per form
        doc, end = decoder.raw_decode(rest)
        gates.append(GateSpec.from_json(doc))
        rest = rest[end:].strip()
    assert len(gates) == 2 and gates[0].expand(array.n_dots).values.shape == (8,)
    assert len(PulseSchedule.from_json(schedule_block, array.n_dots).stages) == 2
