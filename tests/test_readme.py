"""The Python example in README.md runs as written against the package in
``src``, so an API change cannot leave it stale."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_example_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(), flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "test RMSE:" in proc.stdout
