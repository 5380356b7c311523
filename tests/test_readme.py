"""The README's Python API example runs as documented, on numpy alone."""

import os
import re
import subprocess
import sys

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_api_block() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example_runs_without_scipy():
    """Run the block in a fresh interpreter in which importing scipy fails."""
    code = "import sys\nsys.modules['scipy'] = None\n" + python_api_block()
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    n_mean = float(result.stdout.split()[0])
    assert n_mean > 89  # above the initial sample of 89 units
