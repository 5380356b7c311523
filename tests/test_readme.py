"""The README's examples run as documented: the Python API block on numpy
alone, and the command-line block with its study config."""

import os
import re
import subprocess
import sys

import snowball_sbm

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## section``."""
    with open(README) as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def python_api_block() -> str:
    return readme_block("Python API", "python")


def test_python_api_example_runs_without_scipy():
    """Run the block in a fresh interpreter in which importing scipy fails."""
    code = "import sys\nsys.modules['scipy'] = None\n" + python_api_block()
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    n_mean = float(result.stdout.split()[0])
    assert n_mean > 89  # above the initial sample of 89 units


def test_command_line_example_runs(tmp_path):
    """Run the command-line block in an empty directory, with ``snowball-sbm``
    as ``python -m snowball_sbm.cli`` and the README's study config as
    ``study.json``; every command must exit 0."""
    (tmp_path / "study.json").write_text(readme_block("Command-line usage", "json"))
    cli = f"{sys.executable} -m snowball_sbm.cli "
    script = readme_block("Command-line usage", "sh").replace("snowball-sbm ", cli)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(snowball_sbm.__file__)))
    env = {**os.environ, "PYTHONPATH": package_root}
    commands = [line for line in script.splitlines() if "snowball_sbm.cli" in line]
    assert len(commands) == 6
    result = subprocess.run(["sh", "-ec", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
