"""README's library example runs as written and its commands use only real flags,
so the API and the command line it documents stay."""

import os
import re
import subprocess
import sys
from pathlib import Path

import satsynth
from satsynth.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_with_every_warning_an_error():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = Path(satsynth.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# mode: analytic" in proc.stdout and "# mode: empirical" in proc.stdout


def test_command_line_section_uses_only_each_commands_flags():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = re.sub(r"\\\n\s*", " ", section).splitlines()  # join continuation lines
    commands = build_parser()._subparsers._group_actions[0].choices  # noqa: SLF001
    shown = set()
    for line in lines:
        match = re.match(r"satsynth (\S+)(.*)", line)
        if match:
            command, rest = match.group(1), match.group(2).split(" #", 1)[0]
            flags = set(commands[command]._option_string_actions)  # noqa: SLF001
            assert set(re.findall(r"--[\w-]+", rest)) <= flags, line
            shown.add(command)
    assert shown == set(commands)
