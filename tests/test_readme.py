"""README's library example runs as written, so the API it documents stays."""

import os
import re
import subprocess
import sys
from pathlib import Path

import satsynth

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_with_every_warning_an_error():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = Path(satsynth.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# mode: analytic" in proc.stdout and "# mode: empirical" in proc.stdout
