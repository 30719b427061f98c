"""The package stays stdlib-only at import time.

``pyproject.toml`` declares ``dependencies = []``.  Importing numpy
would also cost every process (CLI, daemon, corpus workers) a large
share of its start-up time and peak RSS, so the entry-point modules
must not pull it in, even when it happens to be installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_entry_points_do_not_import_numpy():
    code = (
        "import sys\n"
        "import repro, repro.serve.daemon, repro.qa.corpus\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
