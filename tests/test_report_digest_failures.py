"""``scripts/report_digests.py`` names why a corpus command failed."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"


def test_failed_command_shows_its_last_stderr_line(tmp_path):
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    missing = str(tmp_path / "missing.csv")
    argv = ["test", missing, "--x-columns", "x", "--y-columns", "y"]
    with pytest.raises(SystemExit) as failure:
        script.digest(argv)
    # The command, then the CLI's own line: the reason it exited 2.
    assert str(failure.value).startswith(f"exit 2: {' '.join(argv)}: error: cannot read {missing}: ")
