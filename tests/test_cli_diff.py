"""The case table of tools/cli_diff.py, run against this tree only: every
case exits 0, 1 or 2, and none prints a traceback."""

import importlib.util
from pathlib import Path

import unitbpe

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"


def test_every_case_exits_cleanly(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    cli_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_diff)
    src = Path(unitbpe.__file__).resolve().parents[1]
    results = cli_diff.run_table(src, cli_diff.write_inputs(src, tmp_path / "inputs"), tmp_path)
    assert len(results) == len(cli_diff.CASES)
    assert {name: r.code for name, r in results.items() if r.code not in (0, 1, 2)} == {}
    assert [name for name, r in results.items() if b"Traceback" in r.stderr] == []
