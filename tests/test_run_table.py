"""scripts/run_table.py: the headline table script writes what `ddrollout
table` writes for the same instance and horizon."""

import importlib.util
from pathlib import Path

from ddrollout.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("run_table", ROOT / "scripts" / "run_table.py")
run_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_table)


def test_the_script_writes_the_tables_the_cli_writes(capsys, tmp_path):
    script_dir, cli_dir = tmp_path / "script", tmp_path / "cli"
    assert run_table.main(["--instance", "tsp", "--horizon", "40",
                           "--out-dir", str(script_dir)]) == 0
    assert main(["table", "--instance", "tsp", "--horizon", "40", "--out-dir", str(cli_dir)]) == 0
    capsys.readouterr()
    for name in ("table.txt", "table.csv"):
        assert (script_dir / "tsp" / name).read_bytes() == (cli_dir / name).read_bytes()
