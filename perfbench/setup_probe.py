"""Set-up a CLI user pays on every call: import powertalk, parse and validate a grid.

Run as ``python3 perfbench/setup_probe.py GRID.json``; exits 0 once the
document has been parsed and validated.  The benchmark times whole runs
of this script to measure ``setup_s`` from process start.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from powertalk import cli  # noqa: E402

with open(sys.argv[1]) as handle:
    cli.validate_grid(cli.parse_config(handle.read()).grid)
