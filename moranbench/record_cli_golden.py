"""Rewrite cli_golden.json from the moran sources under src/.

    python3 moranbench/record_cli_golden.py

Run only when a change to the CLI's output is intended; the benchmark's cli
workload fails every op whose exit code, stdout or stderr differs from the
digest stored here.
"""

import json
import sys

from run import SRC, WORK, load_moran
from workloads import CLI_GOLDEN, Cli

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    cli = Cli(0, WORK)
    golden = cli.record_golden(load_moran())
    CLI_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(golden)} digests written to {CLI_GOLDEN}")
