"""Run one adamqlr CLI command in a fresh process and report on it.

    python3 perfbench/probe.py train --config cfg.json --out records.jsonl

The last line printed is JSON: the command's exit code and printed status
line, the monotonic clock when it returned, and the process's peak resident
memory. The parent reads its own monotonic clock before spawning, so the
difference is the time from process start to the command's return.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adamqlr.bench import cli  # noqa: E402

if __name__ == "__main__":
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(sys.argv[1:])
    t_end = time.monotonic()
    print(json.dumps({
        "code": code,
        "printed": printed.getvalue(),
        "t_end": t_end,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
