"""Fresh-interpreter entry points the benchmark times from outside.

    python3 perfbench/child.py setup WORKDIR   import zenojc.cli, parse every WORKDIR/cfg_*.txt
    python3 perfbench/child.py pass WORKDIR    run every command in WORKDIR/commands.json once

Exit status 0 means every parse succeeded, or every command returned 0.
Before exiting, the child writes its peak resident set (VmHWM, in kB) to
WORKDIR/peak_rss_kb.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    mode, workdir = argv[0], Path(argv[1])
    import zenojc.cli

    status = 0
    if mode == "setup":
        for path in sorted(workdir.glob("cfg_*.txt")):
            zenojc.cli.parse_config(path.read_text(encoding="utf-8"))
    else:
        for command in json.loads((workdir / "commands.json").read_text(encoding="utf-8")):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = zenojc.cli.main(command)
            status = status or rc
    status_text = Path("/proc/self/status").read_text()
    peak_kb = next(line.split()[1] for line in status_text.splitlines() if line.startswith("VmHWM:"))
    (workdir / "peak_rss_kb").write_text(peak_kb)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
