"""Run the README's CLI examples through the installed `refleq` console script.

Each command runs as its own process (so the argument parser is built
afresh) in an empty directory, and the sha256 of its stdout and of every
file it writes must match the digests that test_readme_outputs.py records
for the in-process `cli.run`.  Needs `refleq` on PATH:

    pip install -e . --no-build-isolation
    python tests/check_readme_console.py

Exits 1 and names each command whose outputs differ, or the console
script if it is not on PATH.
"""

import hashlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_readme_outputs import README_COMMANDS  # noqa: E402


def main() -> int:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## CLI examples\n\n```\n(.*?)```", readme, re.DOTALL | re.MULTILINE)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("refleq ")]
    recorded = {tuple(argv): digests for argv, digests in README_COMMANDS.values()}
    if shutil.which("refleq") is None:
        print("console script `refleq` not found on PATH")
        return 1
    failed = 0
    for command in commands:
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(command, cwd=tmp, capture_output=True)
            got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in Path(tmp).iterdir()}
        if proc.stdout:
            got["stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        ok = proc.returncode == 0 and not proc.stderr and got == recorded.get(tuple(command[1:]))
        print(("ok  " if ok else "FAIL") + " " + shlex.join(command))
        if not ok:
            print(f"     exit {proc.returncode}, stderr {proc.stderr.decode()!r}, digests {got}")
            failed += 1
    print(f"{len(commands) - failed} of {len(commands)} README commands match their recorded digests")
    return 1 if failed or not commands else 0


if __name__ == "__main__":
    sys.exit(main())
