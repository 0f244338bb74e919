"""Check that this checkout's outputs are byte-identical to a revision's.

Run from anywhere inside the repository::

    python scripts/compare_outputs.py REV

The script extracts ``REV``'s committed files with ``git archive`` into a
temporary directory and copies this checkout's ``scripts/dump_outputs.py``
into it, so both sides run the same dump code. It then runs the two dumps,
``REV``'s program and this working tree's (uncommitted edits included), as
two concurrent processes and compares them with ``cmp``. When they differ
it prints ``scripts/compare_dumps.py OLD NEW``'s report of what moved and
passes on its verdict. Exit codes: 0 when the dumps are identical; 1 when
only numbers moved; 3 when anything else moved, such as a flipped oracle
verdict or a changed regime or coalition; 2 on a usage error, an unknown
revision, a failed dump or a failed report. The extracted tree and both
dumps are removed in every case, and the repository's worktree list is
never touched. Each dump takes about 100 s on one core.
"""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DUMP = Path("scripts", "dump_outputs.py")
# compare_dumps.py's exit code -> this script's: numbers only moved, or more
VERDICTS = {0: 1, 1: 3}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree, old, new = Path(tmp, "tree"), Path(tmp, "old.txt"), Path(tmp, "new.txt")
        archive = subprocess.run(["git", "archive", argv[1]], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(tree, filter="data")
        dumps = []
        try:
            (tree / DUMP).parent.mkdir(exist_ok=True)
            shutil.copyfile(ROOT / DUMP, tree / DUMP)
            dumps = [subprocess.Popen([sys.executable, str(DUMP), str(out)], cwd=cwd)
                     for cwd, out in ((tree, old), (ROOT, new))]
            if [proc.wait() for proc in dumps] != [0, 0]:
                print("a dump failed", file=sys.stderr)
                return 2
            if subprocess.run(["cmp", str(old), str(new)]).returncode == 0:
                print(f"outputs identical to {argv[1]} ({new.stat().st_size} bytes)")
                return 0
            report = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_dumps.py"),
                                     str(old), str(new)])
            return VERDICTS.get(report.returncode, 2)
        finally:
            for proc in dumps:
                proc.kill()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
