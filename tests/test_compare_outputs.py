import importlib.util
import io
import subprocess
import tarfile
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _archive() -> bytes:
    """A tar of one empty `scripts` directory."""
    entry = tarfile.TarInfo("scripts")
    entry.type, entry.mode = tarfile.DIRTYPE, 0o755
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        tar.addfile(entry)
    return buffer.getvalue()


def _fake_subprocess(cmp_code: int, report_code: int, dump_code: int = 0):
    """`subprocess` as `compare_outputs` uses it, without a dump: `git archive`
    gives a tree of an empty `scripts` directory, each dump writes an empty
    file and exits ``dump_code``, `cmp` exits ``cmp_code`` and
    `compare_dumps.py` ``report_code``; the commands run are recorded."""
    ran = []

    def run(cmd, **kwargs):
        ran.append(cmd[0] if cmd[0] in ("git", "cmp") else Path(cmd[1]).name)
        code = {"git": 0, "cmp": cmp_code}.get(cmd[0], report_code)
        return subprocess.CompletedProcess(cmd, code, stdout=_archive(), stderr=b"")

    def popen(cmd, cwd):
        Path(cmd[2]).write_text("")
        ran.append("dump")
        return SimpleNamespace(wait=lambda: dump_code, kill=lambda: None)

    return SimpleNamespace(run=run, Popen=popen), ran


@pytest.mark.parametrize("cmp_code, report_code, expected", [
    (0, None, 0),  # identical dumps: no report
    (1, 0, 1),  # only numbers moved
    (1, 1, 3),  # a verdict, regime, coalition or other text moved
    (1, 2, 2),  # the report itself failed
], ids=["identical", "numbers", "more", "report-error"])
def test_exit_code_passes_on_the_dump_comparison(monkeypatch, cmp_code, report_code, expected):
    fake, ran = _fake_subprocess(cmp_code, report_code)
    monkeypatch.setattr(compare_outputs, "subprocess", fake)
    assert compare_outputs.main(["compare_outputs.py", "REV"]) == expected
    assert ran == ["git", "dump", "dump", "cmp"] + (["compare_dumps.py"] if cmp_code else [])


def test_failed_dump_exits_two(monkeypatch):
    fake, ran = _fake_subprocess(0, 0, dump_code=1)
    monkeypatch.setattr(compare_outputs, "subprocess", fake)
    assert compare_outputs.main(["compare_outputs.py", "REV"]) == 2
    assert ran == ["git", "dump", "dump"]


@pytest.mark.parametrize("argv", [["compare_outputs.py"], ["compare_outputs.py", "A", "B"]])
def test_wrong_argument_count_is_a_usage_error(argv, capsys):
    assert compare_outputs.main(argv) == 2
    assert "compare_outputs.py REV" in capsys.readouterr().err


def test_unknown_revision_is_a_usage_error():
    assert compare_outputs.main(["compare_outputs.py", "no-such-revision"]) == 2
