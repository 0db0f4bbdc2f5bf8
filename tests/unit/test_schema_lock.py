"""The committed ``WIRE_SCHEMA.lock``: completeness and the R7 gate.

* the lockfile covers every record/enum the runtime registry knows, with
  field lists and fingerprints that match the live classes exactly (the
  static extraction and the runtime codec agree);
* the shipped tree is R7-clean;
* a planted breaking change (field removal in a fixture copy of
  ``gcs/messages.py``) fails ``repro lint`` and ``repro schema diff``, and
  both pass again after ``repro schema update`` — the acceptance workflow.
"""

import shutil
from pathlib import Path

import pytest

# Import every wire module so the shared registry is fully populated.
import repro.gcs.messages  # noqa: F401
import repro.joshua.wire  # noqa: F401
import repro.net.frames  # noqa: F401
import repro.pbs.wire  # noqa: F401
import repro.pvfs.metadata  # noqa: F401
import repro.pvfs.wire  # noqa: F401
import repro.rpc.wire  # noqa: F401
from repro.analysis import run_lint
from repro.analysis.schema import (
    extract_from_root,
    load_lockfile,
    lockfile_path,
)
from repro.cli import main
from repro.net.codec import WIRE

_PACKAGE = Path(repro.gcs.messages.__file__).resolve().parent.parent


class TestLockfileCompleteness:
    def test_lockfile_exists_and_matches_extraction(self):
        locked = load_lockfile(lockfile_path())
        assert locked is not None, "WIRE_SCHEMA.lock must be committed"
        current, _ = extract_from_root()
        assert locked == current, (
            "WIRE_SCHEMA.lock is stale — run `repro schema update`"
        )

    def test_every_runtime_record_is_locked_with_matching_shape(self):
        locked = load_lockfile(lockfile_path())
        # The registry is shared per interpreter and other *test* modules
        # may register payload types; the completeness claim is about the
        # package's own wire surface.
        runtime = {
            name: shape
            for name, shape in WIRE.record_shapes().items()
            if shape["module"].startswith("repro.")
        }
        assert len(runtime) > 60
        for name, shape in runtime.items():
            assert name in locked["records"], f"{name} missing from lockfile"
            entry = locked["records"][name]
            assert [f["name"] for f in entry["fields"]] == shape["fields"], name
            # Static AST fingerprint == runtime registration fingerprint.
            assert entry["fingerprint"] == shape["fingerprint"], name
            # A field the runtime can fill must be defaulted in the lock
            # and vice versa (the decode-tolerance promise is honest).
            locked_defaults = sorted(
                f["name"] for f in entry["fields"] if f["default"] is not None
            )
            assert locked_defaults == shape["defaults"], name

    def test_every_runtime_enum_is_locked(self):
        locked = load_lockfile(lockfile_path())
        runtime = {
            name: shape
            for name, shape in WIRE.enum_shapes().items()
            if shape["module"].startswith("repro.")
        }
        assert runtime, "no registered wire enums?"
        for name, shape in runtime.items():
            assert name in locked["enums"], f"{name} missing from lockfile"
            assert set(locked["enums"][name]["members"]) == set(
                shape["members"]
            ), name

    def test_shipped_tree_is_r7_clean(self):
        assert run_lint(rules=["R7"]) == []


@pytest.fixture
def planted(tmp_path):
    """A fixture copy of the package with a breaking change planted in
    gcs/messages.py: DataMsg loses its (undefaulted) trailing field."""
    root = tmp_path / "repro"
    shutil.copytree(
        _PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    target = root / "gcs" / "messages.py"
    source = target.read_text(encoding="utf-8")
    plant = "    service: str  # AGREED or SAFE\n    payload: Any\n"
    assert plant in source, "DataMsg layout changed — update the plant"
    target.write_text(
        source.replace(plant, "    service: str  # AGREED or SAFE\n"),
        encoding="utf-8",
    )
    return root


class TestPlantedBreakingChange:
    def test_lint_fails_then_passes_after_schema_update(self, planted, capsys):
        assert main(["lint", "--rule", "R7", "--root", str(planted)]) == 1
        out = capsys.readouterr().out
        assert "[breaking]" in out and "field-removed" in out
        assert "DataMsg" in out

        assert main(["schema", "update", "--root", str(planted)]) == 0
        assert main(["lint", "--rule", "R7", "--root", str(planted)]) == 0

    def test_schema_diff_renders_and_exits_nonzero(self, planted, capsys):
        assert main(["schema", "diff", "--root", str(planted)]) == 1
        out = capsys.readouterr().out
        assert "field-removed" in out and "breaking — review" in out

        assert main(["schema", "diff", "--root", str(planted), "--jsonl"]) == 1
        out = capsys.readouterr().out
        assert '"severity": "breaking"' in out

        assert main(["schema", "update", "--root", str(planted)]) == 0
        assert main(["schema", "diff", "--root", str(planted)]) == 0
        out = capsys.readouterr().out
        assert "lockfile matches the working tree" in out


class TestSchemaCli:
    def test_extract_prints_schema_json(self, capsys):
        assert main(["schema", "extract"]) == 0
        out = capsys.readouterr().out
        assert '"DataMsg"' in out and '"fingerprint"' in out

    def test_diff_clean_on_shipped_tree(self, capsys):
        assert main(["schema", "diff"]) == 0
        assert "lockfile matches" in capsys.readouterr().out

    def test_missing_lockfile_fails_diff_and_lint(self, tmp_path, capsys):
        root = tmp_path / "repro"
        shutil.copytree(
            _PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__")
        )
        (root / "WIRE_SCHEMA.lock").unlink()
        assert main(["schema", "diff", "--root", str(root)]) == 1
        assert "no lockfile" in capsys.readouterr().out
        assert main(["lint", "--rule", "R7", "--root", str(root)]) == 1
        assert "repro schema update" in capsys.readouterr().out


class TestIgnoresTable:
    def test_lists_every_directive_with_location_rule_and_reason(self, capsys):
        assert main(["lint", "--ignores"]) == 0
        out = capsys.readouterr().out
        # The shipped tree's known suppressions are all listed.
        assert "net/codec.py" in out and "[R3]" in out
        assert "active ignore directive(s)" in out
        # Every line carries a reason (the audit's purpose).
        rows = [line for line in out.splitlines() if "[R" in line]
        assert rows and all("] " in row and row.split("] ", 1)[1] for row in rows)
