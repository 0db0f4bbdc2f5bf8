"""Import-layering contract, enforced without external tooling.

The core packages form strict layers — each may import only from layers
below it::

    util -> sim -> net -> rpc -> obs -> gcs -> pbs -> joshua

CI additionally runs ``lint-imports`` (import-linter) against the same
contract declared in ``pyproject.toml``; this AST-based test keeps the
rule enforceable in environments where that tool is not installed, and
catches function-local imports too (import-linter's default mode does as
well, but a vendored fallback must not be weaker than the real gate).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Layer order, lowest first. A module in layer i may import repro.<layer j>
#: only for j <= i. Packages not listed (cluster, pvfs, faults, bench, cli,
#: workload, …) sit above the stack and are unconstrained.
LAYERS = ["util", "sim", "net", "rpc", "obs", "gcs", "pbs", "joshua"]
RANK = {name: index for index, name in enumerate(LAYERS)}


def _imported_repro_packages(path: Path):
    """Top-level repro subpackages imported anywhere in *path* (including
    inside functions — lazy imports must respect layering too)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                parts = node.module.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1], node.lineno


def test_layered_imports():
    violations = []
    for layer in LAYERS:
        package_dir = SRC / layer
        assert package_dir.is_dir(), f"expected layer package {package_dir}"
        for path in sorted(package_dir.rglob("*.py")):
            for imported, lineno in _imported_repro_packages(path):
                if imported in RANK and RANK[imported] > RANK[layer]:
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{lineno} "
                        f"(layer '{layer}') imports repro.{imported} "
                        f"(higher layer)"
                    )
    assert not violations, "layering contract violated:\n" + "\n".join(violations)


#: Mirrors the ``forbidden`` contract in ``pyproject.toml``: the replication
#: core stays resource-agnostic — every PBS specific lives in the PBS driver.
CORE_MODULES = ["joshua/shard.py", "joshua/executor.py", "joshua/xfer.py"]


def test_replication_core_does_not_import_pbs():
    violations = [
        f"{module}:{lineno} imports repro.pbs"
        for module in CORE_MODULES
        for imported, lineno in _imported_repro_packages(SRC / module)
        if imported == "pbs"
    ]
    assert not violations, "replication core imports PBS:\n" + "\n".join(violations)


def test_all_layers_have_modules():
    """Guard against the contract silently checking an empty package."""
    for layer in LAYERS:
        modules = list((SRC / layer).rglob("*.py"))
        assert modules, f"layer {layer} has no modules"
