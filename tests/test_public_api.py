"""The top-level ``petrel`` names cover what the demos, README and benchmark use."""

import ast
import re
from pathlib import Path

import petrel
import petrel.cli  # the benchmark harness imports it the same way

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {p.stem for p in (ROOT / "src" / "petrel").glob("*.py")}


def names_reached_through_petrel(source: str) -> set[str]:
    """``from petrel import X`` and ``<...>.petrel.X`` / ``petrel.X`` attribute reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "petrel" and node.level == 0:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if owner_name in ("petrel", "_petrel"):
                names.add(node.attr)
    return names


def external_uses() -> dict[str, set[str]]:
    files = [*sorted((ROOT / "demos").glob("*.py")),
             ROOT / "perfbench" / "harness.py", ROOT / "perfbench" / "spans.py"]
    uses = {str(f.relative_to(ROOT)): names_reached_through_petrel(f.read_text()) for f in files}
    uses["README.md"] = set(re.findall(r"\bpetrel\.(\w+)", (ROOT / "README.md").read_text()))
    return uses


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from petrel import *", namespace)
    assert set(petrel.__all__) <= namespace.keys()
    assert len(set(petrel.__all__)) == len(petrel.__all__)


def test_every_external_use_resolves():
    uses = external_uses()
    assert uses["README.md"] >= {"EdgeCloudConfig", "derive_seed", "simulate", "summarize"}
    assert uses["perfbench/spans.py"] >= {"cli", "config", "engine", "schedulers"}
    for where, names in uses.items():
        for name in names:
            assert hasattr(petrel, name), f"{where} uses petrel.{name}, which is not bound"
            if name not in SUBMODULES and not name.startswith("__"):
                assert name in petrel.__all__, f"{where} uses petrel.{name}, not in __all__"
