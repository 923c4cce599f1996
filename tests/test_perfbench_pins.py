"""perfbench/replay.py replays the build and query layers by calling
raysearch internals directly, but the suite never runs perfbench's own
tests. Pin every ``from raysearch... import name`` it contains, so a
refactor that renames or drops one fails here instead of silently
breaking the benchmark's traced replay."""

import ast
import importlib
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPLAY = os.path.join(REPO, "perfbench", "replay.py")


def _raysearch_imports() -> list[tuple[str, str]]:
    with open(REPLAY, encoding="utf-8") as f:
        tree = ast.parse(f.read(), REPLAY)
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.module + ".").startswith("raysearch.")
            for alias in node.names]


def _resolves(module: str, name: str) -> bool:
    """What ``from module import name`` would find: an attribute, or
    a submodule of that name."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_replay_raysearch_imports_resolve():
    pins = _raysearch_imports()
    assert len(pins) >= 15, pins  # the parse really found the pins
    missing = [f"{mod}.{name}" for mod, name in pins
               if not _resolves(mod, name)]
    assert not missing, missing
