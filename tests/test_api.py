"""The package's public names, and no code in `src/` that only tests read.

Every top-level function, class or constant of a `lifetaint` module must be
named again somewhere in `src/lifetaint` (outside `__init__.py`, whose
re-exports do not count as a use) or in `perfbench/`, whose tracer patches
engine functions by name.  Reference oracles that only tests call live in
`tests/oracles.py`.
"""

import ast
import os
import re

import lifetaint

from conftest import ROOT

SRC = os.path.join(ROOT, "src", "lifetaint")
PERFBENCH = os.path.join(ROOT, "perfbench")

PUBLIC = [
    "AnalysisConfig", "AnalysisContext", "AppModel", "LifecycleModel",
    "PermutationPlan", "PermutationUnit", "Report", "Warning", "analyze_app",
    "analyze_component", "build_plan", "dedup_warnings", "default_config",
    "generate_m_way", "load_app", "load_config", "load_model", "load_models",
    "render_report", "resolve_method",
]


def sources(directory):
    """{file name: text} of the directory's Python files, but `__init__.py`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def top_level_names(text):
    """The functions, classes and constants a module defines at top level."""
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_exports():
    assert lifetaint.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(lifetaint, name), name


def test_every_top_level_name_is_read():
    modules = sources(SRC)
    readers = list(modules.values()) + list(sources(PERFBENCH).values())
    unread = []
    for module, text in modules.items():
        for name in top_level_names(text):
            word = re.compile(r"\b%s\b" % re.escape(name))
            # the definition itself is one occurrence
            if sum(len(word.findall(t)) for t in readers) < 2:
                unread.append("%s:%s" % (module, name))
    assert unread == []
