import json
import os
import pathlib
import subprocess
import sys

import pytest

from lifetaint import default_config, load_app, load_models

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def corpus_path(name):
    return os.path.join(CORPUS, name + ".app")


def corpus_app(name):
    return load_app(corpus_path(name))


def isolated_env():
    """The environment of a child process that runs this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_isolated(args, timeout=60):
    """Run `python args...` against this checkout's sources in a child
    process, so a call that never returns fails the test instead of hanging
    it (subprocess.TimeoutExpired)."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=isolated_env(), timeout=timeout)


def all_corpus_paths():
    return sorted(
        os.path.join(CORPUS, f) for f in os.listdir(CORPUS) if f.endswith(".app")
    )


@pytest.fixture(scope="session")
def models():
    return load_models()


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture()
def tmp_app(tmp_path):
    """Write an app dict to disk and return its path."""

    def write(doc, name="app.app"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


@pytest.fixture()
def cyclic_models_dir(tmp_path):
    """A --models directory whose activity machine reaches the transient
    cycle T1 -> T2 -> T1 through its first createActivity transition; the
    bundled createActivity transition still follows it."""
    from lifetaint.cli import _data_path

    base = pathlib.Path(_data_path("models"))
    doc = json.loads(base.joinpath("activity.json").read_text())
    doc["states"] += [{"name": "T1", "kind": "TRANSIENT"},
                      {"name": "T2", "kind": "TRANSIENT"}]
    doc["transitions"] = [
        {"from": "AndroidRobot", "to": "T1", "triggers": "createActivity", "callbacks": []},
        {"from": "T1", "to": "T2", "callbacks": []},
        {"from": "T2", "to": "T1", "callbacks": []},
    ] + doc["transitions"]
    (tmp_path / "activity.json").write_text(json.dumps(doc))
    (tmp_path / "service.json").write_text(base.joinpath("service.json").read_text())
    return str(tmp_path)
