"""What `import lifetaint` loads: the analysis needs none of the modules
below, and the CLI imports the ones it uses on first use."""

import json
import os

from conftest import ROOT, corpus_path, run_isolated

DEFERRED = ("dataclasses", "inspect", "argparse", "logging", "concurrent.futures")

SCRIPT = """
import json, sys
sys.path.insert(0, %(src)r)
import lifetaint
from lifetaint import cli, lifecycle

deferred = %(deferred)r
models = lifetaint.load_models()
lifetaint.default_config()
for model in models.values():
    lifecycle.derive_paths(model)
loaded = [name for name in deferred if name in sys.modules]
status = cli.main(["--app", %(app)r, "--jobs", "2"])
print(json.dumps([loaded, status, [name for name in deferred if name in sys.modules]]))
"""


def test_set_up_loads_no_deferred_module():
    # -S keeps site hooks, which may import any of them, out of the check
    script = SCRIPT % {"src": os.path.join(ROOT, "src"), "deferred": DEFERRED,
                       "app": corpus_path("motivating_example")}
    result = run_isolated(["-S", "-c", script])
    assert result.returncode == 0, result.stderr
    loaded, status, after = json.loads(result.stdout.splitlines()[-1])
    assert loaded == []
    assert status == 0
    # the CLI parses its arguments; --jobs 2 runs the apps serially, on no
    # thread pool, and the corpus app needs no logging
    assert "argparse" in after
    assert not {"logging", "concurrent.futures"} & set(after)
