"""Measure set-up in this fresh process and print it in seconds.

Set-up is what every lifetaint invocation pays before its first app: import
the package, load the bundled models and configuration, and derive the
life-cycle paths of both models.
"""

import os
import sys
import time

started = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import lifetaint  # noqa: E402
from lifetaint import lifecycle  # noqa: E402

models = lifetaint.load_models()
lifetaint.default_config()
for model in models.values():
    lifecycle.derive_paths(model)
print(time.perf_counter() - started)
