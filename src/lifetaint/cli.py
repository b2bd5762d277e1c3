"""Batch driver: load models, apps and config, run the m-escalating analysis.

The models and the configuration are loaded once per process while their
files hold the same bytes: `run` keeps the last ones it loaded, with the
paths and plans derived from them, for the next batch.  That saves work
only where a process calls `run` more than once (the benchmark's pass
loop); the `lifetaint` command calls it once.

Per app, each component's permutation units are built once, and m is only
the depth of the walk over them: it starts at 1 and is raised by one while
nothing is found, m < m-max and some component has more than m units.  Any
warning stops the escalation for that app and the run moves on to the next.
"""

import gc
import numbers
import os
import sys
import time

from .analysis import AnalysisContext, analyze_component, load_config
from .cfg import build_cfg, remove_back_edges, to_dot
from .detectors import Report, dedup_warnings, render_report
from .errors import ConfigError, LifetaintError
from .ir import load_app
from .lifecycle import load_model
from .sequences import build_plan, receiver_plan

# generation 0's threshold while a batch runs (`run`)
BATCH_GC_THRESHOLD = 100_000


class RunConfig:
    def __init__(self, app_paths, models_dir=None, config_path=None, m_max=2,
                 budget_secs=600.0, jobs=1, fmt="json", dump_cfg=False, out=None):
        # a str would be iterated as one path per character
        if not isinstance(app_paths, (list, tuple)) or not all(
                isinstance(path, (str, os.PathLike)) for path in app_paths):
            raise ConfigError("app paths must be a list of paths")
        for name, path in (("models directory", models_dir), ("config path", config_path)):
            # an int would be read as a file descriptor, and closed
            if path is not None and not isinstance(path, (str, os.PathLike)):
                raise ConfigError("%s must be a path" % name)
        # a bool is an int, and would count as 0 or 1
        if not isinstance(m_max, int) or isinstance(m_max, bool):
            raise ConfigError("m-max must be an integer")
        if m_max < 1:
            raise ConfigError("m-max must be >= 1")
        if not isinstance(budget_secs, numbers.Real) or isinstance(budget_secs, bool):
            raise ConfigError("budget-secs must be a number")
        if not budget_secs > 0:
            raise ConfigError("budget-secs must be > 0")
        if fmt not in ("json", "table"):
            raise ConfigError("format must be json or table")
        if not isinstance(jobs, int) or isinstance(jobs, bool):
            raise ConfigError("jobs must be an integer")
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        self.app_paths = app_paths
        self.models_dir = models_dir
        self.config_path = config_path
        self.m_max = m_max
        self.budget_secs = budget_secs
        self.jobs = jobs
        self.fmt = fmt
        self.dump_cfg = dump_cfg
        self.out = out  # stream; defaults to stdout


def _data_path(*parts):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", *parts)


def _model_paths(models_dir):
    base = _data_path("models") if models_dir is None else models_dir
    return {kind: os.path.join(base, fname)
            for kind, fname in (("ACTIVITY", "activity.json"), ("SERVICE", "service.json"))}


def load_models(models_dir=None):
    """The bundled (or overridden) activity and service machines."""
    if models_dir is not None and not os.path.isdir(models_dir):
        raise ConfigError("models directory %r does not exist" % models_dir)
    return {kind: load_model(path) for kind, path in _model_paths(models_dir).items()}


def default_config():
    return load_config(_data_path("config", "default_config.json"))


# what `_kept_load` keeps: key -> (its files' paths and bytes, loaded value)
_kept = {}


def _file_bytes(paths):
    stamp = []
    try:
        for path in paths:
            with open(path, "rb") as fh:
                stamp.append((path, fh.read()))
    except (OSError, ValueError):
        return None  # the loader reports it
    return stamp


def _kept_load(key, paths, load):
    """load(), or what it gave the last run while each file in `paths`
    holds the same bytes as then; a load that fails keeps nothing."""
    stamp = _file_bytes(paths)
    kept = _kept.pop(key, None)
    if kept is None or kept[0] != stamp:
        kept = (stamp, load())
        # a file rewritten while it loaded may not hold what was stamped
        if stamp is None or _file_bytes(paths) != stamp:
            return kept[1]
    _kept[key] = kept
    return kept[1]


def analyze_app(app, models, config, m_max=2, budget_secs=600.0, clock=time.monotonic):
    """Escalating analysis of one app; returns its Report."""
    started = clock()
    ctx = AnalysisContext(app, config, budget_secs, clock)
    plans = [(component, receiver_plan(component) if component.kind == "RECEIVER"
              else build_plan(models[component.kind], component))
             for component in app.components]
    m_reached = 0
    for m in range(1, m_max + 1):
        # a level runs the components with at least m units; a warning, the
        # budget or a level with no such component ends the escalation
        plans = [(component, plan) for component, plan in plans if len(plan.units) >= m]
        if not plans:
            break
        m_reached = m
        for component, plan in plans:
            analyze_component(app, component, plan, m, ctx)
            if ctx.killed:
                break
        if ctx.warnings or ctx.killed:
            break
    return Report(
        app.app_id,
        dedup_warnings(ctx.warnings),
        m_reached,
        ctx.sequences_analyzed,
        clock() - started,
        finished=not ctx.killed,
    )


def _dump_cfgs(app, out):
    for klass in app.classes:
        for m in klass.methods:
            out.write(to_dot(remove_back_edges(build_cfg(m))))
            out.write("\n")


def run(config):
    """Run the batch; exit status 0, or 2 if any app was killed, 1 on bad config."""
    out = config.out if config.out is not None else sys.stdout
    try:
        models = _kept_load("models", _model_paths(config.models_dir).values(),
                            lambda: load_models(config.models_dir))
        config_path = config.config_path or _data_path("config", "default_config.json")
        ss_config = _kept_load("config", (config_path,), lambda: load_config(config_path))
    except (LifetaintError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1

    # apps run one after another, in input order, whatever config.jobs says:
    # under the interpreter lock, threads add only their own overhead.
    # Neither the analysis nor the rendering makes reference cycles
    # (tests/test_garbage.py), so each app's heap is freed once its report
    # is written.  A young collection would find nothing, so the batch runs
    # with generation 0's threshold raised, and gives the caller's
    # thresholds back however it ends
    thresholds = gc.get_threshold()
    gc.set_threshold(BATCH_GC_THRESHOLD, *thresholds[1:])
    try:
        any_killed = False
        for path in config.app_paths:
            app = None
            try:
                app = load_app(path)
                report = analyze_app(app, models, ss_config, config.m_max,
                                     config.budget_secs)
            except Exception as exc:
                # whatever goes wrong with one app becomes its report's error,
                # and the rest of the batch is still analyzed
                error = str(exc) if isinstance(exc, LifetaintError) else (
                    "%s: %s" % (type(exc).__name__, exc))
                report = Report(app.app_id if app is not None else os.path.basename(path),
                                [], 0, 0, 0.0, True, error=error)
            if config.dump_cfg and app is not None:
                _dump_cfgs(app, out)
            out.write(render_report(report, config.fmt))
            out.write("\n")
            any_killed = any_killed or not report.finished
        return 2 if any_killed else 0
    finally:
        gc.set_threshold(*thresholds)


def main(argv=None):
    import argparse

    # each dest is a RunConfig parameter, and a flag left out is left out of
    # the namespace, so RunConfig's defaults are the only ones
    parser = argparse.ArgumentParser(
        prog="lifetaint",
        description="Life-cycle-aware static taint analysis over the mini bytecode IR",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--app", action="append", required=True, metavar="PATH",
                        dest="app_paths", help="app IR file; repeat for several apps")
    parser.add_argument("--models", metavar="DIR", dest="models_dir",
                        help="directory with activity.json/service.json (default: bundled)")
    parser.add_argument("--config", metavar="PATH", dest="config_path",
                        help="source/sink configuration (default: bundled)")
    parser.add_argument("--m-max", type=int, metavar="N")
    parser.add_argument("--budget-secs", type=float, metavar="N")
    parser.add_argument("--format", choices=("json", "table"), dest="fmt")
    parser.add_argument("--jobs", type=int, metavar="N")
    parser.add_argument("--dump-cfg", action="store_true",
                        help="emit de-looped CFGs in DOT before each report")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig(**vars(args))
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    try:
        status = run(cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`lifetaint ... | head`): end quietly, with
        # stdout on os.devnull so that the interpreter's last flush of the
        # unwritten reports cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status
