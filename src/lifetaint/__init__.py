"""lifetaint: life-cycle-aware static taint analysis for a mini bytecode IR."""

__version__ = "0.1.0"

from .analysis import AnalysisConfig, AnalysisContext, analyze_component, load_config
from .cli import analyze_app, default_config, load_models
from .detectors import Report, Warning, dedup_warnings, render_report
from .ir import AppModel, load_app, resolve_method
from .lifecycle import (
    EventSequence, LifecycleModel, callbacks_for_event, derive_event_sequences,
    load_model, replay_events,
)
from .sequences import (
    CallbackSequence, PermutationPlan, PermutationUnit,
    build_plan, derive_callback_sequences, generate_m_way,
)

__all__ = [
    "AnalysisConfig", "AnalysisContext", "AppModel", "CallbackSequence",
    "EventSequence", "LifecycleModel", "PermutationPlan", "PermutationUnit",
    "Report", "Warning", "analyze_app", "analyze_component",
    "build_plan", "callbacks_for_event", "dedup_warnings", "default_config",
    "derive_callback_sequences", "derive_event_sequences", "generate_m_way",
    "load_app", "load_config", "load_model", "load_models", "render_report",
    "replay_events", "resolve_method",
]
