"""lifetaint: life-cycle-aware static taint analysis for a mini bytecode IR."""

__version__ = "0.1.0"

from .analysis import AnalysisConfig, AnalysisContext, analyze_component, load_config
from .cli import analyze_app, default_config, load_models
from .detectors import Report, Warning, dedup_warnings, render_report
from .ir import AppModel, load_app, resolve_method
from .lifecycle import LifecycleModel, load_model
from .sequences import PermutationPlan, PermutationUnit, build_plan, generate_m_way

__all__ = [
    "AnalysisConfig", "AnalysisContext", "AppModel", "LifecycleModel",
    "PermutationPlan", "PermutationUnit", "Report", "Warning", "analyze_app",
    "analyze_component", "build_plan", "dedup_warnings", "default_config",
    "generate_m_way", "load_app", "load_config", "load_model", "load_models",
    "render_report", "resolve_method",
]
