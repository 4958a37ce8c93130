"""Budget-aware answer selection from scored candidate pools.

The package covers the full loop: selection rules over verifier-scored
candidates (selection), the verifier's pairwise training objective
(ranking), analytic FLOPs and measured-latency cost models (costs),
bootstrap slate evaluation with budget-equalized curves (evaluate),
synthetic pool generation (synth), and the record format plus CLI
(records, cli).

`import verisel` loads core and records only. Every other public name and
submodule loads its home module on first access (PEP 562), and is looked
up there on every access, not kept here: a function swapped in its home
module is what `verisel.<name>` gives.
"""

from importlib import import_module

from .core import (
    NO_ANSWER_KEY,
    AnswerCluster,
    Candidate,
    EmptyPoolError,
    IngestError,
    Problem,
    TokenStats,
    VeriselError,
    canonicalize_answer,
    cluster_by_answer,
)
from .records import emit_report, ingest, ingest_stats, write_records

__version__ = "0.1.0"

# The public names loaded on first use, by home module.
_LAZY = {
    "costs": (
        "BUNDLED_LATENCY",
        "MODEL_PRESETS",
        "FlopsBreakdown",
        "LatencyTable",
        "ModelConfig",
        "flops_decode",
        "flops_disc_verification",
        "flops_generation",
        "flops_prefill",
        "latency_lookup",
        "pipeline_breakdown",
        "pipeline_flops",
    ),
    "evaluate": (
        "BootstrapReport",
        "BudgetPoint",
        "EvalConfig",
        "bootstrap_accuracy",
        "budget_curve",
        "crossover_threshold",
        "pass_at_n",
        "slate_rng",
    ),
    "ranking": (
        "ScoredGroup",
        "bt_loss",
        "bt_loss_gradient",
        "filter_learnable_groups",
        "group_from_problem",
        "score_margin",
    ),
    "selection": (
        "SelectionResult",
        "select_answer",
        "select_bon",
        "select_gpv",
        "select_pv",
        "select_sc",
        "select_wsc",
    ),
    "synth": ("SynthSpec", "generate_pool"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("cli", "core", "costs", "evaluate", "ranking", "records",
               "selection", "synth")

__all__ = [
    "NO_ANSWER_KEY",
    "AnswerCluster",
    "Candidate",
    "EmptyPoolError",
    "IngestError",
    "Problem",
    "TokenStats",
    "VeriselError",
    "canonicalize_answer",
    "cluster_by_answer",
    *_LAZY["costs"],
    *_LAZY["evaluate"],
    *_LAZY["ranking"],
    "emit_report",
    "ingest",
    "ingest_stats",
    "write_records",
    *_LAZY["selection"],
    *_LAZY["synth"],
    "__version__",
]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        return getattr(import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
