"""Event-based failure prediction for distributed business processes."""

from .events import (
    FAIL_STATE,
    Event,
    EventCatalog,
    EventKind,
    EventTrace,
    EventType,
    FieldKind,
    Outcome,
    Scenario,
    Visibility,
    catalog_from_traces,
    filter_visibility,
)
from .evaluation import (
    ConfusionMatrix,
    MetricReport,
    PipelineConfig,
    cross_validate,
    evaluate_split,
    metrics,
    sweep,
)
from .model import ProcessModel, current_step, mine_model, read_model, write_model
from .predictors import Classifier, FrequencyModel
from .recurrent import RecurrentModel, encode_trace
from .runtime import Bus, PredictionEvent, replay
from .synthesis import (
    CollaborationSpec,
    FaultPlan,
    default_fault_plan,
    default_spec,
    generate,
    inject_faults,
    minimal_spec,
    read_spec,
    write_spec,
)
from .traversal import (
    FailureEstimate,
    OutcomePath,
    TraversalLimits,
    TraversalResult,
    classify_instance,
    failure_probability,
    traverse,
)
from .xes import ParsedLog, read_xes, write_xes

__version__ = "0.1.0"
