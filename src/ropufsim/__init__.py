"""Hardware-free ring-oscillator PUF construction and evaluation toolkit."""

from .characterize import (
    CleanProfile,
    FrequencyProfile,
    characterize,
    export_profile_csv,
    profile_stats,
    reject_erroneous,
)
from .chipmodel import (
    PRESETS,
    REFERENCE_ENV,
    ChipProfile,
    DeviceSpec,
    EnvCondition,
    FabricSite,
    SliceClass,
    get_preset,
    ingest_csv,
    load_device_spec,
    synth_chip,
)
from .metrics import (
    EvalReport,
    hamming,
    min_entropy,
    reliability,
    uniqueness,
)
from .nist import NistParams, NistReport, run_suite
from .placement import (
    GroupAssignment,
    PlacementPlan,
    assign_groups,
    emit_constraints,
    parse_constraints,
    randomize_placement,
    valid_kappas,
)
from .pipeline import PipelineConfig, bench, run_pipeline, sweep_kappa
from .puf import ResponseSet, generate_response, generate_responses, lfsr_sequence
from .select import (
    SelectionConfig,
    SelectionResult,
    baseline_select,
    batched_kmeans,
    improved_kmeans,
    min_pairwise_diff,
    plain_kmeans,
    relocate_centroids,
    seed_centroids,
)

__version__ = "0.1.0"
