"""Hardware-free ring-oscillator PUF construction and evaluation toolkit."""

from .characterize import (
    CleanProfile,
    FrequencyProfile,
    characterize,
    export_profile_csv,
    ingest_csv,
    reject_erroneous,
)
from .chipmodel import (
    PRESETS,
    REFERENCE_ENV,
    ChipProfile,
    DeviceSpec,
    EnvCondition,
    FabricLayout,
    SliceClass,
    get_preset,
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
    randomize_placement,
    valid_kappas,
)
from .pipeline import PipelineConfig, bench, run_pipeline, sweep_kappa, sweep_m
from .puf import ResponseSet, generate_response, generate_responses, lfsr_sequence
from .select import (
    SelectionConfig,
    SelectionResult,
    batched_kmeans,
    improved_kmeans,
    min_pairwise_diff,
    relocate_centroids,
    seed_centroids,
)

__version__ = "0.1.0"
