"""Craft, rank, and analyze accidental wake-word triggers.

The package splits into focused modules:

* :mod:`triggercraft.lexicon` -- phone inventory and pronouncing dictionary
* :mod:`triggercraft.distance` -- weighted phone-level edit distance
* :mod:`triggercraft.weights` -- probe-based weight estimation
* :mod:`triggercraft.candidates` -- candidate generation, ranking, manifests
* :mod:`triggercraft.tuning` -- rank-based grid search and cross-validation
* :mod:`triggercraft.harness` -- measurement-log bookkeeping
* :mod:`triggercraft.workbench` -- the command-line entry point
"""

from .candidates import (
    Candidate,
    RankedList,
    Vocabulary,
    Voice,
    build_blocklist,
    dictionary_candidates,
    export_manifest,
    extract_ngrams,
    rank_candidates,
)
from .distance import (
    CostModel,
    DistanceBreakdown,
    ScaleFactors,
    WeightTable,
    align,
    distance_to_wakeword,
)
from .errors import TriggerCraftError
from .harness import (
    Adjudication,
    TriggerEvent,
    VerificationResult,
    adjudicate,
    bin_reproducibility,
    classify_activation,
    cohens_kappa,
    parse_event_log,
    summarize,
    verification_window,
)
from .lexicon import (
    PhoneInventory,
    PronouncingDictionary,
    WakeWordSpec,
    load_dictionary,
    parse_phone,
    phrase_phones,
)
from .tuning import (
    Grid,
    LabeledTrigger,
    TuningResult,
    cross_validate,
    filter_triggers,
    grid_search,
)
from .weights import (
    ProbePlan,
    ProbeScore,
    aggregate_weights,
    build_weight_table,
    load_weight_table,
    normalize_mean_one,
    sample_probe_words,
    store_weight_table,
)

__version__ = "0.1.0"
