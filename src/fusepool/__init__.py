"""fusepool: diversity-optimized LLM sub-ensemble selection and learned fusion."""

__version__ = "0.1.0"  # first, so that submodules can read it while the package loads

from .answers import (
    ChoiceDistribution,
    SolutionSet,
    build_final_solution_set,
    canonical_answer,
    model_distribution,
)
from .corpus import (
    Corpus,
    EpisodeRecord,
    RawPass,
    SchemaError,
    SplitSpec,
    TaskKind,
    load_corpus,
    save_corpus,
    split,
)
from .diversity import (
    FailureMatrix,
    FocalScore,
    failure_matrix,
    failure_vector,
    focal_diversity,
    focal_negative_correlation,
)
from .fusion import (
    FusionParameters,
    TrainConfig,
    forward,
    init_params,
    loss_and_grad,
    predict,
    train,
)
from .harvest import EndpointConfig, PromptTemplate, extract_mcq_choice, extract_oeq_answer, harvest
from .pruning import (
    EnsembleCandidate,
    GaConfig,
    brute_force_prune,
    candidate_count,
    enumerate_candidates,
    fitness,
    ga_prune,
    search,
)
from .summary_prep import (
    AttentionMaskSpec,
    SerializedInput,
    build_attention_mask,
    receptive_field,
    serialize_inputs,
)
