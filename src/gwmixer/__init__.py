"""gwmixer: spectral graph-wavelet mixing layers.

Learnable filter banks over normalized graph Laplacians mix token
features in the graph frequency domain, replacing dense self-attention.
Exact, truncated-spectrum, and Chebyshev evaluation paths share one set
of filters; gradients are hand written and finite-difference checked.
"""

from .bench import (
    BenchRecord,
    attention_baseline_forward,
    bench_csv,
    bench_scaling,
    fit_loglog_slope,
    make_attention_params,
)
from .blocks import (
    FeedForward,
    LayerTape,
    ModelTape,
    WaveletLayer,
    WaveletModel,
    build_feed_forward,
    build_model,
    layer_backward,
    layer_forward,
    load_checkpoint,
    model_backward,
    model_forward,
    model_params,
    save_checkpoint,
)
from .filterbank import (
    FilterBank,
    bank_responses,
    build_filter_bank,
    filter_eval,
    filter_eval_grad,
    spectrum_csv,
    wavelet_mix,
    wavelet_mix_backward,
)
from .graphs import (
    ConlluParseError,
    NormalizedLaplacian,
    TokenGraph,
    build_chain_graph,
    content_hash,
    graph_from_json,
    graph_to_json,
    normalized_laplacian,
    parse_conllu,
    symmetrize,
    to_conllu,
)
from .spectral import (
    EigenSystem,
    MixMode,
    NumericalError,
    SpectrumCache,
    apply_filter_exact,
    chebyshev_apply,
    chebyshev_fit,
    eigendecompose,
    gft,
    igft,
    parse_mix_mode,
)
from .tasks import TaskSample, TaskSpec, check_mode, fixed_samples, gen_task_batch, task_stream
from .training import (
    GradCheckReport,
    ScheduleConfig,
    TrainConfig,
    TrainState,
    adam_step,
    cross_entropy_loss,
    evaluate,
    grad_check,
    init_train_state,
    lr_at,
    metrics_csv,
    model_from_params,
    token_accuracy,
    train_loop,
)

__version__ = "0.1.0"
