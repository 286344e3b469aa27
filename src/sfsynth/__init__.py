"""Soundfield synthesis through irregular loudspeaker arrays.

Model-based (plane-wave decomposition) and pressure-matching driving
signals for circular and linear arrays, a convolutional compensator that
corrects model-based signals after array decimation, and NRE/SSIM
evaluation of the reproduced fields.
"""

from .acoustics import (
    FrequencyGrid,
    Source,
    green_matrix,
    herglotz_point_source,
    plane_wave_field,
    truncation_order,
)
from .bessel import hankel2_orders
from .compensator import (
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    compensate,
    loss,
    pack_driving,
    predict_control_pressure,
    train_compensator,
    unpack_driving,
)
from .config import ExperimentConfig, desk_config, full_config, load_config
from .datasets import (
    Dataset,
    DatasetRecord,
    SourceSplit,
    build_dataset,
    gen_sources_circular,
    gen_sources_linear,
)
from .evaluation import MetricSeries, SweepContext, nre, normalize_magnitude, ssim_global, sweep
from .experiment import ArtifactManifest, StageError, render_field, run_experiment
from .geometry import (
    ArrayGeometry,
    ListeningArea,
    PointSet,
    decimate_array,
    make_circular_array,
    make_linear_array,
    sample_control_points,
    sample_listening_grid,
)
from .network import ModelParams, compensator_layers, init_params
from .renderers import (
    PMOperator,
    mr_circular_driving,
    mr_linear_driving,
    pm_operator,
)

__version__ = "0.1.0"
