"""RSS radiomap construction and WkNN indoor positioning toolkit.

The offline phase calibrates a multi-wall path-loss model from a sparse RSS
survey and synthesizes a dense virtual fingerprint database; the online phase
estimates positions with a weighted k-nearest-neighbors rule whose k follows
from the database's spatial density. An evaluation harness and a synthetic
world simulator reproduce the standard accuracy procedures end to end.
"""

from .errors import (
    DegenerateFitError,
    GeometryError,
    InputError,
    InsufficientDataError,
    RadiolocError,
)
from .evaluation import (
    EvalWorld,
    GainReport,
    KestReport,
    PositioningReport,
    PredictionReport,
    build_world,
    emit_report,
    emit_report_pair,
    load_report,
    run_kest_sweep,
    run_positioning_sweep,
    run_prediction_analysis,
)
from .fitting import (
    FitResult,
    FitStrategy,
    MeasurementRecord,
    MeasurementSet,
    StrategyKind,
    fit,
    load_measurements,
    save_measurements,
)
from .floorplan import (
    Bounds,
    Floorplan,
    ObstacleFamily,
    ObstructionCount,
    PlanarObstacle,
    Point3,
    count_obstructions,
    load_floorplan,
    save_floorplan,
)
from .positioning import (
    PositionEstimate,
    WknnConfig,
    find_k_opt,
    k_est,
    k_est_from_counts,
    locate,
    locate_many,
    similarity,
)
from .propagation import (
    AccessPoint,
    LinkTable,
    ModelKind,
    PropagationParams,
    load_access_points,
    load_params,
    predict_rss,
    predict_rss_many,
    save_access_points,
)
from .radiomap import (
    DETECTION_FLOOR_DBM,
    NOT_DETECTED_DBM,
    Fingerprint,
    Radiomap,
    RpArrays,
    RpKind,
    build_real_fingerprints,
    generate_virtual_fingerprints,
    load_radiomap,
    place_virtual_rps,
    save_radiomap,
    select_rps,
)
from .simulator import (
    NoiseConfig,
    ScenarioPreset,
    TestPoint,
    WorldSpec,
    grid_rp_positions,
    make_world,
    simulate_campaign,
    template_info,
)

__version__ = "0.1.0"
