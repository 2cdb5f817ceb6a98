"""Streaming change-point detection toolkit.

Offline (retrospective) and sequential CUSUM tests with simulated critical
values, multi change-point segmentation, EMA/MACD direction labelling, an
integrated train-then-monitor loop, and a grid-network attack-detection
simulator built on the sequential detector.
"""

from .critvals import (
    CritVal,
    CritValKind,
    CritValRequest,
    MonteCarloProvider,
    build_table,
    compute_critval,
    simulate_brownian_motion,
)
from .errors import (
    CpstreamError,
    CsvFormatError,
    DetectorStoppedError,
    InsufficientTrainingError,
    NonFiniteSampleError,
)
from .longrun import autocov, bartlett_bandwidth, bartlett_lrv
from .monitor import Action, ChangeEvent, MonitorConfig, run_monitor, select_training
from .offline import ChangePointSet, OfflineTestResult, cusum_path, offline_test, segment
from .online import (
    DetectorKind,
    OnlineDetectorState,
    Verdict,
    Verdicts,
    boundary_weight,
    run_batch,
    step,
    train,
)
from .timeseries import SeriesSegment, TimeSeries, load_csv, sample_mean, save_csv
from .trend import (
    Direction,
    MacdParams,
    TrendMemo,
    TrendMode,
    TrendVerdict,
    ema,
    macd,
    trend_interval,
    trend_point,
    trend_series,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data model
    "TimeSeries",
    "SeriesSegment",
    "load_csv",
    "save_csv",
    "sample_mean",
    # long-run covariance
    "autocov",
    "bartlett_bandwidth",
    "bartlett_lrv",
    # critical values
    "CritValKind",
    "CritValRequest",
    "CritVal",
    "MonteCarloProvider",
    "simulate_brownian_motion",
    "compute_critval",
    "build_table",
    # offline detection
    "OfflineTestResult",
    "ChangePointSet",
    "cusum_path",
    "offline_test",
    "segment",
    # sequential detection
    "DetectorKind",
    "OnlineDetectorState",
    "Verdict",
    "Verdicts",
    "boundary_weight",
    "train",
    "step",
    "run_batch",
    # trend labelling
    "MacdParams",
    "Direction",
    "TrendMode",
    "TrendVerdict",
    "TrendMemo",
    "ema",
    "macd",
    "trend_series",
    "trend_point",
    "trend_interval",
    # monitoring loop
    "MonitorConfig",
    "ChangeEvent",
    "Action",
    "select_training",
    "run_monitor",
    # errors
    "CpstreamError",
    "CsvFormatError",
    "InsufficientTrainingError",
    "DetectorStoppedError",
    "NonFiniteSampleError",
]
