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
)
from .errors import (
    CpstreamError,
    CsvFormatError,
    DetectorStoppedError,
    NonFiniteSampleError,
)
from .longrun import bartlett_bandwidth, bartlett_lrv
from .monitor import Action, ChangeEvent, MonitorConfig, run_monitor
from .offline import ChangePointSet, OfflineTestResult, cusum_path, offline_test, segment
from .online import (
    DetectorKind,
    OnlineDetectorState,
    Verdict,
    Verdicts,
    run_batch,
    step,
    train,
)
from .timeseries import TimeSeries, load_csv, save_csv
from .trend import (
    Direction,
    MacdParams,
    TrendMemo,
    TrendVerdict,
    trend_interval,
    trend_point,
    trend_series,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data model
    "TimeSeries",
    "load_csv",
    "save_csv",
    # long-run covariance
    "bartlett_bandwidth",
    "bartlett_lrv",
    # critical values
    "CritValKind",
    "CritValRequest",
    "CritVal",
    "MonteCarloProvider",
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
    "train",
    "step",
    "run_batch",
    # trend labelling
    "MacdParams",
    "Direction",
    "TrendVerdict",
    "TrendMemo",
    "trend_series",
    "trend_point",
    "trend_interval",
    # monitoring loop
    "MonitorConfig",
    "ChangeEvent",
    "Action",
    "run_monitor",
    # errors
    "CpstreamError",
    "CsvFormatError",
    "DetectorStoppedError",
    "NonFiniteSampleError",
]
