"""Exception types shared across the package."""


class CpstreamError(Exception):
    """Base class for detection-domain errors."""


class CsvFormatError(CpstreamError):
    """Raised when a delimited input file cannot be parsed."""


class DetectorStoppedError(CpstreamError):
    """Raised when a sample is fed to a sequential detector that already alarmed."""


class NonFiniteSampleError(CpstreamError):
    """Raised when a NaN or infinite sample is fed to a sequential detector."""
