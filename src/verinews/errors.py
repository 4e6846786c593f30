"""Exception hierarchy shared across the package."""


class VerinewsError(Exception):
    """Base class for all errors raised by this package."""


class CsvParseError(VerinewsError):
    """Malformed CSV input (e.g. an unterminated quoted field)."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"{message} (data row {row})"
        super().__init__(message)


class EncodingError(VerinewsError):
    """Input bytes are not valid UTF-8."""

    def __init__(self, byte: int, offset: int):
        self.offset = offset
        super().__init__(f"input is not valid UTF-8: byte 0x{byte:02x} at offset {offset}")


class CsvSchemaError(VerinewsError):
    """The CSV header is missing a required column."""


class LabelError(VerinewsError):
    """A rating string does not name one of the four veracity classes."""


class SettingError(VerinewsError, ValueError):
    """A bad cleaning or training setting: PipelineConfig, TrainConfig or a lemma table."""


class TrainingError(VerinewsError):
    """Training preconditions violated (empty data, one class...) or a fit overflowed."""


class VocabularyError(VerinewsError):
    """A vocabulary bound (min_df, max_df, max_terms) is below 1."""

    def __init__(self, param: str, value: int):
        self.param = param
        super().__init__(f"{param} must be >= 1, got {value}")


class DimensionMismatchError(VerinewsError):
    """A feature matrix's column count does not match the model/vocabulary."""


class ScoreError(VerinewsError, ValueError):
    """A document has a NaN score or no finite class score: a bundle that
    loads can still overflow on a long enough document."""


class ReportError(VerinewsError):
    """A JSON eval report is malformed or holds an unusable confusion grid."""


class BundleError(VerinewsError):
    """Base class for model-bundle serialization failures."""


class BundleIntegrityError(BundleError):
    """Truncated or corrupted bundle payload (checksum / framing failure)."""


class BundleVersionError(BundleError):
    """Bundle format version other than the one this build reads."""


class BundleValidationError(BundleError):
    """A decoded bundle violates a structural invariant."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"invalid bundle field '{field}': {message}")
