"""Exception types shared across the package."""


class McelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(McelError, ValueError):
    """Shapes of the supplied arrays are incompatible."""


class SingularScatterError(McelError):
    """Within-class scatter (plus ridge) is not positive definite.

    Usually means too few samples per class for the feature dimension;
    increase the ridge term.
    """


class DataFormatError(McelError, ValueError):
    """A file could not be parsed, or data overflows float64; the message
    names the offending line, offset or column."""


class TrainingDivergedError(McelError):
    """The loss, a parameter or a model output became non-finite in training.

    `batch` is the index within the epoch of the batch whose loss was not
    finite. The parameters, then the validation and test outputs, are checked
    after the epoch's last batch; when one fails, `batch` is the last batch.
    """

    def __init__(self, epoch, batch):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}")
