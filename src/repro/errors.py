"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so callers can catch
one base class.  The two most interesting subclasses mirror failure modes
reported in the paper:

* :class:`FormatNotApplicableError` — e.g. the DIA kernel on a matrix that
  is not banded, or the PKT kernel on a power-law matrix ("the partition
  step within this kernel does not produce balanced enough packets and
  leads to kernel failure", paper §4.1).
* :class:`DeviceMemoryError` — a matrix that does not fit in simulated GPU
  memory (drives the multi-GPU experiments, paper §4.3).
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FormatNotApplicableError(ReproError):
    """A storage format or kernel cannot represent / process this matrix."""


class DeviceMemoryError(ReproError):
    """Data does not fit in the simulated device memory."""


class ConvergenceError(ReproError):
    """An iterative mining algorithm failed to converge within its budget."""


class ValidationError(ReproError):
    """A matrix or parameter failed structural validation."""


class ExecutorClosedError(ValidationError):
    """An executor was closed while/before a call.

    Subclasses :class:`ValidationError` so callers that already guard the
    pre-existing "executor is closed" :class:`ValidationError` keep working;
    the dedicated type lets long-lived services (``repro.serve``) distinguish
    a drained hot-pool eviction from a genuine argument error.
    """


class ServiceOverloadedError(ReproError):
    """The query service's admission queue is full; the query was rejected."""


class GraphNotRegisteredError(ValidationError):
    """A query referenced a graph name the service does not know."""


class InjectedFault(ReproError):
    """A fault raised on purpose by :class:`repro.resilience.FaultInjector`.

    Only ever raised while fault injection is armed; production code never
    sees it.  Recovery layers treat it exactly like any other shard/backend
    failure — that equivalence is what the chaos tests exercise.
    """


class ShardExecutionError(ReproError):
    """A shard exhausted its retry budget; the caller degrades serially."""


class CorruptedOutputError(ReproError):
    """A shard produced non-finite output (detected before aggregation)."""


class CheckpointError(ReproError):
    """A checkpoint is missing, malformed, or incompatible with the run."""
