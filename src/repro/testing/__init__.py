"""Testing utilities: fault injection, reference answers and event recording.

This subpackage is part of the library's *robustness surface*, not of the
serving hot path.  Tests, the CI fault-matrix soak and the lifecycle
benchmark use :mod:`.faults` to inject engine exceptions, slow batches,
truncated or corrupt model files and mid-swap crashes, then assert that the
stack degrades instead of dying.  :mod:`.oracle` recomputes exact and model
answers query by query with no shared kernel code, the reference every
batch path is tested against.  :mod:`.reference_training` is the readable
object-path training step, the reference the fused training kernel is
tested against.  :mod:`.observers` records the lifecycle events a serving
stack publishes, for assertions on them.
"""

from .faults import (
    ArmedFault,
    FaultInjector,
    FaultyEngine,
    FaultyModel,
    corrupt_checkpoint_file,
    corrupt_model_file,
    truncate_journal,
)
from .observers import RecordingObserver
from .oracle import ExactOracle, ModelOracle

__all__ = [
    "ArmedFault",
    "ExactOracle",
    "ModelOracle",
    "FaultInjector",
    "FaultyEngine",
    "FaultyModel",
    "corrupt_model_file",
    "corrupt_checkpoint_file",
    "truncate_journal",
    "RecordingObserver",
]
