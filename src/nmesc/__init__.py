"""Auto-tuning spectral clustering for speaker diarization.

The library estimates both the affinity-binarization threshold p and the
number of speakers k directly from eigenvalue structure (normalized
maximum eigengap analysis), clusters the resulting spectral embedding,
and scores speaker-attributed timelines against references (DER).
"""

__version__ = "0.1.0"

from . import affinity, diarization, nme, numerics, testbench
from .affinity import *
from .diarization import *
from .nme import *
from .numerics import *
from .testbench import *

__all__ = ["__version__"]
__all__ += affinity.__all__
__all__ += diarization.__all__
__all__ += nme.__all__
__all__ += numerics.__all__
__all__ += testbench.__all__
