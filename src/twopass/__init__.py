"""Two-pass forward-propagation training with an optical (MZI mesh) realization.

The learning rule runs two forward passes per batch: a clean pass, then a
pass whose input is modulated by the output error projected through a fixed
random matrix.  Weight updates come from the activation differences between
the passes, so no backward pass (and no transposed weights) is needed.  A
standard backpropagation baseline, an MZI-mesh photonic backend, and a
column-split convolution-equivalent architecture round out the library.
"""

from . import colsplit, core, data, harness, modulation, photonic, trainer
from .colsplit import *
from .core import *
from .data import *
from .harness import *
from .modulation import *
from .photonic import *
from .trainer import *

__version__ = "0.1.0"

__all__ = (
    core.__all__
    + modulation.__all__
    + trainer.__all__
    + data.__all__
    + photonic.__all__
    + colsplit.__all__
    + harness.__all__
)
