"""f-divergences, necessary-sample-size bounds, and importance-sampling diagnostics."""

from . import bounds, divergences, gaussian, sampling
from .bounds import *
from .divergences import *
from .gaussian import *
from .sampling import *

__version__ = "0.1.0"

__all__ = sorted({*bounds.__all__, *divergences.__all__, *gaussian.__all__, *sampling.__all__})
