"""Operator-word level spaces, dilations and classical-limit diagnostics
for quantum channels presented by finitely many Kraus matrices."""

__version__ = "0.1.0"

from .linalg import *
from .channel import *
from .subproduct import *
from .dilation import *
from .dequantization import *
from .catalog import *

__all__ = [name for name in dir() if not name.startswith("_")]
