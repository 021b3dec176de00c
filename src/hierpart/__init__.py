"""hierpart: two-level hierarchical graph/mesh partitioning with node balancing.

Each module's ``__all__`` lists its public names; all of them are re-exported here.
"""

from .errors import *
from .graph import *
from .hierarchy import *
from .kway import *
from .mesh import *
from .nodes import *

__version__ = "0.1.0"
