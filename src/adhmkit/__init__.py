"""Matrix-data models for configurations of points on twisted line bundles.

The package represents finite length-c subschemes through small complex
matrices subject to intertwining, nondegeneracy and co-stability conditions,
and exposes the chart structure, gauge actions, canonical representatives
and supporting cycles as plain numpy computations.

Each module's ``__all__`` is exactly what the package re-exports from it.
"""

from . import errors, geometry, hirz, linalg, plane, report, serialize, sigma
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .hirz import *  # noqa: F403
from .linalg import *  # noqa: F403
from .plane import *  # noqa: F403
from .report import *  # noqa: F403
from .serialize import *  # noqa: F403
from .sigma import *  # noqa: F403

__version__ = "0.1.0"

# served from adhmkit.propsuite on first access, so that importing the
# package (and every CLI command but property-run) does not load the suite
_PROPSUITE = ("GenConfig", "gen_hirz_valid", "gen_plane_valid", "run_suite")


def __getattr__(name):
    if name in _PROPSUITE:
        from . import propsuite

        return getattr(propsuite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([*_PROPSUITE, *errors.__all__, *geometry.__all__, *hirz.__all__, *linalg.__all__,
                  *plane.__all__, *report.__all__, *serialize.__all__, *sigma.__all__])
