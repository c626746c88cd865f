"""Small shared utilities: RNG handling, units, validation, logging.

These helpers keep the numerical packages free of boilerplate.  Everything
here is dependency-light (NumPy only) and deterministic when seeded.
"""

from repro.util.rng import resolve_rng, spawn_rng
from repro.util.units import (
    KIB,
    MIB,
    GIB,
    KILO,
    MEGA,
    GIGA,
    TERA,
    PETA,
    fmt_bytes,
    fmt_count,
    fmt_flops,
    fmt_rate,
    fmt_time,
)
from repro.util.validation import (
    require,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "resolve_rng",
    "spawn_rng",
    "KIB",
    "MIB",
    "GIB",
    "KILO",
    "MEGA",
    "GIGA",
    "TERA",
    "PETA",
    "fmt_bytes",
    "fmt_count",
    "fmt_flops",
    "fmt_rate",
    "fmt_time",
    "require",
    "require_nonnegative",
    "require_positive",
]
