"""Built-in benchmark suites.

Importing this package registers the ``engine``, ``families``,
``service``, ``verify``, ``cluster`` and ``autotune`` suites against
the default :data:`repro.bench.spec.registry`.  Each suite's
acceptance bars are tolerance bands on its derived metrics, so
``python -m repro bench gate`` enforces all of them.
"""

from . import (autotune, cluster, engine, families,  # noqa: F401
               service, verify)

__all__ = ["autotune", "cluster", "engine", "families", "service",
           "verify"]
