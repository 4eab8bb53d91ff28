"""Optimal individual eavesdropping on the noisy six-state protocol.

Library layout:

- `sixstate.protocol` — the `(p, q)` domain check and the error-rate →
  disturbance conversion.
- `sixstate.attack` — the six noisy signal states, the constrained probe
  family, its isometry, and Eve's outcome distribution and Bob's flips
  (closed form and simulated by partial traces over the signal-probe
  space).
- `sixstate.info` — the information quantities and their closed-form
  optima.
- `sixstate.optimize` — brute-force maximization and stationarity
  checks, independent of the closed forms.
- `sixstate.analysis` — curve sweeps and key-rate crossing studies.
- `sixstate.cli` — the ``sixstate`` command-line tool.
- `sixstate.exceptions` — the error types the modules raise.

Import names from these submodules, e.g.
``from sixstate.analysis import crossing_point``; the package
namespace holds only the modules and ``__version__``.
"""

from . import analysis, attack, info, optimize, protocol

__version__ = "0.1.0"
