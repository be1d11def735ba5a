"""Hypothesis profiles for the test suite.

* ``ci`` (the default) is derandomized: every run draws the same
  examples, so a tier-1 result is reproducible and a failure seen once
  is seen again.
* ``soak`` draws fresh examples on every run, so the randomized CI jobs
  keep exploring.  Select it with ``HYPOTHESIS_PROFILE=soak``.

Neither profile changes ``max_examples``, deadlines or any test bound;
those stay with each test's own ``@settings``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("soak", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
