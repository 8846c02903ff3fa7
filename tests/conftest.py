"""One hypothesis profile for every property test.

Examples are derandomized and no example database is kept, so every run,
on any machine, checks the same inputs: a failing CI run reproduces
locally, and nothing is written to the working tree. Tests set only
their example counts.
"""

from hypothesis import settings

settings.register_profile("femupdate", derandomize=True, database=None, deadline=None)
settings.load_profile("femupdate")
