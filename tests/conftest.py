"""One hypothesis profile for every property test in the suite.

Examples are derandomized and no example database is kept, so each run
draws the same examples; there is no deadline, because solve times vary
with the machine's load.
"""

from hypothesis import settings

settings.register_profile("ringqed", derandomize=True, database=None, deadline=None)
settings.load_profile("ringqed")
