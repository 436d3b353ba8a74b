"""Shared test configuration.

The property tests draw their examples from Hypothesis.  The profile
loaded here derandomizes them, so every run covers the same examples: a
failure seen once is seen again, and a pass does not depend on the luck of
the draw.  Each test keeps its own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("semicov", derandomize=True)
settings.load_profile("semicov")
