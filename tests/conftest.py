"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile exactness`` runs the exactness properties that
read ``EXACTNESS_SCALE`` at ten times their default examples, and prints a
reproduction blob for any failure; every other test keeps its own settings.
"""

from hypothesis import settings

EXACTNESS_PROFILE = "exactness"
EXACTNESS_SCALE = 10

settings.register_profile(EXACTNESS_PROFILE, print_blob=True)
