"""Test-suite settings: Hypothesis runs derandomized, so every run of the
suite draws the same examples, with no per-example deadline and a bounded
example count. ``HYPOTHESIS_PROFILE=deep`` runs ten times the examples of
the default ``proploc`` profile."""

import os

from hypothesis import settings

settings.register_profile(
    "proploc", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.register_profile("deep", settings.get_profile("proploc"), max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "proploc"))
