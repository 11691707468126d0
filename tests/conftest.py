"""Test-suite settings: Hypothesis runs derandomized, so every run of the
suite draws the same examples, with no per-example deadline and a bounded
example count."""

from hypothesis import settings

settings.register_profile(
    "proploc", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("proploc")
