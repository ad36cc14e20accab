"""Hypothesis profiles for the suite.

Tier-1 runs the ``default`` profile.  ``ci`` (``pytest
--hypothesis-profile=ci``) is the CI ``fleet`` job's: the lease-queue
model test (``tests/jobs/test_lease_model.py``) runs ten times its
tier-1 example budget under it.
"""

from hypothesis import settings

settings.register_profile("ci", deadline=None)
