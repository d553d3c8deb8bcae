"""Contract-enforcing reverse proxy for stateful REST APIs.

Derives method pre/postconditions from a declarative resource +
state-machine model with embedded security rules, validates live traffic
against them, and reports violations.  Ships with a mock identity upstream
for end-to-end testing.
"""

import os

__version__ = "0.1.0"


def keystone_fixture_path() -> str:
    """Filesystem path of the bundled identity-service model document."""
    return os.path.join(os.path.dirname(__file__), "fixtures", "keystone.model")
