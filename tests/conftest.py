import sys
from pathlib import Path

from hypothesis import settings

# make tests/ importable (oracles, helpers) regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

# The config fuzzer's search: the same examples on every run, no time limit
# per example, and no example database written into the checkout.
settings.register_profile(
    "oracle-fuzz", derandomize=True, deadline=None, database=None, max_examples=150,
)
