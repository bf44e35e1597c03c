import numpy as np
import pytest
from hypothesis import settings

# derandomized: every run draws the same examples, so the suite is reproducible
settings.register_profile("qduality", derandomize=True, database=None, deadline=None)
settings.load_profile("qduality")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
