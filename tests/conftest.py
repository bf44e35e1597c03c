import numpy as np
import pytest
from hypothesis import settings

# derandomized: every run draws the same examples, so the suite is reproducible
settings.register_profile("qduality", derandomize=True, database=None, deadline=None)
settings.load_profile("qduality")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


class NumpyCalls:
    """Shapes of the first argument of every counted numpy call, by name.

    Counts np.linalg.eigh, eigvalsh, svd, qr and solve, and np.kron and np.einsum,
    from when the fixture is set up; for einsum the first argument, its
    subscripts, is logged itself.  `reset` forgets what was counted so far.
    """

    OWNERS = {
        "eigh": np.linalg,
        "eigvalsh": np.linalg,
        "svd": np.linalg,
        "qr": np.linalg,
        "solve": np.linalg,
        "kron": np,
        "einsum": np,
    }

    def __init__(self, monkeypatch):
        self.shapes = {name: [] for name in self.OWNERS}
        for name, owner in self.OWNERS.items():

            def counted(a, *args, _fn=getattr(owner, name), _log=self.shapes[name], **kwargs):
                _log.append(a if isinstance(a, str) else np.shape(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

    def __getitem__(self, name):
        return self.shapes[name]

    def reset(self):
        for log in self.shapes.values():
            log.clear()


@pytest.fixture
def numpy_calls(monkeypatch):
    return NumpyCalls(monkeypatch)
