import hypothesis
import numpy as np
import pytest

# The sandbox is slow and single-core; wall-clock deadlines only add flake.
# derandomize keeps example generation reproducible run to run.
hypothesis.settings.register_profile(
    "package",
    deadline=None,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("package")


@pytest.fixture
def abs_shapes(monkeypatch):
    """Shapes of the arrays passed to ``numpy.abs`` while the test runs."""
    shapes = []
    real_abs = np.abs

    def recording(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return real_abs(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", recording)
    return shapes
