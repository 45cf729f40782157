import pytest
from hypothesis import settings

from torusmhd.malliavin import loaded_openblas

pytest_plugins = ["pytester"]

settings.register_profile("ci", max_examples=50, derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads; the counts found are put back after."""
    controls = loaded_openblas()
    if not controls:
        pytest.skip("no OpenBLAS is loaded in this process")
    saved = [(set_, get()) for get, set_ in controls]
    for set_, _ in saved:
        set_(2)
    yield controls
    for set_, count in saved:
        set_(count)
