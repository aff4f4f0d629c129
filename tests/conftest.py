"""Shared fixtures for the test suite."""

import pytest

from repro.kernel import Simulator


@pytest.fixture(params=[Simulator.backend])
def kernel_backend(request):
    """Name of the kernel engine the test runs on.

    Result files record this name (``Simulator.backend``), so the test
    ids carry it too and stay comparable with recorded results.
    """
    return request.param
