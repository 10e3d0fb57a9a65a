import numpy as np
import pytest

from lsd.models import (AitParams, CevParams, CirParams, Heston32Params,
                        WfParams)


@pytest.fixture
def cir_params():
    return CirParams(k1=2.0, k2=2.0, k3=1.0)


@pytest.fixture
def cir_ou_params():
    """Dimension 4 k1 / k3^2 = 2, as the squared-OU construction needs."""
    return CirParams(k1=2.0, k2=2.0, k3=2.0)


@pytest.fixture
def cev_params():
    return CevParams(k1=1.0 / 16.0, k2=1.0, k3=0.4, q=0.75)


@pytest.fixture
def wf_params():
    return WfParams(k1=1.0, k2=2.0, k3=0.20101)


@pytest.fixture
def heston_params():
    return Heston32Params(k1=0.1, k2=70.0, k3=np.sqrt(0.2))


@pytest.fixture
def ait_params():
    return AitParams(km1=2.0, k0=3.0, k1=4.0, k2=6.0, k3=1.0, r=2.0, rho=1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
