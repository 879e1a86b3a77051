"""Session-scoped fixtures for the expensive shared objects.

The family catalog and the exhaustive small-field censuses take seconds
to build, and several test modules want them, so build each one once.
"""

import pytest

from crcodes import enumerate_rho1, family_catalog


@pytest.fixture(scope="session")
def catalog48():
    return family_catalog(48)


@pytest.fixture(scope="session")
def census_2_2_8():
    return enumerate_rho1(2, 2, 8)


@pytest.fixture(scope="session")
def census_2_3_8():
    return enumerate_rho1(2, 3, 8)


@pytest.fixture(scope="session")
def census_3_2_5():
    return enumerate_rho1(3, 2, 5)


@pytest.fixture(scope="session")
def census_3_3_5():
    return enumerate_rho1(3, 3, 5)
