import pytest

from hermhecke import spectra
from hermhecke.coefficients import CoefficientStore
from hermhecke.eisenstein import ideal_above
from hermhecke.fixtures import FixtureSet


def pytest_addoption(parser):
    parser.addoption("--run-long", action="store_true", default=False,
                     help="run the long and stretch computations")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="needs --run-long")
    for item in items:
        if "long" in item.keywords or "stretch" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def fx():
    return FixtureSet.load()


@pytest.fixture(scope="session")
def store():
    return CoefficientStore.load()


@pytest.fixture(scope="session")
def ideals():
    return {"t2": ideal_above(2), "t3": ideal_above(3)}


@pytest.fixture(scope="session")
def genus_o4():
    from hermhecke.lattice import HermitianLattice
    from hermhecke.neighbour import enumerate_genus
    return enumerate_genus(HermitianLattice.standard(4), ideal_above(2))


@pytest.fixture(scope="session")
def system(fx):
    return spectra.eigensystem([fx.t2_20x20, fx.t3_20x20],
                               operator_names=("t2", "t3"),
                               reference=fx.eigen_table)
