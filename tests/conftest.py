import os
from pathlib import Path

import pytest

import relpsi as rp


@pytest.fixture(scope="session")
def src_env():
    """The environment for a child Python that imports this checkout's relpsi."""
    env = dict(os.environ)
    src = str(Path(rp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def catalog100():
    return rp.default_catalog(100, include_frobenius=True)


@pytest.fixture(scope="session")
def catalog_subgroups(catalog100):
    """(group, subgroup list) for every catalog group of order <= 100."""
    return [(G, rp.all_subgroups(G)) for G in catalog100]


@pytest.fixture(scope="session")
def catalog_subgroups_64(catalog_subgroups):
    return [(G, subs) for G, subs in catalog_subgroups if G.order <= 64]
