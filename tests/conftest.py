import time

import pytest

import ncgraph as ng


@pytest.fixture(scope="session")
def _timed_default_scan():
    start = time.monotonic()
    report = ng.scan_pairs()
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def default_report(_timed_default_scan):
    """One full default-catalog scan shared by catalog and acceptance tests."""
    return _timed_default_scan[0]


@pytest.fixture(scope="session")
def default_scan_seconds(_timed_default_scan):
    return _timed_default_scan[1]


@pytest.fixture(scope="session")
def catalog_entries(default_report):
    return list(default_report.entries)


@pytest.fixture(scope="session")
def catalog_groups(catalog_entries):
    """Constructed group for every catalog entry, keyed by descriptor."""
    return {e.descriptor: ng.construct(e.descriptor) for e in catalog_entries}


@pytest.fixture(scope="session")
def bare_family_groups():
    """Every dihedral, dicyclic and heisenberg group of order at most 256,
    keyed by descriptor."""
    names = ([f"dihedral({k})" for k in range(3, 129)]
             + [f"dicyclic({k})" for k in range(2, 65)]
             + ["heisenberg(2,1)", "heisenberg(2,2)", "heisenberg(2,3)",
                "heisenberg(3,1)", "heisenberg(5,1)"])
    return {d: ng.construct(d) for d in names}
