import gc
import time
import traceback
import tracemalloc

import numpy as np
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


@pytest.fixture
def kept_error():
    """``kept_error(expected, fn, *args)``: the ``expected`` error that
    ``fn(*args)`` raises, the bytes it still holds after ``gc.collect()``
    (tracemalloc), and each local of an ncgraph frame in its traceback that
    holds an ndarray of 200 or more entries or 200 or more bytes."""
    def call(expected, fn, *args):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(expected) as caught:
                fn(*args)
            kept = caught.value
            del caught
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = [f"{frame.f_code.co_name}: {name}"
                for frame, _ in traceback.walk_tb(kept.__traceback__)
                if frame.f_globals["__name__"].startswith("ncgraph")
                for name, value in frame.f_locals.items()
                if isinstance(value, np.ndarray) and value.size >= 200
                or isinstance(value, bytes) and len(value) >= 200]
        return kept, retained, held
    return call
