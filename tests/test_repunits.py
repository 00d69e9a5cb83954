import pytest

import ncgraph as ng
from ncgraph import repunits


class TestRepunit:
    def test_values(self):
        assert ng.repunit(2, 5) == 31
        assert ng.repunit(5, 3) == 31
        assert ng.repunit(10, 4) == 1111
        assert ng.repunit(90, 3) == 8191
        assert ng.repunit(2, 13) == 8191
        assert ng.repunit(7, 1) == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ng.repunit(1, 3)
        with pytest.raises(ValueError):
            ng.repunit(10, 0)

    def test_overflow_guard(self, monkeypatch):
        monkeypatch.setattr(repunits, "DEFAULT_MAX_BITS", 50)
        with pytest.raises(ng.Overflow):
            ng.repunit(2, 100)
        # a generous cap accepts the same arguments
        monkeypatch.setattr(repunits, "DEFAULT_MAX_BITS", 200)
        assert ng.repunit(2, 100) == 2 ** 100 - 1


class TestSolution:
    def test_value_and_tuple(self):
        s = ng.RepunitSolution(2, 5, 5, 3)
        assert s.value == 31
        assert s.astuple() == (2, 5, 5, 3)

    def test_rejects_unequal_repunits(self):
        with pytest.raises(ValueError):
            ng.RepunitSolution(2, 5, 5, 4)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ng.RepunitSolution(5, 2, 3, 5)  # x must be smaller than y


class TestSearch:
    def test_the_12_20_box(self):
        found = {s.astuple() for s in ng.goormaghtigh_search(12, 20)}
        assert found == {(2, 5, 5, 3)}

    def test_the_100_20_box(self):
        found = {s.astuple() for s in ng.goormaghtigh_search(100, 20)}
        assert found == {(2, 5, 5, 3), (2, 90, 13, 3)}

    def test_solutions_sorted_and_verified(self):
        sols = ng.goormaghtigh_search(100, 20)
        assert sols == sorted(sols, key=lambda s: s.astuple())
        for s in sols:
            assert ng.repunit(s.x, s.m) == ng.repunit(s.y, s.n) == s.value
            assert s.n >= 3

    def test_bad_caps(self):
        with pytest.raises(ValueError):
            ng.goormaghtigh_search(1, 20)
        with pytest.raises(ValueError):
            ng.goormaghtigh_search(12, 1)

    def test_respects_bit_cap(self, monkeypatch):
        monkeypatch.setattr(repunits, "DEFAULT_MAX_BITS", 30)
        with pytest.raises(ng.Overflow):
            ng.goormaghtigh_search(100, 20)
