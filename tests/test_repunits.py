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
        with pytest.raises(ValueError, match="need y > x > 1, got x=5, y=2"):
            ng.RepunitSolution(5, 2, 3, 5)
        with pytest.raises(ValueError, match="need m > n > 1, got m=2, n=3"):
            ng.RepunitSolution(2, 3, 2, 3)


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


def with_values(monkeypatch, values):
    """Make the collision index read ``values[(b, k)]`` in place of
    repunit(b, k) wherever one is given."""
    real = repunits._lengths

    def lengths(b, max_exp):
        for k, r in real(b, max_exp):
            yield k, values.get((b, k), r)

    monkeypatch.setattr(repunits, "_lengths", lengths)


class TestCollisionIndex:
    def test_collisions_in_a_small_box(self):
        assert repunits._collisions([2, 5, 90], 13) == {(2, 5): [(5, 3)], (2, 90): [(13, 3)]}

    @pytest.mark.parametrize("search", [
        lambda: ng.goormaghtigh_search(12, 20),
        lambda: ng.cross_prime_scan(max_prime=5, max_exp=8, max_cofactor=20),
    ], ids=["goormaghtigh_search", "cross_prime_scan"])
    def test_a_second_length_pair_raises(self, monkeypatch, search):
        # repunit(2, 5) = repunit(5, 3) = 31 is real; make 2 and 5 meet again
        with_values(monkeypatch, {(2, 7): ng.repunit(5, 4)})
        with pytest.raises(ng.InternalInconsistency,
                           match=r"base pair \(2, 5\) admits multiple exponent pairs "
                                 r"\[\(5, 3\), \(7, 4\)\]"):
            search()

    @pytest.mark.parametrize("search", [
        lambda: ng.goormaghtigh_search(12, 20),
        lambda: ng.cross_prime_scan(max_prime=5, max_exp=8, max_cofactor=20),
    ], ids=["goormaghtigh_search", "cross_prime_scan"])
    def test_the_larger_base_with_the_longer_length_raises(self, monkeypatch, search):
        with_values(monkeypatch, {(5, 6): 31})
        with pytest.raises(ng.InternalInconsistency,
                           match=r"equal repunits 31 with bases 2 < 5 but lengths 5 <= 6"):
            search()

    def test_the_bit_guard_is_the_one_repunit_uses(self, monkeypatch):
        # R(100, 20) has 127 bits, under the bound 19 * 7 = 133 that both
        # check before computing; 64 is the least base of 7 bits
        assert ng.repunit(100, 20).bit_length() == 127
        monkeypatch.setattr(repunits, "DEFAULT_MAX_BITS", 132)
        with pytest.raises(ng.Overflow, match=r"repunit\(100, 20\) would exceed"):
            ng.repunit(100, 20)
        with pytest.raises(ng.Overflow, match=r"repunit\(64, 20\) would exceed"):
            ng.goormaghtigh_search(100, 20)
        monkeypatch.setattr(repunits, "DEFAULT_MAX_BITS", 133)
        assert len(ng.goormaghtigh_search(100, 20)) == 2
