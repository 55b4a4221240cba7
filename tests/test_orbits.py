import pytest
from hypothesis import given, settings, strategies as st

import gphi.arith
from gphi.arith import NaturalOverflowError, euler_phi, g, iterate_g
from gphi.diophantine import is_solution
from gphi.orbits import (
    Persistence,
    detect_relations,
    doubling_persistence,
    reduce_to_diophantine,
    scan_orbits,
)


def relation(rels, r):
    matches = [rel for rel in rels if rel.r == r]
    assert len(matches) == 1, f"expected one relation with r={r}, got {rels}"
    return matches[0]


class TestDetectRelations:
    def test_10_doubles_forever(self):
        rel = relation(detect_relations(10, 64, 2), 2)
        assert (rel.k0, rel.multiplier) == (0, 2)
        assert rel.persistent is Persistence.PROVEN_FOREVER

    def test_94_doubles_forever(self):
        rel = relation(detect_relations(94, 64, 2), 2)
        assert (rel.k0, rel.multiplier) == (0, 2)
        assert rel.persistent is Persistence.PROVEN_FOREVER

    def test_3114(self):
        rel = relation(detect_relations(3114, 64, 25), 25)
        assert rel.multiplier == 729
        assert rel.persistent is Persistence.VERIFIED_ONLY
        # holds from every k >= 6 as originally reported; the onset is
        # measured slightly earlier (see the regression in acceptance)
        assert rel.k0 <= 6

    def test_385(self):
        rel = relation(detect_relations(385, 64, 20), 20)
        assert rel.multiplier == 6561

    def test_related_flag_for_double_shift(self):
        rels = detect_relations(10, 64, 4)
        assert relation(rels, 2).related_r is None
        assert relation(rels, 4).multiplier == 4
        assert relation(rels, 4).related_r == 2

    def test_relations_reverify_by_recomputation(self):
        for rel in detect_relations(3114, 64, 25):
            values = iterate_g(rel.n, rel.verified_to_k + rel.r).values
            for k in range(rel.k0, rel.verified_to_k + 1):
                assert values[k + rel.r] == rel.multiplier * values[k]
            if rel.k0 > 0:
                assert values[rel.k0 - 1 + rel.r] != rel.multiplier * values[rel.k0 - 1]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            detect_relations(10, 4, 5)


class TestDoublingPersistence:
    def test_10(self):
        cert = doubling_persistence(10, 0, 2)
        assert cert.proven and cert.multiplier == 2 and cert.power_of_two_exponent == 1

    def test_94(self):
        assert doubling_persistence(94, 0, 2).proven

    def test_refusal_for_odd_multiplier(self):
        result = doubling_persistence(3114, 6, 25)
        assert not result.proven
        assert "729" in result.reason

    # Odd values have odd orbits past 1, so g_1(1) = 2 = 2 * g_0(1) is the
    # one power-of-2 relation with an odd anchor, and g_2(1) = 3 breaks it.
    def test_refusal_for_odd_anchor(self):
        result = doubling_persistence(1, 0, 1)
        assert (result.proven, result.multiplier, result.reason) == (False, 2, "anchor value 1 is odd")

    def test_refusal_without_integer_multiplier(self):
        result = doubling_persistence(7, 0, 1)
        assert not result.proven and "multiplier" in result.reason

    def test_overflow_is_precondition_violation(self):
        with pytest.raises(NaturalOverflowError):
            doubling_persistence(1 << 191, 3, 2)

    # The one certificate from both sides: on every relation of a scan,
    # detect_relations marks it proven exactly when doubling_persistence
    # certifies it, and a proven relation holds on the whole computed orbit
    # from k0 on.
    def test_certificate_agrees_with_detection_and_holds(self):
        relations = list(scan_orbits(300, 40, 9))
        proven = [rel for rel in relations if rel.persistent is Persistence.PROVEN_FOREVER]
        assert (len(relations), len(proven)) == (608, 520)
        for rel in relations:
            cert = doubling_persistence(rel.n, rel.k0, rel.r)
            assert (cert.proven, cert.multiplier) == (rel.persistent is Persistence.PROVEN_FOREVER, rel.multiplier), rel
        for rel in proven:
            values = iterate_g(rel.n, 64).values
            assert len(values) == 65
            for k in range(rel.k0, 65 - rel.r):
                assert values[k + rel.r] == rel.multiplier * values[k], (rel, k)

    @given(st.integers(min_value=1, max_value=500_000))
    @settings(max_examples=200)
    def test_doubling_law(self, m):
        n = 2 * m
        assert g(2 * n) == 2 * g(n)


class TestReduceToDiophantine:
    def test_10_solves_immediately(self):
        assert reduce_to_diophantine(10, 5) == (0, 10)

    def test_orbit_of_7_has_no_solution_in_range(self):
        # 7 -> 13 -> 25 -> 45 -> 69 -> 113: all odd, none solve the equation
        assert reduce_to_diophantine(7, 5) is None

    def test_orbit_of_1(self):
        # 1 -> 2 -> 3 -> 5 -> 9 -> 15: the oracle rejects every one
        assert reduce_to_diophantine(1, 5) is None

    # 3 * 2^190 solves the equation, and g applied to it leaves the width:
    # the reduction answers k = 0 without stepping past the solution.
    def test_solution_at_the_width(self):
        assert reduce_to_diophantine(3 * 2**190, 1) == (0, 3 * 2**190)

    def test_equivalence_with_detected_doubling(self):
        # g_{k+2} = 2 g_k appears in the orbit iff the orbit hits a solution
        for n in range(2, 2000):
            # matching windows: a relation at shift 2 needs k + 2 <= 50
            reduced = reduce_to_diophantine(n, 48)
            rels = [rel for rel in detect_relations(n, 50, 2) if rel.r == 2 and rel.multiplier == 2]
            if reduced is None:
                assert rels == [], n
            else:
                assert len(rels) == 1 and rels[0].k0 == reduced[0], n


class TestScanOrbits:
    def test_r9_examples(self):
        found = {rel.n for rel in scan_orbits(300, 64, 9) if rel.r == 9 and rel.multiplier == 9}
        assert {130, 170, 234, 260, 266} <= found

    def test_r14_examples(self):
        found = {
            rel.n
            for rel in scan_orbits(7000, 40, 14)
            if rel.r == 14 and rel.multiplier == 729
        }
        assert {3393, 6175, 6969} <= found

    def test_r25_example(self):
        found = {
            rel.n
            for rel in scan_orbits(1800, 64, 25)
            if rel.r == 25 and rel.multiplier == 729
        }
        assert 1570 in found

    def test_ascending_and_equal_to_fresh_detection(self):
        scanned = list(scan_orbits(300, 64, 25))
        fresh = [rel for n in range(2, 301) for rel in detect_relations(n, 64, 25)]
        assert scanned == fresh
        ns = [rel.n for rel in scanned]
        assert ns == sorted(ns)

    def test_successor_map_lives_for_one_call(self, monkeypatch):
        stepped = {v for n in range(2, 61) for v in iterate_g(n, 40).values[:-1]}
        calls = []

        def counted(n):
            calls.append(n)
            return euler_phi(n)

        # g looks euler_phi up in its module on every call
        monkeypatch.setattr(gphi.arith, "euler_phi", counted)
        first = list(scan_orbits(60, 40, 9))
        # each value the scan steps from is factored exactly once
        assert sorted(calls) == sorted(stepped)
        assert list(scan_orbits(60, 40, 9)) == first
        assert len(calls) == 2 * len(stepped)


class TestSuccessorMap:
    def test_truncated_orbit_is_unchanged(self):
        n = 3 << 188
        plain = iterate_g(n, 10)
        assert plain.truncated
        successors = {}
        shared = iterate_g(n, 10, successors=successors)
        assert shared == plain
        top = plain.values[-1]
        # g(top) overflows and is stored as None
        assert successors == {**dict(zip(plain.values, plain.values[1:])), top: None}
        assert iterate_g(n, 10, successors=successors) == plain

    def test_shared_map_gives_the_same_relations(self):
        successors = {}
        for n in (10, 94, 385, 3114, 1 << 190):
            rels = detect_relations(n, 64, 25, successors=successors)
            assert rels == detect_relations(n, 64, 25)


class TestFamilyOrbitShape:
    @pytest.mark.parametrize("m", [0, 5])
    def test_alternating_shape(self, m):
        # (8m+7)*2^k -> (6m+5)*2^(k+1) -> (8m+7)*2^(k+1) -> ...
        p, q = 8 * m + 7, 6 * m + 5
        values = iterate_g(p * 2, 40).values
        for k, value in enumerate(values):
            if k % 2 == 0:
                assert value == p << (1 + k // 2)
            else:
                assert value == q << (2 + k // 2)

    @pytest.mark.parametrize("m", [0, 5])
    def test_every_orbit_member_is_a_solution(self, m):
        for value in iterate_g((8 * m + 7) * 2, 30).values:
            assert is_solution(value)
