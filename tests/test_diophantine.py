import pytest

from gphi.arith import euler_phi, is_prime, odd_part, v2
from gphi.diophantine import (
    CheckpointMismatchError,
    SolutionKind,
    TraceCase,
    brute_force_solutions,
    case_trace,
    classify,
    exotic_prime_search,
    family_members,
    is_solution,
    relaxed_search,
    theorem_mismatches,
)
from gphi.sieve import SearchCheckpoint, read_checkpoint, write_checkpoint

SOLUTIONS_BELOW_100 = [4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 70, 80, 94, 96]


def equation_holds(n):
    """Direct oracle, written out independently of the library internals."""
    tot = euler_phi(n)
    return tot + euler_phi(n + tot) == n


class TestIsSolution:
    @pytest.mark.parametrize("n,expected", [(10, True), (2, False), (12, True), (1, False), (94, True)])
    def test_examples(self, n, expected):
        assert is_solution(n) is expected


class TestBruteForce:
    def test_up_to_20(self):
        assert brute_force_solutions(20) == [4, 6, 8, 10, 12, 14, 16, 20]

    def test_up_to_100(self):
        assert brute_force_solutions(100) == SOLUTIONS_BELOW_100

    def test_empty_below_4(self):
        assert brute_force_solutions(3) == []

    def test_matches_per_n_oracle(self):
        hits = set(brute_force_solutions(400))
        for n in range(1, 401):
            assert (n in hits) == equation_holds(n), n


class TestClassify:
    def test_70_is_family_35(self):
        cls = classify(70)
        assert cls.kind is SolutionKind.FAMILY_35 and cls.ell == 1

    def test_2_is_not_a_solution(self):
        # matches the 2^ell shape with ell = 1 but the oracle rejects it
        assert classify(2).kind is SolutionKind.NOT_SOLUTION

    def test_188_is_family_47(self):
        cls = classify(188)
        assert cls.kind is SolutionKind.FAMILY_47 and cls.ell == 2

    def test_named_families_shadow_exotic_forms(self):
        # 94 = 2 * 47 with 47 = 8*5+7 prime and phi(35) = 24 = 4*5+4,
        # so it matches the exotic shape too; the named tag wins.
        assert classify(94).kind is SolutionKind.FAMILY_47
        assert classify(10).kind is SolutionKind.FAMILY_5

    def test_equivalence_with_oracle_desk_scale(self):
        mismatches, count = theorem_mismatches(20000)
        assert mismatches == []
        assert count == len([n for n in range(1, 20001) if classify(n).kind is not SolutionKind.NOT_SOLUTION])

    def test_odd_numbers_never_classify(self):
        for n in range(1, 500, 2):
            assert classify(n).kind is SolutionKind.NOT_SOLUTION


class TestCaseTrace:
    def test_70(self):
        trace = case_trace(70)
        assert trace.case is TraceCase.L2_GT_L1
        assert (trace.ell1, trace.ell2) == (1, 3)
        assert (trace.p, trace.alpha, trace.k, trace.q) == (47, 1, 2, 35)
        assert trace.phi_q_check

    def test_14(self):
        trace = case_trace(14)
        assert trace.case is TraceCase.L2_EQ_L1
        assert (trace.ell1, trace.ell2) == (1, 1)
        assert (trace.p, trace.alpha, trace.k, trace.q) == (7, 1, 2, 5)
        assert trace.phi_q_check

    def test_8_is_chain(self):
        assert case_trace(8).case is TraceCase.POWER_OF_2_CHAIN

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            case_trace(2)

    def test_structural_invariants_desk_scale(self):
        for n in brute_force_solutions(20000):
            trace = case_trace(n)
            if trace.case is TraceCase.POWER_OF_2_CHAIN:
                continue
            assert trace.alpha == 1
            assert trace.k == 2
            assert trace.phi_q_check
            assert trace.p % 4 == 3


class TestExoticSearch:
    def test_first_hundred(self):
        assert [(w.m, w.p, w.q) for w in exotic_prime_search(2, 100)] == [(0, 7, 5), (5, 47, 35)]

    def test_no_class_members_in_window(self):
        assert exotic_prime_search(48, 56) == []

    def test_empty_above_small_hits(self):
        assert exotic_prime_search(100, 10 ** 7) == []

    def test_witness_invariants(self):
        for w in exotic_prime_search(2, 1000):
            assert is_prime(w.p)
            assert w.p == 8 * w.m + 7 and w.q == 6 * w.m + 5
            assert euler_phi(w.q) == 4 * w.m + 4
            assert euler_phi((3 * w.p - 1) // 4) == (w.p + 1) // 2

    def test_deterministic_across_jobs(self):
        serial = exotic_prime_search(2, 10 ** 6)
        parallel = exotic_prime_search(2, 10 ** 6, jobs=4)
        assert serial == parallel

    def test_checkpoint_resume_reproduces_hits(self, tmp_path):
        lo, hi, seg = 2, 3_000_000, 1 << 19
        plain = exotic_prime_search(lo, hi, segment_size=seg)
        path = tmp_path / "resume.ckpt"
        exotic_prime_search(lo, hi, segment_size=seg, checkpoint_path=path, max_segments=2)
        from gphi.sieve import read_checkpoint

        assert read_checkpoint(path).last_completed_hi == lo + 2 * seg  # interrupted
        resumed = exotic_prime_search(lo, hi, segment_size=seg, checkpoint_path=path)
        assert resumed == plain
        assert read_checkpoint(path).last_completed_hi == hi

    def test_checkpoint_mismatch_is_loud(self, tmp_path):
        path = tmp_path / "other.ckpt"
        exotic_prime_search(2, 1000, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError):
            exotic_prime_search(2, 2000, checkpoint_path=path)

    @pytest.mark.parametrize(
        "completed, hits",
        [
            (2 + 40 * 64, (0, 5)),  # beyond the search's end
            (2 - 64, ()),  # before its start
            (2 + 64 + 1, (0,)),  # off the segment grid
            (2, (0,)),  # a true hit, but outside the finished range
            (2 + 3 * 64, (0, 5, 999999)),  # hit beyond the finished range
            (2 + 3 * 64, (0, 1, 5)),  # p = 15 is not prime
            (2 + 3 * 64, (0, 2, 5)),  # p = 23 is prime, but phi(17) != 12
            (2 + 27 * 64, (0, 5, 215)),  # phi(1295) = 864, but p = 1727 = 11 * 157
        ],
    )
    def test_tampered_checkpoint_is_rejected(self, tmp_path, completed, hits):
        path = tmp_path / "tampered.ckpt"
        write_checkpoint(path, SearchCheckpoint("exotic:2:2000:64", completed, hits))
        with pytest.raises(CheckpointMismatchError):
            exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path)

    def test_finished_checkpoint_resumes_to_same_hits(self, tmp_path):
        # 2000 is off the 64-grid from 2: the last segment is a short one
        path = tmp_path / "done.ckpt"
        first = exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path)
        assert read_checkpoint(path).last_completed_hi == 2000
        assert exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path) == first

    def test_bad_range(self):
        with pytest.raises(ValueError):
            exotic_prime_search(10, 10)


class TestRelaxedSearch:
    def test_small_limits(self):
        assert relaxed_search(4) == []
        assert relaxed_search(40) == [5, 35]

    def test_known_list(self):
        assert relaxed_search(2_000_000) == [5, 35, 1295, 1679615]

    def test_hits_are_odd_with_the_right_class(self):
        for n in relaxed_search(2_000_000):
            assert n % 6 == 5
            assert 3 * euler_phi(n) == 2 * n + 2

    def test_correspondence_with_exotic_hits(self):
        # n = 6m+5 relaxed hits with 8m+7 prime are exactly the exotic hits
        relaxed = relaxed_search(10 ** 6)
        from_relaxed = {(n - 5) // 6 for n in relaxed if is_prime(8 * (n - 5) // 6 + 7)}
        exotic = {w.m for w in exotic_prime_search(2, 8 * ((10 ** 6 - 5) // 6) + 8)}
        assert from_relaxed == exotic == {0, 5}


class TestFamilyMembers:
    def test_family_5(self):
        assert family_members(SolutionKind.FAMILY_5, 3) == [10, 20, 40]

    def test_powers_of_two_start_at_4(self):
        assert family_members(SolutionKind.POWER_OF_2, 4) == [4, 8, 16]

    def test_family_47(self):
        assert family_members(SolutionKind.FAMILY_47, 2) == [94, 188]

    def test_exotic_kinds_need_m(self):
        with pytest.raises(ValueError):
            family_members(SolutionKind.EXOTIC_A, 3)
        assert family_members(SolutionKind.EXOTIC_A, 3, m=5) == [94, 188, 376]
        assert family_members(SolutionKind.EXOTIC_B, 3, m=0) == [10, 20, 40]

    def test_not_solution_rejected(self):
        with pytest.raises(ValueError):
            family_members(SolutionKind.NOT_SOLUTION, 3)

    def test_exotic_sufficiency(self):
        # both 2^l(8m+7) and 2^l(6m+5) solve the equation for known m
        for m in (0, 5):
            for ell in range(1, 21):
                assert is_solution((8 * m + 7) << ell)
                assert is_solution((6 * m + 5) << ell)
