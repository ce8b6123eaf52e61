"""Case verifiers, parametric identities, and the end-to-end check."""

import sys
from math import gcd

import pytest

import multsquares.replay as replay_module
import multsquares.solver as solver_module
import multsquares.theorem as theorem_module
from multsquares.arith import factorize, represent_in_semigroup
from multsquares.certificate import check_step
from multsquares.gaussian import gauss
from multsquares.replay import (
    EXPECTED_SIGN_PAIRS,
    ReplayMismatchError,
    construction,
    replay_script,
)
from multsquares.solver import NoWitnessError, find_witness
from multsquares.theorem import (
    EVEN_STEP,
    ODD_STEP,
    ParametricIdentity,
    check_parametric,
    theorem_check,
    verify_case_general,
    verify_case_k,
    verify_case_k4,
)
from multsquares.squares import UnsupportedKError


def failed_checks(report):
    return [c for c in report.checks if not c.passed]


def is_prime_power(n):
    return len(factorize(n).factors) == 1


FALLING = ParametricIdentity("falling", ((-1, 600), (1, 0)), ((-1, 600), (1, 0)), 1)
TOO_EARLY = ParametricIdentity("even-too-early", EVEN_STEP.lhs, EVEN_STEP.rhs, 5)
UNEQUAL = ParametricIdentity("unequal", ((1, 1), (1, 0)), ((1, 0), (1, 0)), 1)


def test_parametric_odd_values():
    lhs, rhs = ODD_STEP.terms(5)
    assert lhs == (11, 3) and rhs == (9, 7)
    assert 11**2 + 3**2 == 9**2 + 7**2 == 130
    assert check_parametric(ODD_STEP).passed


def test_parametric_even_values():
    lhs, rhs = EVEN_STEP.terms(6)
    assert lhs == (12, 1) and rhs == (8, 9)
    assert 12**2 + 1**2 == 8**2 + 9**2 == 145
    assert check_parametric(EVEN_STEP).passed


def test_parametric_below_threshold_rejected():
    # at l = 5 the even family produces a zero term
    lhs, rhs = EVEN_STEP.terms(5)
    assert 0 in lhs + rhs
    result = check_parametric(TOO_EARLY)
    assert not result.passed
    assert result.detail == "lhs (5, -10, 25) vs rhs (5, -10, 25); form (1, -5) is below 1 at l=5"


def _parametric_by_loop(identity, l_max):
    """The first failure (l, reason) from checking every l from the
    threshold to l_max, or None."""
    for l in range(identity.threshold, l_max + 1):
        lhs, rhs = identity.terms(l)
        if sum(x * x for x in lhs) != sum(x * x for x in rhs):
            return l, "sum mismatch"
        if any(x < 1 for x in lhs + rhs):
            return l, "non-positive term"
    return None


@pytest.mark.parametrize(
    "identity", [ODD_STEP, EVEN_STEP, TOO_EARLY, FALLING, UNEQUAL], ids=lambda i: i.name
)
@pytest.mark.parametrize("l_max", [3, 10, 500, 1000])
def test_parametric_proof_agrees_with_the_loop(identity, l_max):
    # the loop to l_max finds the failure the proof names once l_max reaches
    # it; 1000 reaches every one here, as unequal sides agree at no more
    # than two l and the falling form's term 600 - l is 0 at l = 600
    result = check_parametric(identity)
    failure = _parametric_by_loop(identity, l_max)
    if result.passed:
        assert failure is None
    elif result.detail.endswith("; the sides differ"):
        assert failure[1] == "sum mismatch"
    else:
        l = int(result.detail.rpartition("l=")[2])
        assert failure == ((l, "non-positive term") if l <= l_max else None)


def test_parametric_proof_checks_no_value_of_l(monkeypatch):
    def refuse(self, l):
        raise AssertionError("check_parametric tries no value of l")

    monkeypatch.setattr(ParametricIdentity, "terms", refuse)
    for identity in (ODD_STEP, EVEN_STEP, TOO_EARLY, FALLING, UNEQUAL):
        assert check_parametric(identity).passed == (identity in (ODD_STEP, EVEN_STEP))


def test_parametric_falling_form_fails_once_it_reaches_zero():
    # its term 600 - l is positive up to l = 599, so a loop bounded below
    # 600 finds nothing; the proof fails it and names the form
    assert _parametric_by_loop(FALLING, 500) is None
    result = check_parametric(FALLING)
    assert not result.passed
    assert result.detail.endswith("; form (-1, 600) is below 1 at l=600")


def test_parametric_polynomial_expansion():
    assert ODD_STEP.side_poly(ODD_STEP.lhs) == (5, 0, 5)
    assert ODD_STEP.side_poly(ODD_STEP.rhs) == (5, 0, 5)
    assert EVEN_STEP.side_poly(EVEN_STEP.lhs) == (5, -10, 25)
    assert EVEN_STEP.side_poly(EVEN_STEP.rhs) == (5, -10, 25)


def test_verify_case_k4():
    report = verify_case_k4(100)
    assert report.all_passed, failed_checks(report)
    assert [c.name for c in report.checks] == ["replay", "induction", "pinned-to-100"]
    # bound is the only parameter, so a call in the old (max_m, bound) form fails
    with pytest.raises(TypeError):
        verify_case_k4(3, 100)


def test_verify_case_k_small_bounds():
    for k in (5, 6, 7):
        report = verify_case_k(k, 40)
        assert report.all_passed, (k, failed_checks(report))
    with pytest.raises(UnsupportedKError):
        verify_case_k(8, 40)


def test_verify_case_general_k8():
    report = verify_case_general(8, 60)
    assert report.all_passed, failed_checks(report)
    assert construction(8) == (7, 2, 2, 2, 2, 2, 1, 1)


def test_verify_case_general_k9_semigroup_choice():
    assert represent_in_semigroup(17, 3, 8) == (3, 1)
    report = verify_case_general(9, 60)
    assert report.all_passed, failed_checks(report)


def test_unequal_double_representation_fails_the_replay(monkeypatch):
    # with one 2 swapped for a 3, the 32 row's cores square-sum to 27 and
    # 37: its two sums no longer share a target, so they give no equation
    # in f(2) and f(3), and the replay's 40/32 claims fail
    first, _ = replay_module.DOUBLE_REPRESENTATIONS
    swapped = ("double-32", (3, 3, 3), (3,) + (2,) * 7)
    monkeypatch.setattr(replay_module, "DOUBLE_REPRESENTATIONS", (first, swapped))
    for k in (8, 13):
        report = theorem_check(k, 60)
        assert report.all_passed is False, k
        assert [c.name for c in report.checks] == ["replay"], k
        assert report.checks[0].detail.startswith(
            "stage 'double-representations-40-32': "
        ), k


def test_wrong_construction_is_caught_by_the_replay(monkeypatch):
    # (k-1)^2 + (k-1) ones sum to k^2 - k, not k^2 + k - 1; the replay's
    # SumOfSquares refuses them when it is built
    monkeypatch.setattr(
        replay_module, "construction", lambda k: (k - 1,) + (1,) * (k - 1)
    )
    with pytest.raises(ValueError, match="squares sum to 56, not 71"):
        theorem_check(8, 60)


def test_construction_with_extra_parts_is_refused_by_the_engine(monkeypatch):
    # 49 + 9 + 4 + 4 + 5 ones = 71 = 8^2 + 8 - 1, but in 9 parts, not 8
    monkeypatch.setattr(
        replay_module, "construction", lambda k: (7, 3, 2, 2, 1, 1, 1, 1, 1)
    )
    with pytest.raises(ValueError, match="has 9 parts, not k = 8"):
        theorem_check(8, 60)


def test_dropped_sign_pair_fails_the_replay(monkeypatch):
    # the replay's joint check is the one solver of the 40/32 sign system
    dropped = EXPECTED_SIGN_PAIRS - {(gauss(1), gauss(1))}
    monkeypatch.setattr(replay_module, "EXPECTED_SIGN_PAIRS", dropped)
    report = theorem_check(8, 60)
    assert report.all_passed is False
    assert [c.name for c in failed_checks(report)] == ["replay"]
    assert "stage 'double-representations-40-32'" in report.checks[-1].detail


def test_construction_arithmetic_k8():
    # two 1s, five 2s, one 7: 2 + 20 + 49 = 71 = 8^2 + 8 - 1
    a, b = represent_in_semigroup(15, 3, 8)
    assert (a, b) == (5, 0)
    assert 2 * 1 + 5 * 4 + 49 == 71 == 8 * 8 + 8 - 1


def test_theorem_check_exploration_mode():
    report = theorem_check(3, 40)
    assert report.case == "exploration"
    assert report.all_passed is None
    report = theorem_check(2, 40)
    assert report.all_passed is None


def test_theorem_check_small_bound(monkeypatch):
    # every case k >= 4 pins through its replay and the induction, with no
    # corpus solve, so small bounds pass too
    def no_solve(*args, **kwargs):
        raise AssertionError("theorem_check ran a corpus solve")

    monkeypatch.setattr(theorem_module, "solve", no_solve)
    for k, bound in ((4, 60), (5, 60), (8, 60), (9, 60), (4, 30), (8, 30)):
        report = theorem_check(k, bound)
        assert report.all_passed, (k, bound, failed_checks(report))
        assert report.checks[-1].name == f"pinned-to-{bound}"


def test_every_case_reports_one_route():
    for k in (4, 5, 6, 7, 8, 9, 10, 13):
        report = theorem_check(k, 60)
        assert report.all_passed, (k, failed_checks(report))
        assert [c.name for c in report.checks[-3:]] == [
            "replay",
            "induction",
            "pinned-to-60",
        ], k


def test_theorem_route_reads_no_closed_form(monkeypatch):
    # the sign witnesses' bounded search rejects Dubouis's exceptions by
    # itself, so the route never asks the cited closed form, under any
    # module's name for it
    def cited(n, k):
        raise AssertionError(f"closed form read for n={n}, k={k}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "multsquares" and hasattr(
            module, "is_dubouis_exception"
        ):
            monkeypatch.setattr(module, "is_dubouis_exception", cited)
    for k in (4, 5, 6, 7, 8, 13, 500):
        report = theorem_check(k, 300)
        assert report.all_passed, (k, failed_checks(report))


def test_induction_failure_reason_reported(monkeypatch):
    # every replay pins 7, so the test drops 7 from the replay's pinned set
    # and makes the witness search fail there; the k = 5 replay pins 7 by
    # the same search, so the failing one goes in after the replay
    real_replay = theorem_module.replay_script
    real_search = solver_module.find_witness

    def fail_at_7(n, k, pinned, signless):
        if n == 7:
            raise NoWitnessError("stub")
        return real_search(n, k, pinned, signless)

    def forget_7(k):
        monkeypatch.setattr(solver_module, "find_witness", real_search)
        replayed = real_replay(k)
        replayed.state.pinned.discard(7)
        monkeypatch.setattr(solver_module, "find_witness", fail_at_7)
        return replayed

    monkeypatch.setattr(theorem_module, "replay_script", forget_7)
    for k in (4, 5, 8):
        report = theorem_check(k, 60)
        induction = next(c for c in report.checks if c.name == "induction")
        assert not induction.passed, k
        assert induction.detail == "at n=7: stub", k
        assert report.checks[-1].detail.startswith("unpinned: [7,"), k
        assert report.all_passed is False


def test_witness_search_sees_every_smaller_n_pinned(monkeypatch):
    # find_witness relies on 1..n-1 being pinned when it is asked for n
    real_search = solver_module.find_witness
    calls = []

    def checked(n, k, pinned, signless):
        calls.append(n)
        assert set(range(1, n)) <= pinned, (k, n)
        return real_search(n, k, pinned, signless)

    monkeypatch.setattr(solver_module, "find_witness", checked)
    for k in (4, 5, 8, 111):
        calls.clear()
        assert theorem_check(k, 60).all_passed, k
        assert calls, k


def test_witness_search_only_for_prime_powers(monkeypatch):
    # an n that is no prime power is the product of two coprime factors
    # the certificate has already pinned, so it needs no witness
    real_replay = theorem_module.replay_script
    real_search = solver_module.find_witness
    calls, replayed = [], []

    def recording(n, k, pinned, signless):
        calls.append(n)
        return real_search(n, k, pinned, signless)

    def replay(k):
        result = real_replay(k)
        replayed.append((len(calls), set(result.state.pinned)))
        return result

    monkeypatch.setattr(solver_module, "find_witness", recording)
    monkeypatch.setattr(theorem_module, "replay_script", replay)
    for k in (4, 5, 8, 111):
        calls.clear()
        replayed.clear()
        assert theorem_check(k, 300).all_passed, k
        assert all(is_prime_power(n) for n in calls), k
        start, pinned = replayed[0]
        products = {
            n for n in range(2, 301) if n not in pinned and not is_prime_power(n)
        }
        assert products and not products & set(calls[start:]), k


def test_rejected_split_never_pins(monkeypatch):
    # with no witness for any n that is no prime power, the true split
    # carries the route, and a split the checker rejects stops it at the
    # first n the replay left to such a split
    real_search = solver_module.find_witness

    def prime_powers_only(n, k, pinned, signless):
        if not is_prime_power(n):
            raise NoWitnessError("stub")
        return real_search(n, k, pinned, signless)

    def smallest_prime(n):
        return factorize(n).factors[0][0]

    def is_coprime_split(n, a, b):
        return a * b == n and gcd(a, b) == 1 and min(a, b) > 1

    mutants = [
        lambda n: (2, n),
        lambda n: (smallest_prime(n), n // smallest_prime(n)),
        lambda n: (1, n),
    ]
    monkeypatch.setattr(solver_module, "find_witness", prime_powers_only)
    for k in (4, 8):
        assert theorem_check(k, 100).all_passed, k
        pinned = replay_script(k).state.pinned
        for split in mutants:
            first = next(
                n
                for n in range(2, 101)
                if n not in pinned
                and not is_prime_power(n)
                and not is_coprime_split(n, *split(n))
            )
            with monkeypatch.context() as m:
                m.setattr(solver_module, "_coprime_split", split)
                report = theorem_check(k, 100)
            induction = next(c for c in report.checks if c.name == "induction")
            assert induction.detail == f"at n={first}: stub", (k, first)
            assert report.all_passed is False


def test_split_matches_factorize():
    for n in range(2, 10**4 + 1):
        a = factorize(n).prime_powers[0]
        assert solver_module._coprime_split(n) == (a, n // a), n


def test_route_checks_every_witness(monkeypatch):
    # a witness the checker rejects stops the certificate at that n
    monkeypatch.setattr(
        solver_module, "find_witness", lambda n, k, pinned, signless: (111, (1,) * k)
    )
    report = theorem_check(111, 40)
    induction = next(c for c in report.checks if c.name == "induction")
    assert induction.detail == (
        "at n=2: certificate rejected: squares sum to 111, not 2*111 = 222"
    )
    assert report.checks[-1].detail.startswith("unpinned: [2,")


def test_failure_detail_names_each_m_tried():
    # n(n-1) = 110 < k = 111, and no other pinned m is coprime to 11
    with pytest.raises(NoWitnessError) as exc:
        find_witness(11, 111, set(range(1, 11)), set())
    assert str(exc.value) == (
        "m=10: 110 has no representation with parts below 11; "
        "no other pinned m is coprime to 11 with 11*m >= 111"
    )
    # 11*12 - 125 = 7 is no sum of terms 3 = 2^2-1 and 8 = 3^2-1
    with pytest.raises(NoWitnessError) as exc:
        find_witness(11, 125, {*range(1, 11), 12}, set())
    assert str(exc.value) == (
        "m=10: 110 has no representation with parts below 11; "
        "m=12: no way to write 7 = 11*12-125 as at most 125 terms x^2-1 "
        "over pinned or signless x >= 2"
    )


def test_fallback_search_stops_at_node_limit(monkeypatch):
    # 11*111 - 111 = 1110 needs 14 terms x^2-1 over x in 2..10
    pinned = {*range(1, 11), 111}
    m, parts = find_witness(11, 111, pinned, set())
    assert m == 111 and check_step(11, m, parts, 111, pinned, set()) is None
    monkeypatch.setattr(solver_module, "FALLBACK_NODES", 5)
    with pytest.raises(NoWitnessError) as exc:
        find_witness(11, 111, pinned, set())
    assert str(exc.value).endswith(
        "m=111: search for 1110 = 11*111-111 as at most 111 terms x^2-1 "
        "over pinned or signless x >= 2 stopped at 5 nodes"
    )


def test_excess_search_matches_dynamic_programming():
    # which excesses are sums of at most `terms` values x^2 - 1, x pinned
    # or signless; the members alternate between the two sets
    for members in ([1, 2, 3], [1, 2, 5, 7], [1, 3, 4, 6], [1, *range(2, 12)]):
        pinned, signless = set(members[::2]), set(members[1::2])
        costs = [x * x - 1 for x in members if x >= 2]
        for terms in (1, 2, 3, 5, 40):
            reach = {0}
            for _ in range(terms):
                reach |= {r + c for r in reach for c in costs if r + c <= 300}
            for excess in range(301):
                parts, _ = solver_module._excess_parts(
                    excess, terms, pinned, signless, 10**6
                )
                found = parts is not None
                assert found == (excess in reach), (members, terms, excess)
                if found:
                    assert len(parts) <= terms
                    assert list(parts) == sorted(parts, reverse=True)
                    assert sum(x * x - 1 for x in parts) == excess
                    assert set(parts) <= set(members)


def test_large_k_proves():
    # for these k the m = n - 1 step alone stops at n = 11: 110 = 11*10 is
    # below k, or 110 - k is a Dubouis offset (1, 2, 4, 5, 7, 10 or 13); the
    # coprime fallback carries the certificate on
    for k in (97, 100, 103, 105, 106, 108, 109, 111, 115, 120, 130, 500):
        report = theorem_check(k, 40)
        assert report.all_passed, (k, failed_checks(report))
        assert [c.name for c in report.checks[-3:]] == [
            "replay",
            "induction",
            "pinned-to-40",
        ], k
    pinned = set(replay_script(111).state.pinned) | set(range(1, 11))
    assert 11 not in pinned  # as the certificate reaches n = 11
    assert find_witness(11, 111, pinned, set())[0] == 111


def test_certificate_steps_pass_the_checker():
    # replay the certificate for two cases, checking each step here too
    for k in (5, 111):
        state = replay_script(k).state
        pinned, signless = set(state.pinned), state.signless
        for n in range(2, 121):
            if n in pinned:
                continue
            m, parts = find_witness(n, k, pinned, signless)
            assert check_step(n, m, parts, k, pinned, signless) is None, (k, n)
            pinned.add(n)
        assert pinned >= set(range(1, 121))


def test_replay_mismatch_ends_the_route(monkeypatch):
    def mismatch(k):
        raise ReplayMismatchError("stub", 2, "{2}", "{-2,2}")

    monkeypatch.setattr(theorem_module, "replay_script", mismatch)
    for k in (4, 5, 8):
        report = theorem_check(k, 60)
        last = report.checks[-1]
        assert (last.name, last.passed) == ("replay", False), k
        assert "stage 'stub'" in last.detail
        assert not any(c.name == "induction" for c in report.checks)


def test_case_report_serialization():
    report = theorem_check(5, 40)
    d = report.to_dict()
    assert set(d) == {"case", "k", "checks", "all_passed"}
    assert d["all_passed"] is True
    assert all(set(c) == {"name", "passed", "detail"} for c in d["checks"])


def test_construction_and_parametric_exact_for_k_8_to_16():
    for k in range(8, 17):
        a, b = represent_in_semigroup(2 * k - 1, 3, 8)
        assert 3 * a + 8 * b == 2 * k - 1
        assert k - a - b - 1 >= 0, k
        parts = (k - 1,) + (3,) * b + (2,) * a + (1,) * (k - a - b - 1)
        assert len(parts) == k
        assert sum(x * x for x in parts) == k * k + k - 1, k
    for identity in (ODD_STEP, EVEN_STEP):
        assert check_parametric(identity).passed
