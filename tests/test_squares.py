"""Representation decision, enumeration, counting, and exceptional sets."""

import random
from itertools import combinations_with_replacement
from math import isqrt

import pytest

from multsquares import squares
from multsquares.squares import (
    Representation,
    UnsupportedKError,
    count_representations,
    enumerate_representations,
    exceptional_set,
    is_dubouis_exception,
    is_representable,
    iter_representations,
    verify_dubouis,
)


def brute_count(n, k):
    """Independent oracle: nested descent over non-increasing tuples."""

    def rec(remaining, parts_left, max_part):
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        for x in range(1, max_part + 1):
            if x * x > remaining - (parts_left - 1):
                break
            total += rec(remaining - x * x, parts_left - 1, x)
        return total

    return rec(n, k, n)


def test_representation_type_invariants():
    r = Representation(12, (3, 1, 1, 1))
    assert r.k == 4
    with pytest.raises(ValueError):
        Representation(12, (1, 3, 1, 1))  # not non-increasing
    with pytest.raises(ValueError):
        Representation(12, (3, 1, 1))  # wrong sum
    with pytest.raises(ValueError):
        Representation(5, (2, 1, 0))  # zero part


def test_is_representable_examples():
    assert not is_representable(33, 5)
    assert is_representable(5, 5)
    assert is_representable(9, 9)
    assert not is_representable(41, 4)
    assert is_representable(12, 4)


def test_count_examples():
    assert count_representations(12, 4) == 1
    assert count_representations(4, 4) == 1
    assert count_representations(33, 5) == 0
    # brute force turns up three ways to write 40 with five squares
    assert count_representations(40, 5) == brute_count(40, 5) == 3


def test_enumerate_examples():
    enum = enumerate_representations(40, 5, limit=100)
    parts = [r.parts for r in enum.representations]
    assert (6, 1, 1, 1, 1) in parts
    assert (3, 3, 3, 3, 2) in parts
    assert not enum.truncated

    enum = enumerate_representations(4, 4, limit=10)
    assert [r.parts for r in enum.representations] == [(1, 1, 1, 1)]

    enum = enumerate_representations(32, 8, limit=100)
    parts = [r.parts for r in enum.representations]
    assert (3, 3, 3, 1, 1, 1, 1, 1) in parts
    assert (2, 2, 2, 2, 2, 2, 2, 2) in parts


def test_enumerate_truncation_flag():
    full = enumerate_representations(325, 5)
    assert not full.truncated
    cut = enumerate_representations(325, 5, limit=2)
    assert cut.truncated
    assert len(cut.representations) == 2
    assert cut.representations == full.representations[:2]


@pytest.mark.parametrize(
    "n, k, limit, message",
    [
        (0, 0, None, "n and k must be positive"),
        (-5, 2, None, "n and k must be positive"),
        (5, 0, None, "n and k must be positive"),
        (10, 2, -1, "limit must be non-negative"),
    ],
)
def test_enumerate_rejects_bad_inputs(n, k, limit, message):
    with pytest.raises(ValueError, match=message):
        enumerate_representations(n, k, limit=limit)


def test_enumerate_order_is_lexicographically_decreasing():
    # the large-k inputs reach the all-ones tail that is yielded whole
    for n, k in ((100, 4), (60, 5), (90, 6), (60, 40), (130, 100)):
        parts = [r.parts for r in enumerate_representations(n, k).representations]
        assert parts == sorted(parts, reverse=True)
        assert len(parts) == len(set(parts))
        assert len(parts) == count_representations(n, k), (n, k)


def test_oracle_equivalence_small():
    for n in range(1, 121):
        for k in range(1, 7):
            expected = brute_count(n, k)
            assert count_representations(n, k) == expected, (n, k)
            assert is_representable(n, k) == (expected > 0), (n, k)
            listed = enumerate_representations(n, k).representations
            assert len(listed) == expected


def test_count_table_matches_oracle_for_larger_k():
    for n in range(1, 151):
        for k in range(7, 14):
            assert count_representations(n, k) == brute_count(n, k), (n, k)


def test_count_table_warm_equals_cold():
    queries = [
        (60000, 3), (1500, 40), (8000, 3), (300, 150), (40, 30), (1999, 12),
        (7000, 5), (5, 5), (1500, 40), (60000, 3), (777, 2), (64, 1),
    ]
    random.Random(7).shuffle(queries)
    squares._count_memo.clear()
    warm = [count_representations(n, k) for n, k in queries]
    cold = []
    for n, k in queries:
        squares._count_memo.clear()
        cold.append(count_representations(n, k))
    assert warm == cold


def test_count_table_limit():
    with pytest.raises(ValueError, match="must be at most 1500000"):
        count_representations(10**6, 2)
    assert count_representations(10**12, 1) == 1
    assert count_representations(3, 1500) == 0


def test_memos_are_module_dicts_filled_by_queries():
    squares._exists_memo.clear()
    squares._count_memo.clear()
    assert is_representable(300, 7)
    count_representations(300, 7)
    assert isinstance(squares._exists_memo, dict) and squares._exists_memo
    assert isinstance(squares._count_memo, dict) and squares._count_memo


def test_large_k_is_decided_without_recursion():
    assert is_representable(5000, 1500)
    assert not is_representable(1502, 1500)
    with pytest.raises(ValueError, match="k must be at most 500"):
        enumerate_representations(5000, 1500)
    assert list(iter_representations(6000, 1500, 2)) == [(2,) * 1500]


def test_monotone_padding_property():
    for n in range(1, 501):
        for k in range(1, 11):
            if is_representable(n, k):
                assert is_representable(n + 1, k + 1), (n, k)


def test_max_part_filter():
    enum = enumerate_representations(42, 5, limit=1, max_part=6)
    assert enum.representations[0].parts == (4, 3, 3, 2, 2)
    assert all(
        max(p) <= 6 for p in
        (r.parts for r in enumerate_representations(42, 5, max_part=6).representations)
    )


def test_descent_and_legendre_skip_match_brute_force_order_included():
    # k <= 3 with 4 | n, and k = 4 with 8 | n, search n / 4 and double the
    # parts, and 3 parts left for a target 7 mod 8 search nothing; with
    # k = 5 and 6 both run below the top level.  The sequence must be the
    # full search's, in the same order
    top = 300
    for k in range(1, 7):
        by_target = {}
        # non-increasing tuples from a decreasing range come out in
        # lexicographically decreasing order
        for parts in combinations_with_replacement(range(isqrt(top), 0, -1), k):
            by_target.setdefault(sum(x * x for x in parts), []).append(parts)
        for n in range(1, top + 1):
            reps = by_target.get(n, [])
            for max_part in (None, 1, 2, 3, 7, 20):
                want = [p for p in reps if max_part is None or p[0] <= max_part]
                got = list(iter_representations(n, k, max_part))
                assert got == want, (n, k, max_part)


def test_dubouis_closed_forms():
    assert is_dubouis_exception(56, 4)  # 14 * 4
    assert is_dubouis_exception(8, 4)  # 2 * 4
    assert is_dubouis_exception(41, 4)
    assert not is_dubouis_exception(44, 4)
    assert is_dubouis_exception(18, 5)
    assert is_dubouis_exception(33, 5)
    assert is_dubouis_exception(12, 8)
    assert not is_dubouis_exception(11, 8)
    with pytest.raises(UnsupportedKError):
        is_dubouis_exception(10, 3)


def test_exceptional_set_examples():
    assert exceptional_set(4, 50) == [1, 2, 3, 5, 6, 8, 9, 11, 14, 17, 24, 29, 32, 41]
    assert exceptional_set(5, 35) == [1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 18, 33]
    assert exceptional_set(1, 10) == [2, 3, 5, 6, 7, 8, 10]


def test_exceptional_set_bound_limit():
    with pytest.raises(ValueError, match="at most 1000000"):
        exceptional_set(4, 10**6 + 1)


def test_exceptional_set_k_limit():
    assert exceptional_set(500, 600)[-1] == 500 + 13
    for call in (exceptional_set, verify_dubouis):
        with pytest.raises(ValueError, match="k must be at most 500"):
            call(501, 10)


def test_exceptional_set_matches_pointwise_decision():
    for k in (1, 2, 3, 4, 6):
        members = set(exceptional_set(k, 2000))
        for n in range(1, 2001):
            assert (n in members) == (not is_representable(n, k)), (n, k)


def test_verify_dubouis_agreement():
    for k in range(4, 13):
        report = verify_dubouis(k, 1000)
        assert report.agree, (k, report.computed, report.closed_form)
    with pytest.raises(UnsupportedKError):
        verify_dubouis(3, 100)


def test_iter_representations_lazy():
    gen = iter_representations(10**4, 4)
    first = next(gen)
    assert sum(x * x for x in first) == 10**4


def test_concurrent_queries_share_the_memo_safely():
    import threading

    results = [None] * 8

    def worker(slot):
        acc = []
        for n in range(150, 260):
            acc.append((count_representations(n, 5), is_representable(n, 6)))
        results[slot] = acc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0][0][0] == count_representations(150, 5)


def test_concurrent_table_growth_gives_serial_answers():
    import sys
    import threading

    queries = [(n, k) for n in (90, 400, 1200, 2500) for k in (2, 5, 9, 17)]
    serial = {}
    for n, k in queries:
        squares._count_memo.clear()
        serial[n, k] = (count_representations(n, k), is_representable(n, k))
    squares._count_memo.clear()
    squares._exists_memo.clear()
    results = [None] * 6

    def worker(slot):
        order = list(queries)
        random.Random(slot).shuffle(order)
        results[slot] = {(n, k): (count_representations(n, k), is_representable(n, k))
                         for n, k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == serial for r in results)
