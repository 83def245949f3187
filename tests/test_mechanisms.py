import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers_oracles import (
    acceptance_probability,
    allocating_chain_reference,
    boolean_indicator_class,
    columnwise_scores,
    grown_domain_blocks,
    law_by_row,
    random_query_class,
    reference_walk,
    total_variation,
)
from sparsedp import (
    Database,
    DimensionMismatchError,
    DomainTooLargeError,
    ExponentRule,
    PrivacyParams,
    QueryClass,
    SparseSyntheticDatabase,
    build_family,
    domain_size,
    estimate_l1,
    exact_output_distribution,
    exponential_release_exact,
    exponential_release_mcmc,
    l1_norm,
    laplace_noise,
    laplace_release,
    max_error,
    postprocessing_certificate,
    privacy_ratio_certificate,
    quality_score,
    rescale,
    sparse_domain,
    utility_threshold,
)
from sparsedp import config, mechanisms, oracle
from sparsedp.fsd import choose_m, fsd
from sparsedp.mechanisms import (
    composition_matrix,
    domain_blocks,
    exponent_divisor,
    exponential_law,
    score_rows,
)


class TestPrivacyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(alpha=0.0)
        with pytest.raises(ValueError):
            PrivacyParams(alpha=-1.0)
        with pytest.raises(ValueError):
            PrivacyParams(alpha=math.inf)

    def test_rule_parsing(self):
        assert ExponentRule("paper") is ExponentRule.PAPER_QUARTER
        assert ExponentRule("tight") is ExponentRule.TIGHT_SENSITIVITY
        for name in ("PAPER_QUARTER", "loose"):
            with pytest.raises(ValueError):
                ExponentRule(name)


class TestSparseDomain:
    def test_pinned_enumeration_order(self):
        elements = [e.as_tuple() for e in sparse_domain(3, 2)]
        assert elements == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_single_coordinate(self):
        assert [e.as_tuple() for e in sparse_domain(1, 5)] == [(5,)]

    def test_count_matches_binomial(self):
        elements = list(sparse_domain(4, 3))
        assert len(elements) == 20 == math.comb(6, 3) == domain_size(4, 3)
        assert len(set(e.as_tuple() for e in elements)) == 20

    def test_each_element_sums_to_m(self):
        for e in sparse_domain(3, 4):
            assert e.m == 4 and e.counts.sum() == 4

    def test_budget_refusal_carries_count(self, monkeypatch):
        monkeypatch.setenv("FSDP_BUDGET", "1000")
        with pytest.raises(DomainTooLargeError) as err:
            sparse_domain(50, 50)
        assert err.value.count == math.comb(99, 49)
        assert "mcmc" in str(err.value).lower()

    def test_matrix_agrees_with_generator(self):
        for n, m in ((1, 3), (2, 5), (3, 4), (4, 2)):
            matrix = composition_matrix(n, m)
            rows = [tuple(int(x) for x in row) for row in matrix]
            assert rows == [e.as_tuple() for e in sparse_domain(n, m)]
            brute = [t for t in itertools.product(range(m + 1), repeat=n) if sum(t) == m]
            assert rows == sorted(brute, reverse=True)

    def test_blocks_are_the_grown_blocks_bit_for_bit(self):
        # Each column written once into the block equals the block grown a
        # level at a time, in dtype, block shapes and bytes.  Blocks of
        # fewer than 50 rows are checked on domains of up to 2,000 rows:
        # the larger ones would add about 400,000 blocks and 30 s.
        for n in range(1, 9):
            for m in range(13):
                for max_rows in (None, 1, 2, 3, 7, 50):
                    if max_rows is not None and max_rows < 50 and domain_size(n, m) > 2000:
                        continue
                    got = list(domain_blocks(n, m, max_rows))
                    want = list(grown_domain_blocks(n, m, max_rows))
                    assert [b.shape for b in got] == [b.shape for b in want]
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype == np.int64
                        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            domain_size(0, 2)
        with pytest.raises(ValueError):
            domain_size(2, -1)
        for m in (0, -1):
            with pytest.raises(ValueError, match="m must be at least 1"):
                sparse_domain(2, m)
            with pytest.raises(ValueError, match="m must be at least 1"):
                composition_matrix(2, m)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty domain memo in place of the process's, and the (n, m) of
    every ``domain_blocks`` call made through ``mechanisms``."""
    memo, calls = mechanisms._DomainMemo(), []
    blocks = mechanisms.domain_blocks
    monkeypatch.setattr(mechanisms, "_DOMAINS", memo)
    monkeypatch.setattr(
        mechanisms, "domain_blocks", lambda n, m, *rest: calls.append((n, m)) or blocks(n, m, *rest)
    )
    return memo, calls


def memo_bytes(memo) -> int:
    return sum(sys.getsizeof(counts) for counts in memo.domains.values())


class TestDomainMemo:
    """``composition_matrix``, the exact sampler and ``ExactLawTable`` take
    the whole domain from one memo keyed by the public (n, m)."""

    def test_bytes_match_a_fresh_enumeration(self, fresh_memo):
        _, calls = fresh_memo
        shapes = [(n, m) for n in range(1, 8) for m in range(1, 9)]
        for _ in range(2):
            for n, m in shapes:
                got = composition_matrix(n, m)
                want = next(domain_blocks(n, m))
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()
        assert calls == shapes

    def test_every_handed_out_array_is_read_only(self, fresh_memo, monkeypatch):
        d, c, p = Database([1.0, 2.0, 0.5]), QueryClass(np.eye(3)), PrivacyParams(1.0)
        rule = ExponentRule.PAPER_QUARTER
        handed = [
            composition_matrix(3, 4),
            composition_matrix(3, 4),
            mechanisms.ExactLawTable([d], c, p, 4, rule).counts,
            exact_output_distribution(d, c, p, 4).counts,
        ]
        monkeypatch.setattr(mechanisms, "DOMAIN_MEMO_BYTES", 0)
        handed.append(composition_matrix(3, 5))  # over the cap: enumerated, not kept
        assert len({id(counts) for counts in handed}) == len(handed)
        for counts in handed:
            assert not counts.flags.writeable
            with pytest.raises(ValueError):
                counts.setflags(write=True)
            with pytest.raises(ValueError):
                counts[0, 0] = 7
        np.testing.assert_array_equal(composition_matrix(3, 4), next(domain_blocks(3, 4)))

    def test_a_warm_memo_still_checks_the_budget(self, fresh_memo, monkeypatch):
        memo, calls = fresh_memo
        d, c, p = Database(np.ones(6)), QueryClass(np.eye(6)), PrivacyParams(1.0)
        rule = ExponentRule.PAPER_QUARTER
        composition_matrix(6, 4)
        assert (6, 4) in memo.domains
        monkeypatch.setenv("FSDP_BUDGET", "100")
        message = "sparse domain for n=6, m=4 holds 126 elements over the budget of 100"
        runs = [
            ("", lambda: composition_matrix(6, 4)),
            (mechanisms.MCMC_ADVICE, lambda: exponential_release_exact(
                d, c, p, 4, np.random.default_rng(0), rule
            )),
            (mechanisms.MCMC_ADVICE, lambda: mechanisms.ExactLawTable([d], c, p, 4, rule)),
        ]
        for advice, run in runs:
            with pytest.raises(DomainTooLargeError) as err:
                run()
            assert str(err.value) == message + advice
            assert err.value.count == 126
        monkeypatch.setenv("FSDP_BUDGET", "126")
        assert composition_matrix(6, 4).shape == (126, 6)
        assert calls == [(6, 4)]

    def test_retained_bytes_never_exceed_the_cap(self, fresh_memo, monkeypatch):
        memo, calls = fresh_memo
        cap = 17_000
        monkeypatch.setattr(mechanisms, "DOMAIN_MEMO_BYTES", cap)
        # 66, 286, 462, 210 and 51 rows: (6, 6) alone is over the cap, and
        # (4, 10) and (5, 6) do not fit together.
        shapes = [(3, 10), (4, 10), (6, 6), (5, 6), (2, 50)]
        size = {shape: sys.getsizeof(next(domain_blocks(*shape))) for shape in shapes}
        assert size[6, 6] > cap and size[4, 10] + size[5, 6] > cap
        kept, misses = [], []  # a least-recently-used model of the memo
        for shape in shapes * 3 + shapes[::-1]:
            composition_matrix(*shape)
            if shape in kept:
                kept.remove(shape)
                kept.append(shape)
            else:
                misses.append(shape)
                if size[shape] <= cap:
                    kept.append(shape)
                    while sum(size[s] for s in kept) > cap:
                        kept.pop(0)
            assert list(memo.domains) == kept
            assert memo.held == memo_bytes(memo) <= cap
        assert calls == misses and misses.count((6, 6)) == 4

    def test_threads_keep_the_byte_count(self, fresh_memo, monkeypatch):
        # Four threads on two cores, switching every microsecond, cycle
        # shapes through a memo too small for all of them: a lost update
        # would leave ``held`` off the bytes actually kept, and an entry
        # dropped between a lookup and its move would raise.
        memo, _ = fresh_memo
        monkeypatch.setattr(mechanisms, "DOMAIN_MEMO_BYTES", 12_000)
        shapes = [(3, 10), (4, 10), (5, 6), (2, 50), (4, 6), (3, 20)]
        wrong = []

        def work(offset):
            for i in range(500):
                n, m = shapes[(i + offset) % len(shapes)]
                try:
                    if composition_matrix(n, m).tobytes() != next(domain_blocks(n, m)).tobytes():
                        wrong.append((n, m))
                except Exception as error:  # reported below, not lost with the thread
                    wrong.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert memo.held == memo_bytes(memo) <= 12_000

    def test_the_release_exact_benchmark_domains_fit_the_cap(self, fresh_memo):
        # The (n, m) shapes the release-exact workload enumerates.
        memo, calls = fresh_memo
        shapes = [(4, 30), (5, 16), (6, 12), (8, 6), (5, 24)]
        for shape in shapes + shapes:
            composition_matrix(*shape)
        assert calls == shapes and list(memo.domains) == shapes
        assert memo.held == memo_bytes(memo) <= mechanisms.DOMAIN_MEMO_BYTES

    def test_a_second_release_at_the_same_shape_enumerates_nothing(self, fresh_memo):
        _, calls = fresh_memo
        d, c, p = Database([3.0, 1.0, 2.5]), QueryClass([[1, 0, 0], [0.5, 0.5, 1]]), PrivacyParams(1.0)
        cold = exponential_release_exact(d, c, p, 5, np.random.default_rng(3), l1="private")
        assert calls == [(3, 5)]
        warm = exponential_release_exact(d, c, p, 5, np.random.default_rng(3), l1="private")
        assert_same_release(warm, cold)
        mechanisms.ExactLawTable([d], c, p, 5, ExponentRule.TIGHT_SENSITIVITY).release(
            d, np.random.default_rng(4)
        )
        exact_output_distribution(d, c, p, 5)
        privacy_ratio_certificate(3, 1, c, p, 5)
        assert calls == [(3, 5)]


class TestQualityScore:
    def test_perfect_surrogate(self):
        score = quality_score(
            Database([2, 2]), SparseSyntheticDatabase(np.array([1, 1])), QueryClass([[1, 0], [0, 1]]), 4.0
        )
        assert score == 0.0

    def test_worst_mismatch(self):
        score = quality_score(
            Database([4, 0]), SparseSyntheticDatabase(np.array([0, 2])), QueryClass([[1, 0]]), 4.0
        )
        assert score == -4.0

    def test_batched_kernel_matches_per_candidate_score(self, monkeypatch):
        # 20,475 rows at k=64 span several of the kernel's matmul slices
        rng = np.random.default_rng(13)
        d = Database(rng.uniform(0, 50, size=5))
        c = QueryClass(rng.uniform(0, 1, size=(64, 5)))
        counts = composition_matrix(5, 24)
        assert len(counts) == 20_475
        scores = score_rows(c, counts, [c.matrix @ d.entries], [61.5], 24)
        assert scores.shape == (1, 20_475)
        for row, score in zip(counts, scores[0]):
            reference = quality_score(d, SparseSyntheticDatabase(row), c, 61.5)
            assert abs(score - reference) <= 1e-12

        # A batch of databases, with slices small enough that both the rows
        # (1,000 per slice) and the batch (groups of 1) are split: every
        # entry is its batch-of-one score.
        monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", 64_000)
        batch = [d] + [Database(rng.uniform(0, 50, size=5)) for _ in range(6)]
        answers = [c.matrix @ db.entries for db in batch]
        l1s = [61.5] + [float(x) for x in rng.uniform(0, 80, size=6)]
        scores = score_rows(c, counts, answers, l1s, 24)
        assert scores.shape == (7, 20_475)
        for b in range(7):
            alone = score_rows(c, counts, [answers[b]], [l1s[b]], 24)[0]
            assert np.array_equal(scores[b], alone)

    @pytest.mark.parametrize("slice_cells", [None, 48, 8])
    def test_kernel_is_one_matmul_over_all_rows_bit_for_bit(self, monkeypatch, slice_cells):
        # Slices, groups and the query-major matmul change no bit: the
        # scores are those of one matmul over all rows, at any slice size.
        # The (n, m, k, batch, rows) shapes take in k = 1, n = 1, one and no
        # rows, slices that leave one row over (513 rows at k = 64), batches
        # of more than one group, and the strata release-exact scores.
        if slice_cells is not None:
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
        rng = np.random.default_rng(43)
        shapes = [(1, 3, 1, 1, None), (1, 5, 7, 3, None), (5, 3, 1, 4, None), (3, 2, 5, 2, 1),
                  (3, 2, 5, 2, 0), (4, 4, 64, 40, None), (2, 94, 70, 3, None), (8, 1, 9, 6, 2),
                  (5, 24, 64, 2, 513)]
        for _ in range(30):
            shapes.append((int(rng.integers(1, 9)), int(rng.integers(1, 5)),
                           int(rng.integers(1, 71)), int(rng.integers(1, 41)), None))
        shapes += [(n, m, k, 1, None) for n, m in ((4, 30), (5, 16), (6, 12), (8, 6), (5, 24))
                   for k in (16, 32, 64)]
        # The certificates' batches: many databases on a small domain at
        # k = 6, which the default slice works with the databases innermost.
        shapes += [(n, m, 6, batch, None) for n, m in ((3, 3), (3, 4), (4, 3), (4, 4))
                   for batch in (125, 616, 1025, 1696)]
        # Each side of the switch between the two layouts, which comes where
        # a group of databases gets longer than the slice of rows, and groups
        # of one database fewer and more than a full group; k = 1 and a
        # one-row domain take the switch too.
        layouts = set()
        for n, m, k in ((1, 4, 1), (1, 2, 6), (2, 1, 1), (3, 1, 2), (2, 2, 1), (4, 3, 6)):
            rows = len(composition_matrix(n, m))
            span = min(max(2, mechanisms.SCORE_SLICE_CELLS // k), rows)
            group = max(1, mechanisms.SCORE_SLICE_CELLS // (span * k))
            for batch in {span, span + 1, group - 1, group, group + 1} - {0}:
                shapes.append((n, m, k, batch, None))
                layouts.add(min(group, batch) > span)
        assert layouts == {False, True}
        for n, m, k, batch, rows in shapes:
            counts = composition_matrix(n, m)[:rows]
            c = random_query_class(rng, k, n)
            answers = rng.uniform(0, 50, size=(batch, k))
            l1s = rng.uniform(0, 80, size=batch)
            got = score_rows(c, counts, answers, l1s, m)
            want = columnwise_scores(c, counts, answers, l1s, m)
            assert got.shape == want.shape == (batch, len(counts))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slice_cells", [None, 48, 8])
    def test_exact_cancellation_scores_minus_zero_in_both_layouts(self, monkeypatch, slice_cells):
        # Halves, whole L1 estimates and m = 4 make every product and sum
        # exact, so a database whose true answers are a candidate's rescaled
        # answers cancels it exactly: its error is 0.0, its score -0.0.
        if slice_cells is not None:
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
        rng = np.random.default_rng(59)
        for n, k, batch in ((3, 6, 1), (3, 6, 700), (2, 1, 3), (2, 1, 40), (1, 1, 9)):
            counts = composition_matrix(n, 4)
            c = QueryClass(rng.integers(0, 3, size=(k, n)) / 2)
            l1s = rng.integers(1, 9, size=batch).astype(float)
            picked = rng.integers(len(counts), size=batch)
            answers = (l1s / 4)[:, None] * (counts[picked] @ c.matrix.T)
            got = score_rows(c, counts, answers, l1s, 4)
            want = columnwise_scores(c, counts, answers, l1s, 4)
            assert got.tobytes() == want.tobytes()
            cancelled = got[np.arange(batch), picked]
            assert (cancelled == 0.0).all() and np.signbit(cancelled).all()

    def test_matches_max_error_of_rescaled(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 6)), n)))
            d = Database(rng.uniform(0, 5, size=n))
            counts = rng.integers(0, 4, size=n)
            counts[int(rng.integers(n))] += 1
            dp = SparseSyntheticDatabase(counts)
            l1 = float(rng.uniform(0, 8))
            assert quality_score(d, dp, c, l1) == pytest.approx(
                -max_error(c, d, rescale(dp, l1)), abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quality_score(
                Database([1, 2, 3]), SparseSyntheticDatabase(np.array([1, 1])), QueryClass([[1, 0]]), 2.0
            )


class TestScoringMemory:
    def test_exact_law_peak(self):
        # The law of one database over 20,475 rows at k = 64: past the
        # scores and the law (164 KB each), nothing grows with the rows.
        rng = np.random.default_rng(47)
        c = random_query_class(rng, 64, 5)
        d = Database(rng.uniform(0, 50, size=5))
        counts = composition_matrix(5, 24)
        tracemalloc.start()
        try:
            mechanisms._laws(c, counts, d.entries[None], [l1_norm(d)], 24, 1.0, ExponentRule.PAPER_QUARTER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_score_buffers_follow_the_slice_size_not_the_rows(self, monkeypatch):
        # Past the scores themselves, a call holds its two float64 buffers
        # of SCORE_SLICE_CELLS cells, a slice's counts cast to float64 for
        # the matmul and one of numpy's ufunc buffers: the same for 1,820
        # rows as for 20,475.
        rng = np.random.default_rng(53)
        c = random_query_class(rng, 64, 5)
        answers = rng.uniform(0, 50, size=(1, 64))
        for slice_cells in (1 << 12, 1 << 15):
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
            extra = []
            for m in (12, 24):
                counts = composition_matrix(5, m)
                tracemalloc.start()
                try:
                    scores = score_rows(c, counts, answers, [40.0], m)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                extra.append(peak - scores.nbytes)
            buffers = 2 * 8 * slice_cells
            cast = 8 * 5 * (slice_cells // 64)
            assert abs(extra[1] - extra[0]) <= 4096
            assert buffers <= min(extra) <= max(extra) <= buffers + cast + 8 * np.getbufsize() + 8192

    def test_batched_buffers_follow_the_slice_size_not_the_batch(self):
        # A certificate's batch, worked with the databases innermost.  Past
        # the scores and the databases' L1 factors, a call holds its two
        # slice buffers, the (rows, group) block the maximum goes to, the
        # counts cast to float64 and two of numpy's ufunc buffers: the same
        # for 625 databases as for 1,696.
        rng = np.random.default_rng(61)
        c = random_query_class(rng, 6, 4)
        counts = composition_matrix(4, 4)
        span = len(counts)
        group = mechanisms.SCORE_SLICE_CELLS // (span * 6)
        extra = []
        for batch in (625, 1696):
            answers = rng.uniform(0, 50, size=(batch, 6))
            l1s = rng.uniform(0, 80, size=batch)
            tracemalloc.start()
            try:
                scores = score_rows(c, counts, answers, l1s, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - scores.nbytes - l1s.nbytes)
        buffers = 8 * (span * 6 + group * 6 * span + span * group)
        cast = 8 * counts.size
        assert abs(extra[1] - extra[0]) <= 4096
        assert buffers <= min(extra) <= max(extra) <= buffers + cast + 16 * np.getbufsize() + 8192


class TestExponentDivisor:
    TIGHT = ExponentRule.TIGHT_SENSITIVITY

    def test_unit_mass(self):
        assert exponent_divisor(self.TIGHT, 1) == 4.0

    def test_ten(self):
        assert exponent_divisor(self.TIGHT, 10) == pytest.approx(2.2)

    def test_bounded_by_four_and_nonincreasing(self):
        values = [exponent_divisor(self.TIGHT, m) for m in range(1, 200)]
        assert all(v <= 4.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_tight_refuses_m_below_one(self):
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            exponent_divisor(self.TIGHT, 0)

    def test_divisors(self):
        assert exponent_divisor(ExponentRule.PAPER_QUARTER, 1) == 4.0
        assert exponent_divisor(self.TIGHT, 1) == 4.0
        assert exponent_divisor(self.TIGHT, 4) == 2.5
        for m in (0, 1, 3, 199):
            assert exponent_divisor(ExponentRule.PAPER_QUARTER, m) == 4.0

    @pytest.mark.parametrize("rule", ["paper", "tight", 3, None])
    def test_a_value_that_is_no_rule_is_refused_before_the_generator(
        self, fresh_memo, monkeypatch, rule
    ):
        # Before, any such value ran the tight rule: "paper" at m=3 drew
        # from divisor 8/3 and reported the paper rule.  Every caller refuses
        # the rule before it checks the budget, reads the domain or scores a
        # row, so the rule's error wins over a domain past the budget too.
        memo, calls = fresh_memo
        scored = []
        score_rows = mechanisms.score_rows
        monkeypatch.setattr(
            mechanisms, "score_rows", lambda *args: scored.append(args) or score_rows(*args)
        )
        d, c, p = Database([3.0, 1.0]), QueryClass([[1.0, 0.0], [0.0, 1.0]]), PrivacyParams(1.0)
        runs = {
            "divisor": lambda rng: exponent_divisor(rule, 3),
            "exact": lambda rng: exponential_release_exact(d, c, p, 3, rng, rule),
            "chain": lambda rng: exponential_release_mcmc(d, c, p, 3, 10, rng, rule),
            "exact, private": lambda rng: exponential_release_exact(
                d, c, p, 3, rng, rule, l1="private"
            ),
            "chain, private": lambda rng: exponential_release_mcmc(
                d, c, p, 3, 10, rng, rule, l1="private"
            ),
            "table": lambda rng: mechanisms.ExactLawTable([d], c, p, 3, rule).release(d, rng),
            "distribution": lambda rng: exact_output_distribution(d, c, p, 3, rule),
            "certificate": lambda rng: privacy_ratio_certificate(2, 1, c, p, 3, rule),
            "post-processing certificate": lambda rng: postprocessing_certificate(
                lambda dp: 0, 2, 1, c, p, 3, rule, real_probes=2, rng=rng
            ),
        }
        message = f"exponent_rule must be an ExponentRule, got {rule!r}"
        # The domain of (2, 3) has 4 rows: a budget of 1 refuses every pass.
        for budget in (None, "1"):
            if budget is not None:
                monkeypatch.setenv("FSDP_BUDGET", budget)
            for name, run in runs.items():
                rng = np.random.default_rng(5)
                with pytest.raises(ValueError, match=re.escape(message)):
                    run(rng)
                assert rng.random() == np.random.default_rng(5).random(), name
                assert calls == [] and not memo.domains and scored == [], name


class TestSoftmax:
    # At alpha 4 under the quarter rule the logits are the scores exactly
    # (times 4, then divided by 4), so ``exponential_law`` is their softmax.
    @staticmethod
    def softmax(logits):
        return exponential_law(logits, 3, 4.0, ExponentRule.PAPER_QUARTER)

    def test_shift_invariance(self):
        rng = np.random.default_rng(31)
        logits = rng.normal(size=12)
        base = self.softmax(logits)
        for shift in (-50.0, 1e-3, 700.0):
            assert np.abs(self.softmax(logits + shift) - base).max() < 1e-12

    def test_extreme_logits_stable(self):
        probs = self.softmax(np.array([-1e9, 0.0, -2e9]))
        assert probs[1] == pytest.approx(1.0)
        assert np.isfinite(probs).all()


class TestLawOverflow:
    """Logits ``score * alpha / divisor`` past the float range: one that
    overflows to -inf is a zero weight, and a law all of whose logits do is
    refused, not returned as NaN."""

    # The best row of [10, 3, 7] at m = 4, [2, 1, 1], scores -2: at alpha
    # 1e308 every logit overflows.  [2, 1, 1] itself is matched exactly.
    c = QueryClass([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 1]])
    p = PrivacyParams(1e308)

    def test_partial_overflow_is_a_zero_weight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = exponential_law(
                np.array([[0.0, -4e-308, -2.0]]), 1, 1e308, ExponentRule.PAPER_QUARTER
            )
        expected = np.array([1.0, math.exp(-1.0), 0.0]) / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(law[0], expected, rtol=1e-12, atol=0)

    def test_partial_overflow_releases_the_exact_match(self):
        d = Database([2, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = exact_output_distribution(d, self.c, self.p, 4)
            out = exponential_release_exact(d, self.c, self.p, 4, np.random.default_rng(0))
        assert law_by_row(dist) == {
            row: float(row == (2, 1, 1)) for row in map(tuple, dist.counts.tolist())
        }
        assert (out.d_prime.as_tuple(), out.score) == ((2, 1, 1), 0.0)

    def test_every_logit_overflowing_is_refused(self):
        d, rule = Database([10, 3, 7]), ExponentRule.PAPER_QUARTER
        table = mechanisms.ExactLawTable([d], self.c, self.p, 4, rule)
        per_call = lambda d, rng: exponential_release_exact(d, self.c, self.p, 4, rng)
        for release in (per_call, table.release):
            with pytest.raises(ValueError, match=r"alpha=1e\+308 overflows every"):
                release(d, np.random.default_rng(0))

    def test_an_overflowing_database_in_a_group_is_refused_at_its_own_release(self, monkeypatch):
        # [2, 1, 1] and [1, 2, 1] are matched exactly, so their laws survive
        # alpha=1e308; [10, 3, 7] sits between them in the table's order.  A
        # refused group falls back to the lone database: the good ones
        # release as the per-call sampler does, and the bad one is refused
        # when it is released, each time, without a second lone pass.
        good, bad, other = Database([2, 1, 1]), Database([10, 3, 7]), Database([1, 2, 1])
        rule = ExponentRule.PAPER_QUARTER
        table = mechanisms.ExactLawTable([good, bad, other], self.c, self.p, 4, rule)
        calls = spy_on_laws(monkeypatch)
        for d, want_calls in (
            (good, [[good, bad, other], [good]]),
            (bad, [[bad, other], [bad]]),
            (bad, [[bad, other], [bad]]),
            (other, [[other]]),
            (good, []),
            (other, []),
        ):
            calls.clear()
            rng = np.random.default_rng(4)
            if d is bad:
                with pytest.raises(ValueError, match=r"alpha=1e\+308 overflows every"):
                    table.release(d, rng)
            else:
                got = table.release(d, rng)
            assert calls == [[db.entries.tolist() for db in group] for group in want_calls]
            want_rng = np.random.default_rng(4)
            if d is not bad:
                assert_same_release(got, exponential_release_exact(d, self.c, self.p, 4, want_rng))
            assert rng.random() == want_rng.random()
        assert sorted(table._cumulative) == [0, 2]


class FixedUniform:
    """A generator stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u


def law_table_configs(seed: int, count: int):
    """(databases, class, params, m, rule) of ``count`` random tables: n 2-6,
    m 1-4, k 1-6, both rules, 2-5 databases each with entries 0-4 in
    halves, so their L1 norms differ."""
    rng = np.random.default_rng(seed)
    configs = []
    for trial in range(count):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        databases = [Database(0.5 * rng.integers(0, 9, size=n)) for _ in range(int(rng.integers(2, 6)))]
        c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 7)), n)))
        p = PrivacyParams(float(rng.uniform(0.2, 4.0)))
        configs.append((databases, c, p, m, list(ExponentRule)[trial % 2]))
    return configs


def assert_same_release(got, want):
    """Two ``ReleaseOutput``s hold the same values, floats bit for bit."""
    assert got.d_out.entries.tobytes() == want.d_out.entries.tobytes()
    assert got.d_prime.as_tuple() == want.d_prime.as_tuple()
    assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes()
    assert (got.m, got.exponent_rule, got.approximate) == (want.m, want.exponent_rule, want.approximate)
    assert np.float64(got.l1_estimate).tobytes() == np.float64(want.l1_estimate).tobytes()


def spy_on_laws(monkeypatch):
    """Record the entries of every ``mechanisms._laws`` batch, as lists."""
    calls, laws = [], mechanisms._laws
    monkeypatch.setattr(
        mechanisms, "_laws",
        lambda c, counts, entries, *a: calls.append(entries.tolist()) or laws(c, counts, entries, *a),
    )
    return calls


class TestExactLawTable:
    @pytest.mark.parametrize("slice_cells", [None, 48, 8])
    def test_releases_match_the_per_call_sampler(self, monkeypatch, slice_cells):
        # Same release, and the generator left in the same state, for every
        # database of every table, before and after its law is kept;
        # uniforms on and just below each cumulative value of the per-call
        # law pin the kept cumulative rows bit for bit.  Small
        # SCORE_SLICE_CELLS split the scoring into several slices (of at
        # least two rows each).
        if slice_cells is not None:
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
        sliced = 0
        rng = np.random.default_rng(17)
        for databases, c, p, m, rule in law_table_configs(16, 60):
            table = mechanisms.ExactLawTable(databases, c, p, m, rule)
            counts = composition_matrix(c.n, m)
            np.testing.assert_array_equal(table.counts, counts)
            sliced += len(counts) > max(2, mechanisms.SCORE_SLICE_CELLS // c.k)
            for d in databases + [Database(databases[-1].entries.copy())]:
                for seed in rng.integers(2**31, size=3).tolist():
                    a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = table.release(d, a_rng)
                    want = exponential_release_exact(d, c, p, m, b_rng, rule)
                    assert_same_release(got, want)
                    assert a_rng.random() == b_rng.random()
                law = mechanisms._laws(c, counts, d.entries[None], [l1_norm(d)], m, p.alpha, rule)[1]
                cumulative = np.cumsum(law[0])
                for row in rng.choice(len(cumulative), size=min(6, len(cumulative)), replace=False):
                    for u in (cumulative[row], np.nextafter(cumulative[row], 0.0)):
                        fixed = FixedUniform(float(u))
                        want = exponential_release_exact(d, c, p, m, fixed, rule)
                        # The first row whose cumulative probability exceeds u.
                        first = min(int((cumulative <= u).sum()), len(cumulative) - 1)
                        assert want.d_prime.as_tuple() == tuple(counts[first].tolist())
                        got = table.release(d, fixed)
                        assert_same_release(got, want)
                        # Built on the first draw of the row, then reused.
                        assert table.release(d, fixed) is got
        if slice_cells is not None:
            assert sliced >= 20

    @pytest.mark.parametrize(
        "slice_cells, group_kinds", [(None, {"several", "all"}), (48, {"one", "several"}), (8, {"one"})]
    )
    def test_attack_shaped_tables_match_the_per_call_sampler(self, monkeypatch, slice_cells, group_kinds):
        # The databases of a shattered family (boolean d-cubes, d = 4 and 6,
        # and a one-query class on the same databases, where BLAS takes its
        # vector path) share one L1 norm, d/2.  Every release equals the
        # per-call sampler's and leaves the generator in the same state.  A
        # first release keeps the laws of its group, the next databases in
        # table order without a kept law that fit one scoring slice; the
        # slice sizes give groups of one, several and all.  Two databases
        # that draw one row share its d_prime and d_out, never its score.
        if slice_cells is not None:
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
        p, rng = PrivacyParams(1.0), np.random.default_rng(29)
        kinds, own_scores = set(), 0
        for d in (4, 6):
            cube = QueryClass(list(itertools.product((0.0, 1.0), repeat=d)))
            family = build_family(cube, 0.5, d)
            databases = list(family.databases)
            for c, rule in itertools.product((cube, QueryClass(rng.uniform(0, 1, size=(1, d)))), ExponentRule):
                table = mechanisms.ExactLawTable(databases, c, p, d // 2, rule)
                rows = len(table.counts)
                size = max(1, mechanisms.SCORE_SLICE_CELLS // (rows * c.k))
                drawn = {}
                # Table order first, so that a first group starts at 0.
                order = list(range(len(databases))) + rng.integers(len(databases), size=60).tolist()
                for s in order:
                    kept = set(table._cumulative)
                    seed = int(rng.integers(2**31))
                    a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = table.release(databases[s], a_rng)
                    want = exponential_release_exact(databases[s], c, p, d // 2, b_rng, rule)
                    assert_same_release(got, want)
                    assert a_rng.random() == b_rng.random()
                    if s not in kept:
                        group = [t for t in range(s, len(databases)) if t not in kept][:size]
                        assert set(table._cumulative) - kept == set(group)
                        kinds.add(
                            "all" if len(group) == len(databases) else "one" if len(group) == 1 else "several"
                        )
                    row = got.d_prime.as_tuple()
                    for t, other in drawn.get(row, {}).items():
                        if t == s:
                            assert got is other
                        else:
                            assert got.d_prime is other.d_prime and got.d_out is other.d_out
                            own_scores += got.score != other.score
                    drawn.setdefault(row, {})[s] = got
                assert len(table._parts) == len(drawn)
                # Every kept law is the per-call sampler's, bit for bit.
                for s, cumulative in table._cumulative.items():
                    single = mechanisms._laws(
                        c, table.counts, databases[s].entries[None], [l1_norm(databases[s])], d // 2, p.alpha, rule
                    )[1][0]
                    assert cumulative.tobytes() == np.cumsum(single).tobytes()
        assert kinds == group_kinds
        assert own_scores > 0

    @pytest.mark.parametrize("slice_cells", [None, 48, 8])
    def test_batched_law_rows_equal_batch_of_one_rows(self, monkeypatch, slice_cells):
        # A table's databases, and a certificate's grid points and probes:
        # each row of the batched law is the sampler's batch of one.
        if slice_cells is not None:
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
        certified = []
        laws = oracle._laws
        monkeypatch.setattr(
            oracle, "_laws", lambda *args: certified.append((args, laws(*args))) or certified[-1][1]
        )
        for trial, (databases, c, p, m, rule) in enumerate(law_table_configs(18, 60)):
            counts = composition_matrix(c.n, m)
            answers = np.array([c.matrix @ d.entries for d in databases])
            l1s = [l1_norm(d) for d in databases]
            batched = exponential_law(score_rows(c, counts, answers, l1s, m), m, p.alpha, rule)
            cumulative = np.cumsum(batched, axis=1)
            for s, d in enumerate(databases):
                single = mechanisms._laws(c, counts, d.entries[None], [l1s[s]], m, p.alpha, rule)[1][0]
                assert batched[s].tobytes() == single.tobytes()
                assert cumulative[s].tobytes() == np.cumsum(single).tobytes()
            cap, rng = (2 if c.n <= 3 else 1), np.random.default_rng(trial)
            certify = (privacy_ratio_certificate, postprocessing_certificate)[trial % 2]
            extra = (lambda dp: int(dp.counts[0]),) if trial % 2 else ()
            certify(*extra, c.n, cap, c, p, m, rule, real_probes=4, rng=rng)
            (_, _, points, *_), (_, law) = certified[-1]
            assert len(law) == (cap + 1) ** c.n + 8
            for point, row in zip(points, law):
                d = Database(point)
                single = mechanisms._laws(c, counts, d.entries[None], [l1_norm(d)], m, p.alpha, rule)[1][0]
                assert row.tobytes() == single.tobytes()

    def test_refusals(self, monkeypatch):
        c, p = QueryClass([[1, 0, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 1, 1]]), PrivacyParams(1.0)
        databases = [
            Database(np.eye(4)[list(t)].sum(axis=0)) for t in itertools.combinations(range(4), 2)
        ]
        rule = ExponentRule.PAPER_QUARTER
        table = mechanisms.ExactLawTable(databases, c, p, 2, rule)
        rng = np.random.default_rng(3)
        for unknown in (Database([1, 1, 1, 0]), Database([0.5, 0.5, 0.5, 0.5])):
            with pytest.raises(ValueError, match="not one of the table's"):
                table.release(unknown, rng)
        # A refusal comes before the generator is read.
        assert rng.random() == np.random.default_rng(3).random()

        # Each kept law is a pass over the 10-row domain: a budget of 59
        # keeps five of the six, 60 keeps all six.  The first release scores
        # the group of the laws the budget can keep (six 30-cell laws fit one
        # slice), once; a database whose law is not kept scores it alone on
        # each release, and releases as the per-call sampler does.
        entries = [d.entries.tolist() for d in databases]
        calls = spy_on_laws(monkeypatch)
        for budget, kept, want_calls in (
            ("59", 5, [entries[:5]] + [entries[5:]] * 4),
            ("60", 6, [entries]),
        ):
            monkeypatch.setenv("FSDP_BUDGET", budget)
            fitted = mechanisms.ExactLawTable(databases, c, p, 2, rule)
            seeds = np.random.default_rng(5).integers(2**31, size=4 * len(databases)).tolist()
            table_calls = []
            for d, seed in zip(databases * 4, seeds):
                a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                calls.clear()
                got = fitted.release(d, a_rng)
                table_calls += calls
                want = exponential_release_exact(d, c, p, 2, b_rng, rule)
                assert_same_release(got, want)
                assert a_rng.random() == b_rng.random()
            assert len(fitted._cumulative) == kept
            assert table_calls == want_calls

        with pytest.raises(DimensionMismatchError, match="class vs database"):
            mechanisms.ExactLawTable([Database([1, 1, 0])], c, p, 2, rule)

    def test_repeated_draw_without_a_kept_law_returns_the_same_release(self, monkeypatch):
        # At a budget of 59 the sixth database's law is not kept, but each
        # of its drawn releases is.
        c, p = QueryClass([[1, 0, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 1, 1]]), PrivacyParams(1.0)
        databases = [
            Database(np.eye(4)[list(t)].sum(axis=0)) for t in itertools.combinations(range(4), 2)
        ]
        monkeypatch.setenv("FSDP_BUDGET", "59")
        table = mechanisms.ExactLawTable(databases, c, p, 2, ExponentRule.PAPER_QUARTER)
        calls = spy_on_laws(monkeypatch)
        for d in databases:
            table.release(d, np.random.default_rng(0))
        first = table.release(databases[5], np.random.default_rng(7))
        again = table.release(databases[5], np.random.default_rng(7))
        assert again is first
        assert len(table._cumulative) == 5 and 5 not in table._cumulative
        # One group of the five kept laws, then the sixth alone per release.
        entries = [d.entries.tolist() for d in databases]
        assert calls == [entries[:5]] + [entries[5:]] * 3

    def test_build_refusals(self, monkeypatch):
        # Over the budget the table refuses as the per-call sampler does,
        # with its message (which names the MCMC sampler) and count; at the
        # budget it builds.
        c, p, rule = QueryClass(np.eye(6)), PrivacyParams(1.0), ExponentRule.PAPER_QUARTER
        monkeypatch.setenv("FSDP_BUDGET", "100")
        with pytest.raises(DomainTooLargeError) as plain:
            exponential_release_exact(Database(np.ones(6)), c, p, 4, np.random.default_rng(0), rule)
        with pytest.raises(DomainTooLargeError) as prepared:
            mechanisms.ExactLawTable([], c, p, 4, rule)
        assert str(prepared.value) == str(plain.value)
        assert str(plain.value).endswith(mechanisms.MCMC_ADVICE)
        assert prepared.value.count == plain.value.count == math.comb(9, 5)
        monkeypatch.setenv("FSDP_BUDGET", "126")
        assert mechanisms.ExactLawTable([], c, p, 4, rule).counts.shape == (126, 6)
        for bad_m in (0, -1):
            with pytest.raises(ValueError, match="m must be at least 1"):
                mechanisms.ExactLawTable([], c, p, bad_m, rule)

    @pytest.mark.parametrize("rule", ["paper", "tight", 3, None])
    def test_a_value_that_is_no_rule_is_refused_before_the_domain(self, fresh_memo, rule):
        # Before, the table enumerated the domain, kept ``exponent_rule ==
        # "paper"`` and refused only on its first release.
        memo, calls = fresh_memo
        c, p = QueryClass(np.eye(3)), PrivacyParams(1.0)
        message = f"exponent_rule must be an ExponentRule, got {rule!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mechanisms.ExactLawTable([Database([1, 0, 0])], c, p, 2, rule)
        assert calls == [] and not memo.domains

    def test_a_database_of_another_length_is_refused_before_the_rule(self, fresh_memo):
        # Dimensions, then the rule, then the budget and the domain: the
        # table, the samplers, the oracle and the certificates alike.
        memo, calls = fresh_memo
        d, c, p, rng = Database([1, 0]), QueryClass(np.eye(3)), PrivacyParams(1.0), np.random.default_rng(0)
        for run in (
            lambda: mechanisms.ExactLawTable([d], c, p, 2, "paper"),
            lambda: exponential_release_exact(d, c, p, 2, rng, "paper"),
            lambda: exponential_release_mcmc(d, c, p, 2, 10, rng, "paper"),
            lambda: exact_output_distribution(d, c, p, 2, "paper"),
            lambda: privacy_ratio_certificate(2, 1, c, p, 2, "paper"),
            lambda: postprocessing_certificate(lambda dp: 0, 2, 1, c, p, 2, "paper"),
        ):
            with pytest.raises(DimensionMismatchError):
                run()
        assert calls == [] and not memo.domains

    def test_counts_are_read_only(self):
        c, p, rule = QueryClass(np.eye(3)), PrivacyParams(1.0), ExponentRule.PAPER_QUARTER
        table = mechanisms.ExactLawTable([Database([1, 0, 0])], c, p, 2, rule)
        np.testing.assert_array_equal(table.counts, composition_matrix(3, 2))
        with pytest.raises(ValueError):
            table.counts[0, 0] = 7
        with pytest.raises(AttributeError):
            table.counts = np.zeros((1, 3), dtype=np.int64)

    def test_laws_are_computed_on_first_use(self, monkeypatch):
        # Building the table scores nothing; each database's law is computed
        # once, in one ``_laws`` call over its group, on the first release of
        # the first database of that group.
        c, p = QueryClass([[1, 0, 0], [0, 1, 1]]), PrivacyParams(2.0)
        databases = [Database([1, 0, 0]), Database([0, 1, 0]), Database([0, 0, 1])]
        calls = spy_on_laws(monkeypatch)
        for slice_cells, want_calls in (
            # 10 rows x 2 queries fit a slice many times: the first release
            # scores itself and the next database in table order, and the
            # grouped database scores nothing on its own first release.
            (mechanisms.SCORE_SLICE_CELLS, [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0]]]),
            (40, [[[0, 1, 0], [0, 0, 1]], [[1, 0, 0]]]),
            # A domain of one slice or more goes one database at a time.
            (20, [[[0, 1, 0]], [[1, 0, 0]], [[0, 0, 1]]]),
        ):
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", slice_cells)
            calls.clear()
            table = mechanisms.ExactLawTable(databases, c, p, 3, ExponentRule.PAPER_QUARTER)
            assert calls == []
            rng = np.random.default_rng(5)
            for d in [databases[1], databases[1], databases[0], databases[1], databases[2], databases[2]]:
                table.release(d, rng)
            assert calls == want_calls
            assert sorted(table._cumulative) == [0, 1, 2]


class TestPreparedDomain:
    """The prepared path: ``ExactLawTable.release``."""

    def test_prepared_release_matches_unprepared(self):
        # Same row, score and estimate, and the generator left in the same
        # state, over both rules with the public L1 norm.
        rng = np.random.default_rng(9)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            d = Database(rng.uniform(0, 4, size=n))
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 5)), n)))
            p = PrivacyParams(float(rng.uniform(0.2, 4.0)))
            rule = list(ExponentRule)[trial % 2]
            l1 = ("public", "private", float(rng.uniform(0, 6)))[trial // 2 % 3]
            table = mechanisms.ExactLawTable([d], c, p, m, rule)
            a_rng, b_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            if l1 != "public":
                continue
            a = exponential_release_exact(d, c, p, m, a_rng, rule, l1=l1)
            b = table.release(d, b_rng)
            assert b.d_prime.as_tuple() == a.d_prime.as_tuple()
            assert b.score == a.score
            assert b.l1_estimate == a.l1_estimate
            assert b_rng.random() == a_rng.random()

    def test_mismatched_domain_is_refused(self):
        # A database of another length, or of the same length but not in
        # the table, has no law there; the refusal comes before the
        # generator is read.
        d, c, p = Database([1.0, 2.0]), QueryClass([[1, 0], [0.5, 0.5]]), PrivacyParams(1.0)
        table = mechanisms.ExactLawTable([d], c, p, 2, ExponentRule.PAPER_QUARTER)
        rng = np.random.default_rng(0)
        for other in (Database([1.0, 2.0, 0.0]), Database([1.0]), Database([2.0, 1.0])):
            with pytest.raises(ValueError, match="not one of the table's"):
                table.release(other, rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestExactRelease:
    def test_huge_alpha_returns_argmax(self):
        d = Database([3, 1])
        c = QueryClass([[1, 0], [0, 1]])
        p = PrivacyParams(alpha=1e6)
        for seed in range(30):
            out = exponential_release_exact(d, c, p, 4, np.random.default_rng(seed))
            assert out.d_prime.as_tuple() == (3, 1)  # the unique perfect surrogate
            assert out.score == 0.0

    def test_tiny_alpha_is_uniform_in_closed_form(self):
        d = Database([2, 0])
        c = QueryClass([[1, 0]])
        dist = exact_output_distribution(d, c, PrivacyParams(alpha=1e-12), 2)
        probs = law_by_row(dist)
        uniform = {key: 1.0 / 3.0 for key in probs}
        assert total_variation(probs, uniform) < 1e-6

    def test_tiny_alpha_sampling_is_uniform_within_noise(self):
        d = Database([2, 0])
        c = QueryClass([[1, 0]])
        p = PrivacyParams(alpha=1e-12)
        rng = np.random.default_rng(113)
        draws = 20_000
        counts: dict = {}
        for _ in range(draws):
            key = exponential_release_exact(d, c, p, 2, rng).d_prime.as_tuple()
            counts[key] = counts.get(key, 0) + 1
        empirical = {k: v / draws for k, v in counts.items()}
        uniform = {k: 1.0 / 3.0 for k in empirical}
        assert total_variation(empirical, uniform) < 0.02

    def test_pinned_two_point_distribution_and_sampling(self):
        # alpha=2, quarter rule: logits {0, -0.5}; P([1,0]) = 1/(1+e^-0.5)
        d = Database([1, 0])
        c = QueryClass([[1, 0]])
        p = PrivacyParams(alpha=2.0)
        dist = exact_output_distribution(d, c, p, 1)
        expected = 1.0 / (1.0 + math.exp(-0.5))
        assert dist.counts[0].tolist() == [1, 0]
        assert dist.probabilities[0] == pytest.approx(expected, abs=1e-12)
        rng = np.random.default_rng(101)
        draws = sum(
            exponential_release_exact(d, c, p, 1, rng).d_prime.as_tuple() == (1, 0)
            for _ in range(20_000)
        )
        assert draws / 20_000 == pytest.approx(expected, abs=0.01)

    def test_score_is_quality_score_of_choice(self):
        rng = np.random.default_rng(77)
        d = Database([1.5, 2.5, 0.0])
        c = QueryClass(rng.uniform(0, 1, size=(4, 3)))
        out = exponential_release_exact(d, c, PrivacyParams(1.0), 3, rng)
        assert out.score == quality_score(d, out.d_prime, c, out.l1_estimate)
        assert out.score <= 0.0
        assert np.allclose(out.d_out.entries, rescale(out.d_prime, out.l1_estimate).entries)

    def test_draw_lands_where_the_printed_law_puts_it(self):
        # The sampler draws from the law exact_output_distribution returns:
        # a uniform u picks the first row whose cumulative probability
        # exceeds u.  The pinned tight-rule instance is one where a sampler
        # weighting by scores * (alpha / divisor), which rounds the quotient
        # first, sends u to (1, 1).  The sweep covers both rules and both L1
        # modes.
        def check(d, c, alpha, m, rule, u, l1="public"):
            out = exponential_release_exact(d, c, PrivacyParams(alpha), m, FixedUniform(u), rule, l1=l1)
            if l1 == "private":
                alpha *= 1.0 - config.L1_ESTIMATE_ALPHA_SHARE
            dist = exact_output_distribution(
                d, c, PrivacyParams(alpha), m, rule, l1=out.l1_estimate
            )
            row = int(np.searchsorted(np.cumsum(dist.probabilities), u, side="right"))
            assert out.d_prime.as_tuple() == tuple(dist.counts[row].tolist())
            return out.d_prime.as_tuple()

        pinned = (Database([1.4, 0.92]), QueryClass([[0.25, 0.95], [0.19, 0.18]]), 2.0, 2)
        assert check(*pinned, ExponentRule.TIGHT_SENSITIVITY, 0.3151814604361125) == (2, 0)

        rng = np.random.default_rng(61)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            d = Database(rng.uniform(0, 3, size=n))
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 4)), n)))
            alpha, m = float(rng.uniform(0.2, 4.0)), int(rng.integers(1, 5))
            rule, l1 = list(ExponentRule)[trial % 2], ("public", "private")[trial // 2 % 2]
            for u in rng.random(5):
                check(d, c, alpha, m, rule, float(u), l1)

    def test_answers_refuse_a_class_of_another_length(self):
        c = QueryClass([[1, 0]])
        out = exponential_release_exact(Database([1, 2]), c, PrivacyParams(1.0), 2, np.random.default_rng(0))
        assert out.answers(c).shape == (1,)
        with pytest.raises(DimensionMismatchError, match="ReleaseOutput.answers"):
            out.answers(QueryClass([[1, 0, 1]]))

    def test_determinism_per_seed(self):
        d = Database([1, 2])
        c = QueryClass([[0.5, 1.0]])
        p = PrivacyParams(0.7)
        a = exponential_release_exact(d, c, p, 3, np.random.default_rng(5))
        b = exponential_release_exact(d, c, p, 3, np.random.default_rng(5))
        assert a.d_prime.as_tuple() == b.d_prime.as_tuple()
        assert a.score == b.score

    def test_budget_refusal_names_mcmc(self):
        with pytest.raises(DomainTooLargeError, match="mcmc"):
            exponential_release_exact(
                Database(np.ones(40)),
                QueryClass([np.ones(40)]),
                PrivacyParams(1.0),
                40,
                np.random.default_rng(0),
            )

    def test_l1_modes(self):
        d = Database([4, 4])
        c = QueryClass([[1, 0]])
        p = PrivacyParams(1.0)
        public = exponential_release_exact(d, c, p, 2, np.random.default_rng(1))
        assert public.l1_estimate == 8.0
        supplied = exponential_release_exact(d, c, p, 2, np.random.default_rng(1), l1=6.0)
        assert supplied.l1_estimate == 6.0
        private = exponential_release_exact(d, c, p, 2, np.random.default_rng(1), l1="private")
        assert private.l1_estimate >= 0.0 and private.l1_estimate != 8.0
        for bad in (-2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="L1 estimate"):
                exponential_release_exact(d, c, p, 2, np.random.default_rng(1), l1=bad)
            with pytest.raises(ValueError, match="L1 estimate"):
                exponential_release_mcmc(d, c, p, 2, 10, np.random.default_rng(1), l1=bad)
            with pytest.raises(ValueError, match="L1 estimate"):
                exact_output_distribution(d, c, p, 2, l1=bad)
            with pytest.raises(ValueError, match="L1 estimate"):
                quality_score(d, SparseSyntheticDatabase(np.array([1, 1])), c, bad)
        with pytest.raises(ValueError):
            exponential_release_exact(d, c, p, 2, np.random.default_rng(1), l1="bogus")

    def test_private_l1_needs_a_generator(self):
        d, c, p = Database([4, 4]), QueryClass([[1, 0]]), PrivacyParams(1.0)
        for release in (
            lambda: exponential_release_exact(d, c, p, 2, None, l1="private"),
            lambda: exponential_release_mcmc(d, c, p, 2, 10, None, l1="private"),
        ):
            with pytest.raises(ValueError) as refused:
                release()
            assert str(refused.value) == "private L1 estimation needs a generator"

    def test_m_below_one_refused_before_any_draw(self):
        d, c, p = Database([4, 4]), QueryClass([[1, 0]]), PrivacyParams(1.0)
        for m in (0, -1):
            for l1 in ("private", "public", 6.0):
                rng = np.random.default_rng(3)
                with pytest.raises(ValueError, match="m must be at least 1"):
                    exponential_release_exact(d, c, p, m, rng, l1=l1)
                assert rng.random() == np.random.default_rng(3).random()


class TestMcmc:
    def setup_method(self):
        self.d = Database([1, 1])
        self.c = QueryClass([[1, 0], [0, 1]])
        self.p = PrivacyParams(alpha=1.0)

    def test_unit_transfer_moves_are_reversible(self):
        # from [2,0] the move 0->1 yields [1,1]; the reverse move 1->0 exists
        # and detailed balance holds exactly for the acceptance rule
        dist = exact_output_distribution(self.d, self.c, self.p, 2)
        weights = law_by_row(dist)
        scale = self.p.alpha / exponent_divisor(ExponentRule.PAPER_QUARTER, 2)
        scores = {}
        for row in dist.counts:
            e = SparseSyntheticDatabase(row)
            scores[e.as_tuple()] = quality_score(self.d, e, self.c, 2.0)
        states = list(weights)
        for x, y in itertools.permutations(states, 2):
            if sum(abs(a - b) for a, b in zip(x, y)) != 2:
                continue
            lhs = weights[x] * acceptance_probability(scores[x], scores[y], scale)
            rhs = weights[y] * acceptance_probability(scores[y], scores[x], scale)
            assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_zero_steps_disallowed(self):
        with pytest.raises(ValueError):
            exponential_release_mcmc(self.d, self.c, self.p, 2, 0, np.random.default_rng(0))
        for rule in ExponentRule:
            with pytest.raises(ValueError, match="m must be at least 1"):
                exponential_release_mcmc(self.d, self.c, self.p, 0, 10, np.random.default_rng(0), rule)

    def test_output_flagged_approximate(self):
        out = exponential_release_mcmc(self.d, self.c, self.p, 2, 50, np.random.default_rng(0))
        assert out.approximate
        assert out.d_prime.m == 2

    def test_score_is_quality_score_of_release(self):
        # The walk's running score drifts from a fresh quality_score in the
        # last bits on float classes; the release reports the exact one.
        for seed in range(20):
            rng = np.random.default_rng((5, seed))
            c = QueryClass(rng.uniform(0, 1, size=(3, 3)))
            d = Database(rng.uniform(0, 4, size=3))
            out = exponential_release_mcmc(d, c, self.p, 5, 200, np.random.default_rng(seed))
            assert out.score == quality_score(d, out.d_prime, c, out.l1_estimate)

    def test_chain_matches_exact_distribution(self):
        # The law of 10^4 seeded 30-step releases.  From [2, 0] the chain is
        # within total variation 5e-10 of its law after 30 steps, so the
        # distance below is sampling noise.
        rng = np.random.default_rng(9)
        releases = 10_000
        counts: dict = {}
        for _ in range(releases):
            key = exponential_release_mcmc(self.d, self.c, self.p, 2, 30, rng).d_prime.as_tuple()
            counts[key] = counts.get(key, 0) + 1
        empirical = {k: v / releases for k, v in counts.items()}
        exact = law_by_row(exact_output_distribution(self.d, self.c, self.p, 2))
        assert total_variation(empirical, exact) < 0.03


class TestChainAgainstReferenceWalk:
    """The chain against ``reference_walk``, which reads the same proposal
    blocks and rescores every candidate from scratch."""

    @staticmethod
    def _cases():
        for trial in range(72):
            rng = np.random.default_rng((71, trial))
            n = 1 + trial % 6
            c = random_query_class(rng, int(rng.integers(1, 6)), n)
            d = Database(rng.uniform(0.0, 4.0, size=n))
            m = int(rng.integers(1, 9))
            rule = list(ExponentRule)[trial // 6 % 2]
            l1 = ("public", "private", 2.5)[trial // 12 % 3]
            steps = int(rng.integers(1, 90))
            yield trial, d, c, m, rule, l1, steps

    @pytest.mark.parametrize("block", [7, mechanisms.CHAIN_BLOCK])
    def test_release_and_counts_match(self, monkeypatch, block):
        monkeypatch.setattr(mechanisms, "CHAIN_BLOCK", block)
        p = PrivacyParams(1.3)
        for trial, d, c, m, rule, l1, steps in self._cases():
            chain_rng, walk_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            out = exponential_release_mcmc(d, c, p, m, steps, chain_rng, rule, l1=l1)
            state, score, l1_estimate = reference_walk(d, c, p, m, steps, walk_rng, rule, l1)
            assert out.d_prime.as_tuple() == state
            assert out.score == score
            assert out.l1_estimate == l1_estimate
            assert chain_rng.random() == walk_rng.random()

    def test_walk_across_full_blocks(self):
        rng = np.random.default_rng(72)
        c = random_query_class(rng, 4, 5)
        d = Database(rng.uniform(0.0, 4.0, size=5))
        p = PrivacyParams(0.8)
        steps = 2 * mechanisms.CHAIN_BLOCK + 5
        out = exponential_release_mcmc(d, c, p, 6, steps, np.random.default_rng(3), l1="private")
        state, score, _ = reference_walk(
            d, c, p, 6, steps, np.random.default_rng(3), ExponentRule.PAPER_QUARTER, "private"
        )
        assert out.d_prime.as_tuple() == state
        assert out.score == score


class TestChainAgainstAllocatingLoop:
    """The chain's steps, which reuse two residual buffers and score by
    ``argmax``, against ``allocating_chain_reference``, the loop they
    replaced: the same released row, score, L1 estimate and generator
    state, bit for bit."""

    @staticmethod
    def check(d, c, p, m, steps, rule, l1, seed):
        chain_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = exponential_release_mcmc(d, c, p, m, steps, chain_rng, rule, l1=l1)
        state, l1_estimate = allocating_chain_reference(d, c, p, m, steps, ref_rng, rule, l1)
        assert out.d_prime.as_tuple() == tuple(state)
        assert out.score == quality_score(d, SparseSyntheticDatabase(state), c, l1_estimate)
        assert out.l1_estimate == l1_estimate
        assert chain_rng.random() == ref_rng.random()

    def test_benchmark_shaped_classes(self):
        # 100 classes of the release-mcmc benchmark's shapes: (k, n) strata
        # of 12-20 uniform queries on 8-10 coordinates, entries in [0, 50],
        # m = 73 (choose_m(0.25, 2)), alpha 1; both rules, and the private
        # L1 norm as well as the benchmark's public one.
        rng = np.random.default_rng(7_301)
        strata = [(12, 8), (12, 10), (16, 8), (20, 8), (16, 10)]
        p = PrivacyParams(1.0)
        for index in range(100):
            k, n = strata[index % len(strata)]
            c = random_query_class(rng, k, n)
            d = Database(rng.uniform(0.0, 50.0, size=n))
            rule = list(ExponentRule)[index % 2]
            l1 = ("public", "private")[index // 2 % 2]
            self.check(d, c, p, 73, 2_000, rule, l1, index)

    @pytest.mark.parametrize("block", [7, mechanisms.CHAIN_BLOCK])
    def test_sizes_rules_and_norms(self, monkeypatch, block):
        monkeypatch.setattr(mechanisms, "CHAIN_BLOCK", block)
        cases = itertools.product(
            (1, 3, 64, 256), (1, 2, 9), ExponentRule, ("public", "private", 2.5), (1.3, 1e15)
        )
        for trial, (k, n, rule, l1, alpha) in enumerate(cases):
            rng = np.random.default_rng((73, trial))
            c = random_query_class(rng, k, n)
            d = Database(rng.uniform(0.0, 4.0, size=n))
            m = int(rng.integers(1, 13))
            self.check(d, c, PrivacyParams(alpha), m, 120, rule, l1, trial)

    def test_tied_maxima_from_duplicated_rows(self):
        # Every query appears three times, so the largest residual magnitude
        # is always reached by at least three queries.
        for trial in range(24):
            rng = np.random.default_rng((74, trial))
            rows = rng.uniform(0.0, 1.0, size=(4, 6))
            c = QueryClass(np.vstack([rows, rows[::-1], rows]))
            d = Database(rng.uniform(0.0, 10.0, size=6))
            p = PrivacyParams((1.0, 1e15)[trial % 2])
            rule = list(ExponentRule)[trial // 2 % 2]
            self.check(d, c, p, 9, 600, rule, "public", trial)

    def test_boolean_cube_moves_that_leave_queries_unchanged(self):
        # A query holding both or neither of the two coordinates a move
        # touches gets (r + a) - a, which need not be r in floating point.
        for trial in range(24):
            rng = np.random.default_rng((75, trial))
            n = 3 + trial % 4
            c = boolean_indicator_class(n)
            d = Database(rng.uniform(0.0, 20.0, size=n))
            p = PrivacyParams((1.0, 1e15)[trial % 2])
            rule = list(ExponentRule)[trial // 2 % 2]
            l1 = ("public", "private", 7.3)[trial // 4 % 3]
            self.check(d, c, p, 17, 1_500, rule, l1, trial)

    def test_near_flat_query_pins_the_summation_order(self):
        # One query is 0.5 on every coordinate give or take a few ulps and
        # holds the largest residual, so every move changes the score by a
        # few ulps; at alpha 1e15 that decides acceptance.  A residual
        # updated as (col_i - col_j) + r instead of (r + col_i) - col_j
        # rounds differently and moves the chain elsewhere.
        for trial in range(12):
            rng = np.random.default_rng((76, trial))
            n = 2 + trial % 5
            flat = 0.5 + rng.integers(-4, 5, size=n) * 2.0**-53
            c = QueryClass(np.vstack([flat, 0.1 * rng.uniform(0.0, 1.0, size=(3, n))]))
            d = Database(rng.uniform(0.0, 20.0, size=n))
            rule = list(ExponentRule)[trial % 2]
            self.check(d, c, PrivacyParams(1e15), 9, 600, rule, 0.5 * l1_norm(d), trial)

    def test_all_zero_database_at_the_public_norm(self):
        # The L1 norm is 0, so every scaled column is a signed zero (-0.0
        # where a coefficient is -0.0, and the negated halves flip each
        # sign), every residual entry is +0.0 or -0.0, and every candidate
        # scores a zero.
        for trial in range(24):
            rng = np.random.default_rng((77, trial))
            n = 1 + trial % 6
            rows = rng.uniform(0.0, 1.0, size=(1 + trial % 5, n))
            rows[rng.random(rows.shape) < 0.5] = -0.0
            rule = list(ExponentRule)[trial % 2]
            p = PrivacyParams((1.0, 1e15)[trial // 2 % 2])
            d = Database(np.zeros(n))
            self.check(d, QueryClass(rows), p, 1 + trial % 9, 300, rule, "public", trial)

    def test_private_norm_estimate_clamped_to_zero(self):
        # Half the Laplace estimates of a zero norm are negative and clamp to
        # 0.0, so the scaled columns are signed zeros, and so is the residual
        # of a zero database; the other trials keep a small positive estimate.
        clamped = 0
        for trial in range(40):
            rng = np.random.default_rng((78, trial))
            n = 2 + trial % 5
            c = random_query_class(rng, 2 + trial % 4, n)
            d = Database(np.zeros(n) if trial % 2 else rng.uniform(0.0, 1e-3, size=n))
            rule = list(ExponentRule)[trial // 2 % 2]
            self.check(d, c, PrivacyParams(1.0), 7, 300, rule, "private", trial)
            share = config.L1_ESTIMATE_ALPHA_SHARE
            clamped += estimate_l1(d, share, np.random.default_rng(trial)) == 0.0
        assert clamped >= 10


def doubled_step(r, a, b):
    """The chain's step arithmetic on sign-doubled vectors: ``(resid +
    col_i) - col_j`` with each of the three held as ``[v, -v]``."""
    resid, col_i, col_j = (np.concatenate((v, -v)) for v in (r, a, b))
    trial = np.empty_like(resid)
    np.add(resid, col_i, trial)
    np.subtract(trial, col_j, trial)
    return trial


# Floats up to 1e300 in magnitude, so no sum of three overflows, with signed
# zeros, subnormals and repeats drawn often enough to meet exact cancellation.
step_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0, -1.0, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300),
)
step_vectors = st.integers(1, 12).flatmap(
    lambda k: st.tuples(*[st.lists(step_floats, min_size=k, max_size=k)] * 3)
)


class TestSignDoubledStep:
    """The identity the chain's scoring rests on.  Round-to-nearest is
    symmetric, so the second half of a sign-doubled step is the negation of
    the first: bit for bit on every nonzero entry, while an exact
    cancellation rounds to +0.0 in both halves.  So the value at ``argmax``
    is the largest magnitude of the plain step."""

    @settings(max_examples=400, deadline=None)
    @given(step_vectors)
    @example(([1.0, -0.0, 0.0], [-1.0, -0.0, 0.0], [0.0, 0.0, -0.0]))
    def test_second_half_negates_the_first(self, vectors):
        r, a, b = (np.array(v) for v in vectors)
        k = len(r)
        t = (r + a) - b
        t2 = doubled_step(r, a, b)
        first, second = t2[:k], t2[k:]
        assert np.array_equal(first.view(np.int64), t.view(np.int64))
        nonzero = first != 0.0
        assert np.array_equal((second == 0.0), ~nonzero)
        assert np.array_equal(second[nonzero].view(np.int64), (-first[nonzero]).view(np.int64))
        assert -t2.item(t2.argmax()) == -np.abs(t).max()

    @settings(max_examples=200, deadline=None)
    @given(step_vectors, st.integers(0, 2), st.integers(0, 11))
    def test_planted_nan_scores_nan(self, vectors, which, index):
        vectors = [np.array(v) for v in vectors]
        vectors[which][index % len(vectors[which])] = math.nan
        t2 = doubled_step(*vectors)
        assert math.isnan(-t2.item(t2.argmax()))


class TopUniforms:
    """A generator stub whose uniforms are all 1 - 2**-53, the largest below
    1, which make laplace_noise's largest positive draw; it counts reads."""

    reads = 0

    def random(self, size=None):
        self.reads += 1
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


class TestLaplace:
    def test_noise_matches_inverse_cdf_shape(self):
        rng = np.random.default_rng(3)
        sample = laplace_noise(rng, 2.0, size=200_000)
        assert abs(np.mean(np.abs(sample)) - 2.0) < 0.03
        assert abs(np.median(sample)) < 0.02

    def test_vanishing_noise_at_huge_alpha(self):
        d = Database([2, 3, 1])
        c = QueryClass([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.5]])
        answers = laplace_release(d, c, PrivacyParams(alpha=1e9), np.random.default_rng(0))
        assert np.abs(answers - c.matrix @ d.entries).max() < 1e-6

    def test_mean_absolute_noise_is_k_over_alpha(self):
        d = Database([5, 5])
        c = QueryClass([[1, 0], [0, 1], [1, 1], [0.5, 0.5]])
        p = PrivacyParams(alpha=2.0)
        rng = np.random.default_rng(17)
        truth = c.matrix @ d.entries
        noise = []
        for _ in range(25_000):
            noise.append(np.abs(laplace_release(d, c, p, rng) - truth))
        mean_abs = float(np.mean(noise))
        assert mean_abs == pytest.approx(c.k / p.alpha, rel=0.02)

    def test_symmetry_about_zero(self):
        d = Database([10.0])
        c = QueryClass([[1.0]])
        rng = np.random.default_rng(23)
        draws = np.array([laplace_release(d, c, PrivacyParams(1.0), rng)[0] - 10.0 for _ in range(20_000)])
        assert abs(np.median(draws)) < 0.05

    def test_scale_validation(self):
        for bad in (math.nan, math.inf, 0.0, -1.0):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match=f"scale must be finite and positive, got {bad}"):
                laplace_noise(rng, bad)
            # Refused before the generator is read.
            assert rng.random() == np.random.default_rng(0).random()

    def test_alpha_too_small_for_the_scale_refused_by_name(self):
        # k/alpha overflows to inf at alpha = 1e-320; the refusal names alpha
        # and the scale, and comes before the generator is read.
        d, c = Database([1.0, 2.0]), QueryClass([[1, 0], [0, 1], [1, 1]])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"alpha=1e-320 is too small: the Laplace scale 3/alpha overflows"):
            laplace_release(d, c, PrivacyParams(alpha=1e-320), rng)
        assert rng.random() == np.random.default_rng(0).random()
        assert np.isfinite(laplace_release(d, c, PrivacyParams(alpha=1e-300), rng)).all()

    def test_largest_accepted_scale_draws_finite_noise(self):
        # Uniforms of 0 give laplace_noise's largest draw, scale * LAPLACE_TAIL.
        # It is finite at the largest scale the check accepts; one ulp above,
        # the scale is refused.
        class Zeros:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        tail = mechanisms.LAPLACE_TAIL
        assert tail == 36.04365338911715
        top = np.finfo(np.float64).max / tail
        while math.isinf(top * tail):
            top = math.nextafter(top, 0.0)
        while not math.isinf(math.nextafter(top, math.inf) * tail):
            top = math.nextafter(top, math.inf)
        assert mechanisms._laplace_scale(top, 1.0, "alpha") == top
        assert laplace_noise(Zeros(), top) == -top * tail
        assert np.isfinite(laplace_noise(Zeros(), top, size=3)).all()
        with pytest.raises(ValueError, match="overflows to inf in its largest draw"):
            mechanisms._laplace_scale(math.nextafter(top, math.inf), 1.0, "alpha")

    def test_true_answer_that_overflows_after_the_draw_is_refused(self):
        # 1.7e308 plus the largest draw at scale 1e306 (about 3.6e307) passes
        # the largest float; the answer was once inf, with numpy's overflow
        # RuntimeWarning.  1e308 still fits, and is answered.
        c = QueryClass([[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = TopUniforms()
            with pytest.raises(
                ValueError, match=r"the largest true answer 1\.7e\+308 plus the largest .* overflows to inf"
            ):
                laplace_release(Database([1.7e308]), c, PrivacyParams(1e-306), rng)
            assert rng.reads == 0
            answer = laplace_release(Database([1e308]), c, PrivacyParams(1e-306), rng)
        assert rng.reads == 1 and np.isfinite(answer).all() and answer[0] > 1e308

    def test_finite_scale_keeps_values_and_stream(self):
        # Pinned from the sampler as it was before the finiteness check.
        rng = np.random.default_rng(5)
        assert laplace_noise(rng, 2.0) == 1.8832470670738035
        assert rng.random() == 0.8079407897364937
        rng = np.random.default_rng(5)
        noise = laplace_noise(rng, 0.5, size=3).tolist()
        assert noise == [0.4708117667684509, 0.47840219357337355, 0.015565346380599582]
        assert rng.random() == 0.2858013800881416


class TestEstimateL1:
    def test_huge_share_recovers_norm(self):
        d = Database([3, 4])
        assert estimate_l1(d, 1e9, np.random.default_rng(0)) == pytest.approx(7.0, abs=1e-6)

    def test_zero_database_clamped_nonnegative(self):
        d = Database([0, 0, 0])
        rng = np.random.default_rng(1)
        estimates = [estimate_l1(d, 0.5, rng) for _ in range(2_000)]
        assert min(estimates) == 0.0  # half the raw draws are negative; all clamp to 0

    def test_mean_and_clamp_bias(self):
        d = Database([10.0])
        rng = np.random.default_rng(2)
        draws = np.array([estimate_l1(d, 1.0, rng) for _ in range(100_000)])
        sampling_margin = 2.0 * 1.0 / math.sqrt(100_000)
        clamp_bias_bound = 0.01  # analytic bias is (1/2)e^-10 here
        assert abs(float(draws.mean()) - 10.0) < sampling_margin + clamp_bias_bound

    def test_share_validation(self):
        # A NaN share once came back as a clamped 0.0 estimate.
        for bad in (math.nan, math.inf, 0.0, -1.0):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match=f"alpha_share must be finite and positive, got {bad}"):
                estimate_l1(Database([1.0]), bad, rng)
            assert rng.random() == np.random.default_rng(0).random()

    def test_share_too_small_for_the_scale_refused_by_name(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"alpha_share=1e-310 is too small: the Laplace scale 1.0/alpha_share"):
            estimate_l1(Database([1.0]), 1e-310, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_norm_that_overflows_after_the_draw_is_refused(self):
        # The estimate was once inf, with no warning: it adds Python floats.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = TopUniforms()
            with pytest.raises(
                ValueError, match=r"the L1 norm 1\.7e\+308 plus the largest .* overflows to inf"
            ):
                estimate_l1(Database([1.7e308]), 1e-306, rng)
            assert rng.reads == 0
            estimate = estimate_l1(Database([1e308]), 1e-306, rng)
        assert rng.reads == 1 and 1e308 < estimate < math.inf

    def test_finite_share_keeps_value_and_stream(self):
        # Pinned from the estimate as it was before the finiteness check.
        rng = np.random.default_rng(6)
        assert estimate_l1(Database([3.0, 4.0]), 0.25, rng) == 7.317596038989532
        assert rng.random() == 0.34327086981333843


class TestUtility:
    def test_threshold_formula(self):
        assert utility_threshold(7, 4, 0.5, 1.0) == pytest.approx(
            6.0 * 7 * math.log(4) / 0.5
        )
        # Pinned from the threshold as it was before the finiteness check.
        assert utility_threshold(3, 4, 0.25, 0.5) == 199.62638800126425
        with pytest.raises(ValueError):
            utility_threshold(0, 4, 0.5, 1.0)
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=re.escape(f"eta must lie in (0, 1], got {bad}")):
                utility_threshold(3, 4, bad, 1.0)
            with pytest.raises(ValueError, match=f"alpha must be finite and positive, got {bad}"):
                utility_threshold(3, 4, 0.5, bad)
        with pytest.raises(ValueError, match=re.escape("eta must lie in (0, 1], got 1.5")):
            utility_threshold(3, 4, 1.5, 1.0)

    def test_reads_the_constant_at_call_time(self, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_CU", 3.0)
        assert utility_threshold(7, 4, 0.5, 1.0) == 3.0 * 7 * math.log(4) / (0.5 * 1.0)

    def test_relative_error_within_2eta_above_threshold(self):
        # the testable utility statement at eta = 1/2 over seeded releases
        rng = np.random.default_rng(57)
        eta, alpha, delta = 0.5, 1.0, 0.1
        c = QueryClass(rng.uniform(0, 1, size=(6, 4)))
        dimension = fsd(c, eta / 5.0, d_max=2).d
        m = choose_m(eta, dimension)
        threshold = utility_threshold(m, 4, eta, alpha)
        weights = rng.uniform(0.2, 1.0, size=4)
        d = Database(weights * (1.1 * threshold / weights.sum()))
        p = PrivacyParams(alpha=alpha)
        failures = 0
        for trial in range(100):
            out = exponential_release_exact(d, c, p, m, np.random.default_rng((57, trial)))
            if max_error(c, d, out.d_out) > 2 * eta * l1_norm(d):
                failures += 1
        assert failures / 100 <= delta
