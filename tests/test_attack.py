import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers_oracles import (
    boolean_indicator_class,
    per_trial_attack_reference,
    random_query_class,
)
from sparsedp import (
    Database,
    DimensionMismatchError,
    ExactLawTable,
    ExponentRule,
    FamilySearchError,
    PrivacyParams,
    QueryClass,
    ShatteringWitness,
    attack_experiment,
    build_family,
    evaluate,
    exact_output_distribution,
    exponential_release_exact,
    exponential_release_mcmc,
    laplace_release,
    partition_buckets,
    reconstruct,
)
from sparsedp import attack

BOOL4 = boolean_indicator_class(4)


def make_witness(subset, thresholds, gamma):
    assignment = {p: 0 for p in itertools.product((0, 1), repeat=len(subset))}
    return ShatteringWitness(
        subset=tuple(subset), thresholds=tuple(thresholds), assignment=assignment, gamma=gamma
    )


def bucket_recount(witness):
    """Direct definitional recount: bucket j holds (j-1)*gamma < r <= j*gamma."""
    gamma = witness.gamma
    n_buckets = math.ceil(1.0 / gamma)
    buckets = {j: [] for j in range(1, n_buckets + 1)}
    for index, r in zip(witness.subset, witness.thresholds):
        placed = False
        for j in range(1, n_buckets + 1):
            if (j - 1) * gamma < r <= j * gamma + 1e-12:
                buckets[j].append(index)
                placed = True
                break
        if not placed:
            buckets[1].append(index)
    return buckets


class TestPartitionBuckets:
    def test_two_clean_buckets_tie_goes_to_first(self):
        w = make_witness((0, 1, 2, 3), (0.1, 0.15, 0.9, 0.95), 0.25)
        j_star, bucket = partition_buckets(w)
        assert bucket == (0, 1)
        assert j_star == 1

    def test_all_equal_thresholds_single_bucket(self):
        w = make_witness((2, 5, 7), (0.4, 0.4, 0.4), 0.3)
        _, bucket = partition_buckets(w)
        assert bucket == (2, 5, 7)

    def test_size_floor_and_recount_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            gamma = float(rng.uniform(0.05, 0.5))
            subset = tuple(sorted(rng.choice(20, size=d, replace=False)))
            thresholds = tuple(rng.uniform(0, 1, size=d))
            w = make_witness(subset, thresholds, gamma)
            j_star, bucket = partition_buckets(w)
            assert len(bucket) >= math.floor(gamma * d)
            counted = bucket_recount(w)
            assert len(bucket) == max(len(v) for v in counted.values())
            assert sorted(bucket) == sorted(counted[j_star])
            spread = max(w.thresholds[w.subset.index(i)] for i in bucket) - min(
                w.thresholds[w.subset.index(i)] for i in bucket
            )
            assert spread <= gamma + 1e-12


class TestBuildFamily:
    def test_full_boolean_cube(self):
        family = build_family(BOOL4, 0.5, 4)
        assert family.bucket == (0, 1, 2, 3)
        assert family.d == 4
        assert len(family.subsets()) == 6

    def test_disjoint_subsets_hand_value(self):
        family = build_family(BOOL4, 0.5, 4)
        t, tp = (0, 1), (2, 3)
        q = family.query_for(t)
        gap = evaluate(q, family.database_for(t)) - evaluate(q, family.database_for(tp))
        assert gap == pytest.approx(2.0)
        assert gap >= (0.5 / 2.0) * 4

    def test_gap_inequality_on_random_families(self):
        rng = np.random.default_rng(19)
        built = 0
        trial = 0
        while built < 10 and trial < 200:
            trial += 1
            c = random_query_class(rng, k=int(rng.integers(6, 13)), n=int(rng.integers(3, 7)))
            try:
                family = build_family(c, 0.25, 3)
            except FamilySearchError:
                continue
            built += 1
            gamma = family.gamma
            for t in family.subsets():
                q = family.query_for(t)
                base = evaluate(q, family.database_for(t))
                for tp in family.subsets():
                    symdiff = len(set(t) ^ set(tp))
                    gap = base - evaluate(q, family.database_for(tp))
                    assert gap >= (gamma / 2.0) * symdiff - 1e-12
        assert built == 10

    def test_structured_failure_when_unshatterable(self):
        c = QueryClass([[0.4, 0.4], [0.4, 0.4]])
        with pytest.raises(FamilySearchError):
            build_family(c, 0.25, 2)

    def test_family_holds_its_databases(self):
        family = build_family(boolean_indicator_class(6), 0.5, 6)
        assert len(family.databases) == len(family.subsets()) == 20
        for s, (t, d_t) in enumerate(zip(family.subsets(), family.databases)):
            assert d_t.entries.tolist() == [float(i in t) for i in range(6)]
            assert family.database_for(t) is d_t
            assert family.database_for(t[::-1]) is d_t
            assert family.members[s].tolist() == [i in t for i in range(6)]
            assert family.base[s] == evaluate(family.query_for(t), d_t)
        for bad in ((0, 1), (0, 1, 2, 3), (0, 1, 6)):
            with pytest.raises(ValueError, match="not a half-size subset"):
                family.database_for(bad)

    def test_odd_bucket_truncated_to_even(self):
        # three thresholds land in one bucket, so one index is dropped
        c = boolean_indicator_class(3)
        family = build_family(c, 0.5, 3)
        assert family.d == 2
        assert family.bucket == (0, 1)


class TestReconstruct:
    def test_noiseless_recovery(self):
        family = build_family(BOOL4, 0.5, 4)
        for t in family.subsets():
            assert reconstruct(family.database_for(t), family) == t

    def test_matches_exhaustive_argmin(self):
        family = build_family(BOOL4, 0.5, 4)
        rng = np.random.default_rng(23)
        for _ in range(40):
            answers = Database(rng.uniform(0, 2, size=4))
            got = reconstruct(answers, family)
            values = {}
            for tp in family.subsets():
                q = family.query_for(tp)
                values[tp] = evaluate(q, family.database_for(tp)) - evaluate(q, answers)
            best = min(sorted(values), key=values.get)
            assert got == best

    def test_permutation_equivariance(self):
        family = build_family(BOOL4, 0.5, 4)
        rng = np.random.default_rng(27)
        for _ in range(25):
            answers = rng.uniform(0, 2, size=4)
            sigma = rng.permutation(4)
            permuted = np.empty(4)
            permuted[sigma] = answers  # coordinate i moves to sigma(i)
            t_base = reconstruct(Database(answers), family)
            t_perm = reconstruct(Database(permuted), family)
            assert tuple(sorted(int(sigma[i]) for i in t_base)) == t_perm

    def test_bounded_perturbation_bounds_symdiff(self):
        family = build_family(BOOL4, 0.5, 4)
        rng = np.random.default_rng(37)
        for _ in range(40):
            t = family.subsets()[int(rng.integers(6))]
            d_t = family.database_for(t)
            answers = Database(np.abs(d_t.entries + rng.uniform(-0.3, 0.3, size=4)))
            eps_hat = max(
                abs(evaluate(family.query_class[qi], d_t)
                    - evaluate(family.query_class[qi], answers))
                for qi in family.used.tolist()
            )
            star = reconstruct(answers, family)
            assert len(set(t) ^ set(star)) <= 4.0 * eps_hat / family.gamma + 1e-12

    def test_symdiff_always_even(self):
        family = build_family(BOOL4, 0.5, 4)
        rng = np.random.default_rng(31)
        for _ in range(30):
            t = family.subsets()[int(rng.integers(6))]
            star = reconstruct(Database(rng.uniform(0, 2, size=4)), family)
            assert len(set(t) ^ set(star)) % 2 == 0


class TestAttackExperiment:
    def setup_method(self):
        self.family = build_family(BOOL4, 0.5, 4)
        self.p = PrivacyParams(alpha=1.0)

    def test_identity_mechanism_fully_broken(self):
        report = attack_experiment(
            lambda db, rng: db, self.family, 300, np.random.default_rng(1), alpha=1.0
        )
        assert report.recovery_rate_target == 1.0
        assert report.mean_symdiff == 0.0
        assert report.symdiff_counts == {0: 300}
        assert report.reconstruction_bound_violations == 0

    def test_trial_streams_follow_the_documented_split(self):
        # Trial i draws from SeedSequence(seed, spawn_key=(i,)): its subset,
        # its swapped pair, then whatever the mechanism draws.
        seed, trials = 12345, 8
        draws = []

        def recording(db, rng):
            draws.append(rng.random())
            return db

        attack_experiment(recording, self.family, trials, np.random.default_rng(seed))
        half = len(self.family.bucket) // 2
        expected = []
        for i in range(trials):
            stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            stream.integers(len(self.family.subsets()))
            stream.integers(half)
            stream.integers(len(self.family.bucket) - half)
            expected += [stream.random(), stream.random()]
        assert draws == expected

    def test_exact_mechanism_bound_and_ground_truth(self):
        mech = lambda db, rng: exponential_release_exact(db, BOOL4, self.p, 2, rng)
        trials = 3_000
        report = attack_experiment(mech, self.family, trials, np.random.default_rng(2), alpha=1.0)
        assert report.reconstruction_bound_violations == 0
        assert report.mechanism_failures == 0

        # ground truth: push the exact output law through the reconstruction
        subsets = self.family.subsets()
        table = {}
        for t in subsets:
            d_t = self.family.database_for(t)
            dist = exact_output_distribution(d_t, BOOL4, self.p, 2)
            hit = {}
            for row, prob in zip(dist.counts, dist.probabilities.tolist()):
                star = reconstruct(Database(row.astype(float)), self.family)
                for x in self.family.bucket:
                    hit[x] = hit.get(x, 0.0) + prob * (x in star)
            table[t] = hit
        rate_in = np.mean([
            table[t][x] for t in subsets for x in t
        ])
        swaps = []
        for t in subsets:
            for x in t:
                for y in self.family.bucket:
                    if y not in t:
                        t_swapped = tuple(sorted(set(t) - {x} | {y}))
                        swaps.append(table[t_swapped][x])
        rate_out = np.mean(swaps)
        exact_ratio = rate_in / rate_out
        assert exact_ratio <= math.e  # the single-change bound happens to hold here
        margin = 4.0 * math.sqrt(0.25 / trials)
        assert abs(report.recovery_rate_target - rate_in) < margin
        assert abs(report.recovery_rate_swapped - rate_out) < margin
        assert report.double_change_bound == pytest.approx(math.exp(2.0))
        assert report.implied_bound == "double_change"
        # a private mechanism must pay at least the accuracy floor the
        # recovery argument implies
        assert report.mean_eps_hat > report.epsilon_floor

    @pytest.mark.parametrize("dimension", [4, 6])
    def test_law_table_report_equals_per_call_sampler_report(self, dimension):
        c = boolean_indicator_class(dimension)
        family = build_family(c, 0.5, dimension)
        m = dimension // 2
        for rule in ExponentRule:
            laws = ExactLawTable(family.databases, c, self.p, m, rule)
            table = lambda db, rng: exponential_release_exact(db, c, self.p, m, rng, rule, laws=laws)
            per_call = lambda db, rng: exponential_release_exact(db, c, self.p, m, rng, rule)
            a = attack_experiment(table, family, 300, np.random.default_rng(8), alpha=1.0)
            b = attack_experiment(per_call, family, 300, np.random.default_rng(8), alpha=1.0)
            assert a == b
            assert a.completed == 300 and len(set(a.per_trial)) > 1

    def test_huge_noise_flags_vacuous_reconstruction(self):
        def noisy(db, rng):
            return Database(db.entries + rng.uniform(4.0, 8.0, size=db.n))

        report = attack_experiment(noisy, self.family, 100, np.random.default_rng(3), alpha=1.0)
        assert report.vacuous_fraction == 1.0
        assert report.reconstruction_bound_violations == 0

    def test_mechanism_failures_counted(self, monkeypatch):
        def broken(db, rng):
            raise RuntimeError("mechanism exploded")

        def budget_refusal(db, rng):
            return exponential_release_exact(db, BOOL4, self.p, 2, rng)

        def division(db, rng):
            return 1 / 0

        monkeypatch.setenv("FSDP_BUDGET", "1")

        for mech in (broken, budget_refusal, division):
            report = attack_experiment(mech, self.family, 25, np.random.default_rng(4), alpha=1.0)
            assert report.mechanism_failures == 25
            assert report.completed == 0
            assert report.recovery_ratio is None

    def test_programming_errors_propagate(self):
        def raising(error):
            def mech(db, rng):
                raise error("a bug in the mechanism")

            return mech

        for error in (TypeError, AttributeError, ValueError):
            with pytest.raises(error, match="a bug"):
                attack_experiment(raising(error), self.family, 5, np.random.default_rng(4))
        wrong_class = QueryClass(np.ones((2, 3)))
        misconfigured = (
            lambda db, rng: exponential_release_exact(db, wrong_class, self.p, 2, rng),
            lambda db, rng: Database(np.ones(3)),
        )
        for mech in misconfigured:
            with pytest.raises(DimensionMismatchError):
                attack_experiment(mech, self.family, 5, np.random.default_rng(4))

    def test_non_finite_answer_vector_refused(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                attack_experiment(
                    lambda db, rng: np.full(BOOL4.k, bad), self.family, 3, np.random.default_rng(6)
                )

    def test_answer_vector_mechanism(self):
        # noise scale is k/alpha = 16/400, small enough for clean recovery
        mech = lambda db, rng: laplace_release(db, BOOL4, PrivacyParams(alpha=400.0), rng)
        report = attack_experiment(mech, self.family, 200, np.random.default_rng(5), alpha=400.0)
        assert report.completed == 200
        assert report.reconstruction_bound_violations == 0
        assert report.recovery_rate_target > 0.95

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            attack_experiment(lambda db, rng: db, self.family, 0, np.random.default_rng(0))

    def test_seed_determinism_and_per_trial_shape(self):
        mech = lambda db, rng: exponential_release_exact(db, BOOL4, self.p, 2, rng)
        a = attack_experiment(mech, self.family, 50, np.random.default_rng(7), alpha=1.0)
        b = attack_experiment(mech, self.family, 50, np.random.default_rng(7), alpha=1.0)
        assert a.per_trial == b.per_trial
        assert len(a.per_trial) == 50
        assert a.to_dict() == b.to_dict()


def jittered_cube_class(rng, d=4):
    """The 2^d patterns of {0,1}^d at levels 0.1/0.9 with per-entry jitter,
    plus random rows, so every answer is a non-integer sum."""
    cube = np.array(list(itertools.product((0.1, 0.9), repeat=d)))
    rows = np.vstack([cube + rng.uniform(-0.05, 0.05, size=cube.shape), rng.uniform(0, 1, (8, d))])
    return QueryClass(rows[rng.permutation(len(rows))])


def brute_force_trials(family, calls):
    """Recompute each trial from the recorded (database, output) pairs with
    ``evaluate``: (eps_hat, symdiff, x in T*, x in T*_swapped)."""
    queries = family.query_class

    def answer(output, qi):
        if isinstance(output, Database):
            return evaluate(queries[qi], output)
        return float(output[qi])

    def argmin(output):
        values = {
            t: evaluate(family.query_for(t), family.database_for(t))
            - answer(output, family.query_index_for(t))
            for t in family.subsets()
        }
        return min(family.subsets(), key=values.get)

    rows = []
    for (d_hidden, out_hidden), (d_swapped, out_swapped) in zip(calls[::2], calls[1::2]):
        hidden = tuple(np.flatnonzero(d_hidden.entries).tolist())
        swapped = tuple(np.flatnonzero(d_swapped.entries).tolist())
        (x,) = set(hidden) - set(swapped)
        eps_hat = max(
            abs(evaluate(queries[qi], d_hidden) - answer(out_hidden, qi))
            for qi in family.used.tolist()
        )
        t_star = argmin(out_hidden)
        rows.append((eps_hat, len(set(hidden) ^ set(t_star)), x in t_star, x in argmin(out_swapped)))
    return rows


@pytest.mark.parametrize("output", ["database", "answers"])
def test_trials_match_brute_force_on_float_class(output):
    rng = np.random.default_rng(61)
    c = jittered_cube_class(rng)
    family = build_family(c, 0.3, 4)
    assert family.d == 4
    calls = []

    def noisy(db, trial_rng):
        if output == "database":
            out = Database(np.abs(db.entries + trial_rng.normal(0.0, 0.4, size=db.n)))
        else:
            out = c.matrix @ db.entries + trial_rng.normal(0.0, 0.4, size=c.k)
        calls.append((db, out))
        return out

    report = attack_experiment(noisy, family, 300, np.random.default_rng(62), alpha=1.0)
    expected = brute_force_trials(family, calls)
    assert report.completed == len(expected) == 300
    # The family answers a database by one matmul, which may round the last
    # bit differently from per-query ``evaluate``; the argmin must not move.
    for (eps_hat, symdiff), (want_eps, want_symdiff, _, _) in zip(report.per_trial, expected):
        assert eps_hat == pytest.approx(want_eps, rel=1e-12, abs=1e-12)
        assert symdiff == want_symdiff
    assert {s for _, s in report.per_trial} != {0}
    assert report.recovery_rate_target == np.mean([row[2] for row in expected])
    assert report.recovery_rate_swapped == np.mean([row[3] for row in expected])


def shuffled_cube_class(d, rng):
    """All 2^d boolean subset queries on d coordinates, columns shuffled."""
    return QueryClass(np.array(list(itertools.product((0.0, 1.0), repeat=d)))[:, rng.permutation(d)])


def reference_mechanisms(family):
    """Fresh mechanisms of every kind the attack runs against, by name."""
    c, p, m = family.query_class, PrivacyParams(alpha=1.0), 2
    laws = ExactLawTable(family.databases, c, p, m, ExponentRule.PAPER_QUARTER)

    def flaky(db, rng):
        if rng.random() < 0.3:
            raise RuntimeError("refused")
        return Database(np.abs(db.entries + rng.normal(0.0, 0.3, size=db.n)))

    return {
        "identity": lambda db, rng: db,
        "law-table": lambda db, rng: exponential_release_exact(db, c, p, m, rng, laws=laws),
        "per-call": lambda db, rng: exponential_release_exact(db, c, p, m, rng),
        "laplace": lambda db, rng: laplace_release(db, c, PrivacyParams(alpha=40.0), rng),
        "mcmc": lambda db, rng: exponential_release_mcmc(db, c, p, m, 15, rng),
        "flaky": flaky,
    }


def reference_families():
    rng = np.random.default_rng(71)
    families = [build_family(shuffled_cube_class(d, rng), 0.5, d) for d in range(2, 9)]
    # At d = 6 a hidden subset's true answers add three float columns, so
    # their order shows in the last bits.
    for d in (4, 6):
        families.append(build_family(jittered_cube_class(np.random.default_rng(3), d), 0.3, d))
    assert [family.d for family in families] == [2, 2, 4, 4, 6, 6, 8, 4, 6]
    return families


def assert_matches_reference(family, name, trials, seed):
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = attack_experiment(reference_mechanisms(family)[name], family, trials, new_rng, alpha=1.0)
    want = per_trial_attack_reference(
        reference_mechanisms(family)[name], family, trials, old_rng, alpha=1.0
    )
    assert got.to_dict() == want.to_dict()
    assert got.per_trial == want.per_trial
    assert list(got.symdiff_counts.items()) == list(want.symdiff_counts.items())
    assert new_rng.random() == old_rng.random()
    return got


class TestChunkedTrialsAgainstPerTrialLoop:
    """The chunked trials against ``per_trial_attack_reference``, the loop
    they replaced, at chunk sizes that split the trials unevenly."""

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_every_family_and_mechanism(self, monkeypatch, chunk):
        monkeypatch.setattr(attack, "TRIAL_CHUNK", chunk)
        mixed = 0  # runs where some trials failed and some completed
        for seed, family in enumerate(reference_families()):
            for name in reference_mechanisms(family):
                report = assert_matches_reference(family, name, 3 * chunk + 5, seed)
                mixed += 0 < report.mechanism_failures < report.trials
        assert mixed > 0

    def test_default_chunk(self):
        trials = 3 * attack.TRIAL_CHUNK + 5
        families = reference_families()
        for family in (families[4], families[-1]):
            for name in reference_mechanisms(family):
                report = assert_matches_reference(family, name, trials, family.d)
                assert report.completed > 0
                assert len(set(report.per_trial)) > 1 or name == "identity"

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_bad_output_raises_at_its_trial(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(attack, "TRIAL_CHUNK", chunk)
        family = build_family(BOOL4, 0.5, 4)
        for run in (attack_experiment, per_trial_attack_reference):
            calls = []

            def nan_at_trial_3(db, rng):
                calls.append(db)
                if len(calls) == 5:
                    return np.full(BOOL4.k, math.nan)
                return BOOL4.matrix @ db.entries

            with pytest.raises(ValueError, match=r"non-finite answers at query indices \[0, 1"):
                run(nan_at_trial_3, family, 20, np.random.default_rng(9))
            assert len(calls) == 6


def test_identity_trials_keep_memory_flat():
    family = build_family(boolean_indicator_class(8), 0.5, 8)
    tracemalloc.start()
    try:
        attack_experiment(lambda db, rng: db, family, 5_000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
