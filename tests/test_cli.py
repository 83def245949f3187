import ast
import builtins
import contextlib
import csv
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sparsedp
from helpers_oracles import (
    boolean_indicator_class, oracle_stdout_by_dicts, per_trial_attack_reference, save_database,
    save_query_class,
)
from sparsedp import choose_m, config, fsd, Database, QueryClass
from sparsedp import PrivacyParams, best_sparse_db, exact_output_distribution, mechanisms, oracle
from sparsedp import ExactLawTable, ExponentRule, build_family, laplace_release
from sparsedp import cli
from sparsedp.cli import run


@pytest.fixture()
def files(tmp_path):
    db = tmp_path / "db.json"
    cls = tmp_path / "cls.json"
    save_database(Database([2.0, 1.0]), db)
    save_query_class(boolean_indicator_class(2), cls)
    return tmp_path, db, cls


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The loaders and every command's work: a run refused by its flags calls none.
UNREACHED = (
    "load_database", "load_query_class", "fsd", "build_family", "attack_experiment",
    "exponential_release_exact", "exponential_release_mcmc",
    "privacy_ratio_certificate", "postprocessing_certificate", "exact_output_distribution",
)


def run_spied(capsys, monkeypatch, argv):
    """``run_capture`` of ``argv`` with each ``UNREACHED`` name replaced by a
    spy; also returns the names called, in order."""
    calls = []
    for name in UNREACHED:
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    return (*run_capture(capsys, argv), calls)


class TestFsdCommand:
    def test_full_cube_dimension(self, files, capsys, tmp_path):
        _, _, cls = files
        cube = tmp_path / "cube.json"
        save_query_class(boolean_indicator_class(3), cube)
        code, out, _ = run_capture(
            capsys, ["fsd", "--class", str(cube), "--gamma", "0.5", "--dmax", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["d"] == 3
        assert payload["result"]["exact"] is True
        assert payload["result"]["nodes_explored"] > 0
        assert payload["version"] == "0.1.0"
        assert payload["config"]["gamma"] == 0.5

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exits_1(self, files, capsys, monkeypatch, budget):
        _, _, cls = files
        argv = ["fsd", "--class", str(cls), "--gamma", "0.1", "--dmax", "2", "--budget", budget]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --budget must be at least 1\n", []
        )

    @pytest.mark.parametrize("dmax", ["0", "-3"])
    def test_dmax_below_one_exits_1_before_the_search(self, capsys, monkeypatch, tmp_path, dmax):
        cube = tmp_path / "cube4.json"
        save_query_class(boolean_indicator_class(4), cube)
        argv = ["fsd", "--class", str(cube), "--gamma", "0.5", "--dmax", dmax]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", "error: --dmax must be at least 1\n", [])


class TestVerifyPrivacyCommand:
    def test_certificate_passes(self, files, capsys):
        _, _, cls = files
        code, out, _ = run_capture(
            capsys,
            ["verify-privacy", "--n", "2", "--entry-cap", "2", "--class", str(cls),
             "--alpha", "1", "--m", "2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["pass"] is True
        assert payload["result"]["max_ratio"] <= math.e + 1e-9

    def test_postprocess_modes(self, files, capsys):
        _, _, cls = files
        for mode in ("first-coordinate", "constant"):
            code, out, _ = run_capture(
                capsys,
                ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
                 "--alpha", "1", "--m", "1", "--postprocess", mode],
            )
            assert code == 0
            assert json.loads(out)["result"]["pass"] is True

    def test_negative_probe_count_exits_1(self, files, capsys, monkeypatch):
        _, _, cls = files
        argv = ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
                "--alpha", "1", "--m", "1", "--probes", "-3"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --probes must be at least 0\n", []
        )

    @pytest.mark.parametrize("postprocess", ["none", "first-coordinate"])
    @pytest.mark.parametrize("flags, message", [
        (["--probes", "-1"], "--probes must be at least 0"),
        (["--entry-cap", "0"], "--entry-cap must be at least 1"),
        (["--entry-cap", "-2"], "--entry-cap must be at least 1"),
        (["--probes", "5", "--seed", "-1"], "--seed must be at least 0"),
    ])
    def test_bad_count_exits_1_before_the_certificate(
        self, files, capsys, monkeypatch, postprocess, flags, message
    ):
        # Each bad flag is refused by name before any grid is scored.
        _, _, cls = files
        argv = ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
                "--alpha", "1", "--m", "1", "--postprocess", postprocess]
        assert run_spied(capsys, monkeypatch, argv + flags) == (1, "", f"error: {message}\n", [])

    @pytest.mark.parametrize("postprocess", ["none", "first-coordinate"])
    @pytest.mark.parametrize("n", ["1", "3"])
    def test_n_unlike_the_class_exits_1_before_the_certificate(
        self, files, capsys, monkeypatch, postprocess, n
    ):
        # The class is read, then --n is refused by name beside --class.
        _, _, cls = files
        calls = []
        for name in ("privacy_ratio_certificate", "postprocessing_certificate"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        argv = ["verify-privacy", "--n", n, "--entry-cap", "1", "--class", str(cls),
                "--alpha", "1", "--m", "1", "--postprocess", postprocess]
        assert (*run_capture(capsys, argv), calls) == (
            1, "", f"error: --n is {n} but --class has 2 coordinates\n", []
        )

    def test_seed_without_probes_is_not_read(self, files, capsys):
        # Without probes the certificate draws nothing, so no seed is used;
        # a negative one is still refused (the probed refusals below).
        _, _, cls = files
        argv = ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
                "--alpha", "1", "--m", "1"]
        code, out, err = run_capture(capsys, argv + ["--seed", "5"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == json.loads(run_capture(capsys, argv)[1])["result"]

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_nonpositive_m_exits_1(self, files, capsys, monkeypatch, m):
        _, _, cls = files
        argv = ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
                "--alpha", "1", "--m", m]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", "error: --m must be at least 1\n", [])

    @pytest.mark.parametrize("alpha, bound", [("709", math.exp(709)), ("710", math.inf)])
    def test_alpha_past_the_exp_range_prints_an_infinite_bound(self, files, capsys, alpha, bound):
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
             "--alpha", alpha, "--m", "2"],
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["bound"] == bound


class TestReleaseCommand:
    def test_explicit_m(self, files, capsys, tmp_path):
        _, db, cls = files
        out_dir = tmp_path / "artifacts"
        code, out, _ = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "3", "--seed", "7", "--out", str(out_dir)],
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["result"]["d_prime"]) == 3
        assert payload["result"]["m"] == 3
        assert len(payload["result"]["answers"]) == 4
        assert (out_dir / "release.json").exists()
        per_query = (out_dir / "per_query.csv").read_text().splitlines()
        assert per_query[0] == "query_index,true_answer,released_answer,abs_error"
        assert len(per_query) == 5

    def test_eta_gamma_drive_m(self, files, capsys):
        _, db, cls = files
        code, out, _ = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--eta", "0.5", "--gamma", "0.5", "--seed", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        # boolean cube on n=2 has dimension 2 at gamma=0.5, so m = choose_m(0.5, 2) = 7
        assert payload["result"]["m"] == 7

    def test_mcmc_flagged_approximate(self, files, capsys):
        _, db, cls = files
        code, out, _ = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "2", "--sampler", "mcmc", "--steps", "200", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["result"]["approximate"] is True

    def test_caller_supplied_l1(self, files, capsys):
        _, db, cls = files
        code, out, _ = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "2", "--l1", "6.0", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["result"]["l1_estimate"] == 6.0

    @pytest.mark.parametrize("sampler", ["exact", "mcmc"])
    @pytest.mark.parametrize("l1", ["-5", "nan", "inf"])
    def test_bad_l1_exits_1_before_the_search(self, files, capsys, monkeypatch, sampler, l1):
        # A negative or non-finite --l1 is refused by name before the
        # shattering search and any draw.
        _, db, cls = files
        calls = []
        for name in ("fsd", "exponential_release_exact", "exponential_release_mcmc"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--eta", "0.5", "--gamma", "0.5", "--l1", l1, "--sampler", sampler],
        )
        assert (code, out, calls) == (1, "", [])
        assert err == f"error: --l1 must be finite and nonnegative, got {l1!r}\n"

    def test_non_numeric_l1_exits_1_naming_the_flag(self, files, capsys):
        _, db, cls = files
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "2", "--l1", "abc"],
        )
        assert (code, out) == (1, "")
        assert err == "error: --l1 must be 'public', 'private', or a number, got 'abc'\n"

    @pytest.mark.parametrize("sampler", ["exact", "mcmc"])
    def test_zero_l1_still_runs(self, files, capsys, sampler):
        _, db, cls = files
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "2", "--l1", "0", "--sampler", sampler, "--seed", "1"],
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["l1_estimate"] == 0.0

    def test_inexact_dimension_search_refused(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        c = QueryClass(rng.uniform(0.0, 1.0, size=(64, 12)))
        cls, db = tmp_path / "cls.json", tmp_path / "db.json"
        save_query_class(c, cls)
        save_database(Database(rng.uniform(0.0, 50.0, size=12)), db)
        # The search release runs for m (d_max = log2(64) = 6) runs out of its
        # default budget, so it proves only a lower bound on the dimension.
        search = fsd(c, 0.1, 6)
        assert not search.exact and search.nodes_explored == config.DEFAULT_NODE_BUDGET
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--eta", "0.25", "--gamma", "0.1", "--sampler", "mcmc", "--seed", "1"],
        )
        assert (code, out) == (2, "")
        assert err.startswith("budget refusal: ")
        assert f"d >= {search.d}" in err and "--m" in err

    def test_shuffled_cube_dimension_is_exact(self, capsys, tmp_path):
        # All 64 boolean queries on 6 coordinates, rows in seeded order: the
        # search finds d = 6 exactly, so release derives m from it.
        rng = np.random.default_rng(6)
        rows = np.array(list(itertools.product((0.0, 1.0), repeat=6)))
        cls, db = tmp_path / "cls.json", tmp_path / "db.json"
        save_query_class(QueryClass(rng.permutation(rows)), cls)
        save_database(Database(rng.uniform(0.0, 50.0, size=6)), db)
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--eta", "0.25", "--gamma", "0.5", "--sampler", "mcmc", "--seed", "1"],
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["m"] == choose_m(0.25, 6)

    @pytest.mark.parametrize("eta", ["2", "0", "-1", "nan"])
    def test_bad_eta_exits_1_before_the_search(self, files, capsys, monkeypatch, eta):
        # A bad --eta is refused before the shattering search runs, so it
        # costs no search and is never reported as a budget refusal.
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
                "--eta", eta, "--gamma", "0.5"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", f"error: --eta must lie in (0, 1], got {float(eta)!r}\n", []
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--eta", "5", "eta must lie in (0, 1]"),
        ("--eta", "0", "eta must lie in (0, 1]"),
        ("--gamma", "9", "gamma must lie in (0, 1/2]"),
        ("--gamma", "nan", "gamma must lie in (0, 1/2]"),
    ])
    def test_bad_eta_or_gamma_exits_1_even_with_m(
        self, files, capsys, monkeypatch, flag, value, message
    ):
        # --m leaves --eta and --gamma unused, but the document would print
        # them as the run's configuration: refused before any file is read.
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
                "--m", "3", flag, value]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", f"error: --{message}, got {float(value)!r}\n", []
        )

    @pytest.mark.parametrize("sampler", ["exact", "mcmc"])
    def test_alpha_too_small_for_the_l1_estimate_exits_1(self, files, capsys, monkeypatch, sampler):
        # 1/(0.1*alpha) overflows at alpha = 1e-309: the refusal names --alpha
        # and that scale, not the sampler's internal parameter, and comes
        # before the search and any draw.
        _, db, cls = files
        calls = []
        for name in ("fsd", "exponential_release_exact", "exponential_release_mcmc"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1e-309",
             "--eta", "0.5", "--gamma", "0.5", "--l1", "private", "--sampler", sampler],
        )
        assert (code, out, calls) == (1, "", [])
        assert err == (
            "error: --alpha 1e-309 is too small: the L1 estimate's Laplace scale "
            "1/(0.1*alpha) overflows to inf in its largest draw\n"
        )

    def test_alpha_whose_l1_share_underflows_exits_1(self, files, capsys, monkeypatch):
        # 0.1 * 5e-324 rounds to 0: refused by --alpha, not by a division by
        # zero, before either file is read.
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "5e-324",
                "--m", "3", "--l1", "private"]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", (
            "error: --alpha 5e-324 is too small: the L1 estimate's Laplace scale "
            "1/(0.1*alpha) overflows to inf in its largest draw\n"
        ), [])

    def test_alpha_whose_largest_l1_draw_overflows_exits_1(self, files, capsys):
        # At alpha 1e-307 the L1 estimate's scale 1/(0.1*alpha) is finite, but
        # its largest draw, about 36 times the scale, is not.  This run once
        # printed RuntimeWarnings, then "database entries must be finite".
        _, db, cls = files
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_capture(
                capsys,
                ["release", "--db", str(db), "--class", str(cls), "--alpha", "1e-307",
                 "--m", "3", "--l1", "private", "--seed", "4"],
            )
        assert (code, out, caught) == (1, "", [])
        assert err == (
            "error: --alpha 1e-307 is too small: the L1 estimate's Laplace scale "
            "1/(0.1*alpha) overflows to inf in its largest draw\n"
        )

    @pytest.mark.parametrize("sampler", ["exact", "mcmc"])
    def test_norm_that_overflows_after_the_l1_draw_exits_1(self, tmp_path, capsys, sampler):
        # The scale 1/(0.1*alpha) = 1e306 and its largest draw are finite,
        # but the norm 1.7e308 plus that draw is not: refused, whatever the
        # seed, before any draw.
        db, cls = tmp_path / "big.json", tmp_path / "one.json"
        save_database(Database([1.7e308]), db)
        save_query_class(QueryClass([[1.0]]), cls)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_capture(
                capsys,
                ["release", "--db", str(db), "--class", str(cls), "--alpha", "1e-305",
                 "--m", "3", "--l1", "private", "--sampler", sampler],
            )
        assert (code, out, caught) == (1, "", [])
        assert err == (
            "error: the L1 norm 1.7e+308 plus the largest Laplace draw at scale 1e+306 "
            "overflows to inf\n"
        )

    @pytest.mark.parametrize("command", ["oracle", "release"])
    def test_database_whose_l1_norm_overflows_exits_1(self, tmp_path, capsys, command):
        # Each entry is finite, but their sum is not: refused when the file
        # is read, before any sum warns.
        db, cls = tmp_path / "big.json", tmp_path / "cls.json"
        db.write_text(json.dumps({"entries": [1e308, 1e308]}))
        save_query_class(QueryClass([[1.0, 1.0]]), cls)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_capture(
                capsys, [command, "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", "2"]
            )
        assert (code, out, caught) == (1, "", [])
        assert err == "error: database entries must have a finite sum: the L1 norm overflows to inf\n"

    @pytest.mark.parametrize("sampler", ["exact", "mcmc"])
    def test_negative_seed_exits_1_before_the_search(self, files, capsys, monkeypatch, sampler):
        # Refused by name before the shattering search and any draw, not by
        # numpy once the search has run.
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
                "--eta", "0.5", "--gamma", "0.5", "--sampler", sampler, "--seed", "-1"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --seed must be at least 0\n", []
        )

    def test_missing_m_and_eta_is_validation_error(self, files, capsys):
        _, db, cls = files
        code, _, err = run_capture(
            capsys, ["release", "--db", str(db), "--class", str(cls), "--alpha", "1"]
        )
        assert code == 1
        assert "--eta" in err


class TestAttackCommand:
    def test_identity_attack_writes_tables(self, files, capsys, tmp_path):
        _, _, cls = files
        out_dir = tmp_path / "attack_art"
        code, out, _ = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
             "--mechanism", "identity", "--trials", "20", "--seed", "3",
             "--out", str(out_dir)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["recovery_rate_target"] == 1.0
        assert payload["result"]["family"]["d"] == 2
        rows = (out_dir / "per_trial.csv").read_text().splitlines()
        assert rows[0] == "trial,epsilon_hat,symdiff"
        assert len(rows) == 21

    @pytest.mark.parametrize("mechanism", ["exact", "laplace"])
    def test_per_trial_csv_holds_the_reference_trials(self, files, capsys, tmp_path, mechanism):
        # Each row is the trial's index, the repr of its Python float error
        # and its symdiff, as the reference loop gives them; a writer that
        # iterated the report's arrays would print np.float64(...) text.
        _, _, cls = files
        out_dir = tmp_path / "attack_art"
        code, _, _ = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
             "--mechanism", mechanism, "--trials", "40", "--seed", "3", "--out", str(out_dir)],
        )
        assert code == 0
        c, p = boolean_indicator_class(2), PrivacyParams(alpha=1.0)
        family = build_family(c, 0.5, 2)
        if mechanism == "exact":
            laws = ExactLawTable(family.databases, c, p, family.d // 2, ExponentRule("paper"))
            release = laws.release
        else:
            release = lambda db, rng: laplace_release(db, c, p, rng)
        want = per_trial_attack_reference(release, family, 40, np.random.default_rng(3), alpha=1.0)
        with (out_dir / "per_trial.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["trial", "epsilon_hat", "symdiff"]] + [
            [str(i), repr(e), str(s)]
            for i, (e, s) in enumerate(zip(want.eps_hat.tolist(), want.symdiff.tolist()))
        ]
        assert len(rows) == 41

    def test_exact_mechanism_attack(self, files, capsys):
        _, _, cls = files
        code, out, _ = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
             "--mechanism", "exact", "--trials", "30", "--seed", "3"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["reconstruction_bound_violations"] == 0

    @pytest.mark.parametrize("mechanism", ["exact", "mcmc", "laplace", "identity"])
    def test_negative_seed_exits_1_before_the_search(self, files, capsys, monkeypatch, mechanism):
        _, _, cls = files
        argv = ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
                "--mechanism", mechanism, "--trials", "5", "--seed", "-4"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --seed must be at least 0\n", []
        )

    @pytest.mark.parametrize("dmax", ["1", "0"])
    def test_dmax_below_two_exits_1_before_the_search(self, capsys, monkeypatch, tmp_path, dmax):
        # A family needs a shattered pair; a search capped below 2 cannot
        # find one, whatever the class.
        cube = tmp_path / "cube2.json"
        save_query_class(boolean_indicator_class(2), cube)
        argv = ["attack", "--class", str(cube), "--gamma", "0.5", "--alpha", "1",
                "--mechanism", "identity", "--trials", "5", "--dmax", dmax]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", "error: --dmax must be at least 2\n", [])

    def test_laplace_and_mcmc_mechanisms(self, files, capsys):
        _, _, cls = files
        for mechanism, extra in (("laplace", []), ("mcmc", ["--steps", "100"])):
            code, out, _ = run_capture(
                capsys,
                ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
                 "--mechanism", mechanism, "--trials", "10", "--seed", "2"] + extra,
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["result"]["completed"] == 10
            assert payload["result"]["reconstruction_bound_violations"] == 0


    def test_alpha_too_small_for_laplace_exits_1(self, files, capsys, monkeypatch):
        # k/alpha overflows at alpha = 1e-320: refused by --alpha before the
        # family search and the first trial.
        _, _, cls = files
        searches = []
        monkeypatch.setattr(cli, "build_family", lambda *args: searches.append(args))
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1e-320",
             "--mechanism", "laplace", "--trials", "5"],
        )
        assert (code, out, searches) == (1, "", [])
        assert err == (
            "error: --alpha 1e-320 is too small: the Laplace scale k/alpha = 4/alpha "
            "overflows to inf in its largest draw\n"
        )
        # Other mechanisms draw no Laplace noise and still run.
        monkeypatch.undo()
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1e-320",
             "--mechanism", "identity", "--trials", "5"],
        )
        assert (code, err) == (0, "")

    def test_gamma_whose_reciprocal_overflows_exits_1(self, files, capsys):
        # gamma = 1e-310 lies in (0, 1/2], and the cube is shattered at it,
        # but the witness's thresholds have no finite bucket numbers.
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "1e-310", "--alpha", "1",
             "--mechanism", "identity", "--trials", "5"],
        )
        assert (code, out) == (1, "")
        assert err == "error: gamma=1e-310 is too small: the bucket count 1/gamma overflows\n"

    def test_bound_past_the_float_range_is_vacuous(self, files, capsys):
        # At the smallest normal gamma, 4 * eps_hat / gamma overflows for
        # some trials: their bound is inf, vacuous and never violated, and
        # numpy's overflow warning is not raised.
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "2.2250738585072014e-308", "--alpha", "1",
             "--mechanism", "exact", "--trials", "5", "--seed", "3"],
        )
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["vacuous_fraction"], result["reconstruction_bound_violations"]) == (0.6, 0)

    @pytest.mark.parametrize("mechanism", ["exact", "mcmc", "laplace", "identity"])
    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_nonpositive_m_exits_1(self, files, capsys, monkeypatch, mechanism, m):
        _, _, cls = files
        argv = ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
                "--mechanism", mechanism, "--trials", "5", "--m", m]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", "error: --m must be at least 1\n", [])


def _seeded_oracle_configs(seed: int, count: int) -> dict:
    rng = np.random.default_rng(seed)
    configs = {}
    for i in range(count):
        n, k = int(rng.integers(1, 5)), int(rng.choice([3, 5, 6, 11]))
        configs[f"seeded {i}"] = (
            rng.uniform(0, 4, size=n).tolist(), rng.uniform(0, 1, size=(k, n)).tolist(),
            int(rng.integers(2, 7)), False,
        )
    return configs


# name: (database entries, query rows, m, whether the best score is tied).
# Dyadic entries and coefficients make the tied scores exactly equal.
ORACLE_CONFIGS = {
    **_seeded_oracle_configs(59, 6),
    "all-zero database": ([0.0, 0.0, 0.0], [[1, 0, 0.5], [0.25, 1, 0], [0, 0, 1]], 4, True),
    "duplicated columns": (
        [1.0, 2.0, 2.0], [[0.5, 0.25, 0.25], [1, 0, 0], [0, 1, 1], [0.5, 0, 0], [0, 0.5, 0.5]], 3, True,
    ),
    "n = 1": ([2.5], [[0.5], [1.0], [0.25]], 3, False),
}


def _oracle_files(tmp_path, entries, queries):
    db, cls = tmp_path / "db.json", tmp_path / "cls.json"
    save_database(Database(entries), db)
    save_query_class(QueryClass(queries), cls)
    return db, cls


class TestOracleCommand:
    def test_distribution_and_best_sparse(self, files, capsys):
        _, db, cls = files
        code, out, _ = run_capture(
            capsys,
            ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "2", "--best-sparse"],
        )
        assert code == 0
        payload = json.loads(out)
        dist = payload["result"]["distribution"]
        assert len(dist) == 3
        assert sum(entry["probability"] for entry in dist) == pytest.approx(1.0, abs=1e-12)
        assert "best_sparse" in payload["result"]

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_nonpositive_m_exits_1(self, files, capsys, monkeypatch, m):
        _, db, cls = files
        argv = ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", m]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", "error: --m must be at least 1\n", [])

    @pytest.mark.parametrize("split", ["whole", "blocks", "blocks and slices"])
    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_best_sparse_matches_best_sparse_db(self, tmp_path, capsys, monkeypatch, name, split):
        # The CLI takes the best surrogate from the distribution's scores,
        # which score the domain whole; best_sparse_db scores it in blocks
        # (7 rows here), each sliced by score_rows (12-row slices at k = 5
        # under a 64-cell slice), and must find the same row and error.
        entries, queries, m, ties = ORACLE_CONFIGS[name]
        db, cls = _oracle_files(tmp_path, entries, queries)
        if split != "whole":
            monkeypatch.setattr(oracle, "BLOCK_ROWS", 7)
        if split == "blocks and slices":
            monkeypatch.setattr(mechanisms, "SCORE_SLICE_CELLS", 64)
        code, out, _ = run_capture(
            capsys,
            ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", str(m),
             "--best-sparse"],
        )
        assert code == 0
        printed = json.loads(out)["result"]["best_sparse"]
        best, relative_error = best_sparse_db(Database(entries), QueryClass(queries), m)
        assert printed["counts"] == best.counts.tolist()
        assert repr(printed["relative_error"]) == repr(relative_error)
        scores = exact_output_distribution(
            Database(entries), QueryClass(queries), PrivacyParams(1.0), m
        ).scores
        assert ((scores == scores.max()).sum() > 1) == ties

    @pytest.mark.parametrize("exponent", ["paper", "tight"])
    @pytest.mark.parametrize("best_sparse", [False, True])
    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_stdout_is_the_dict_built_document(self, tmp_path, capsys, name, best_sparse, exponent):
        entries, queries, m, _ = ORACLE_CONFIGS[name]
        db, cls = _oracle_files(tmp_path, entries, queries)
        argv = ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "0.7", "--m", str(m),
                "--exponent", exponent] + ["--best-sparse"] * best_sparse
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert out == oracle_stdout_by_dicts(db, cls, 0.7, m, exponent, best_sparse)

    @pytest.mark.parametrize("best_sparse", [False, True])
    def test_paths_holding_the_slot_text_and_percents(self, tmp_path, capsys, best_sparse):
        # The paths print escaped, so the distribution's slot is found only
        # at its key, and their percent signs go through the table's ``%``.
        folder = tmp_path / '"distribution": [] %s %%'
        folder.mkdir()
        db, cls = folder / 'db "distribution": [].json', folder / "cls %s %%.json"
        save_database(Database([1.0, 2.0, 0.5]), db)
        save_query_class(QueryClass([[1, 0, 0], [0.5, 0.5, 1]]), cls)
        argv = ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "0.7", "--m", "3"]
        code, out, err = run_capture(capsys, argv + ["--best-sparse"] * best_sparse)
        assert (code, err) == (0, "")
        assert out == oracle_stdout_by_dicts(db, cls, 0.7, 3, "paper", best_sparse)


class TestContracts:
    def test_byte_identical_reruns(self, files, capsys, tmp_path):
        _, db, cls = files
        for sampler in (
            [],
            ["--sampler", "mcmc", "--steps", "500", "--l1", "public"],
            ["--sampler", "mcmc", "--steps", "500", "--l1", "private"],
        ):
            argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1.5",
                    "--m", "3", "--seed", "11", *sampler]
            code1, out1, _ = run_capture(capsys, argv)
            code2, out2, _ = run_capture(capsys, argv)
            assert code1 == code2 == 0
            assert out1 == out2

            out_dir = tmp_path / "artifacts"
            run_capture(capsys, argv + ["--out", str(out_dir)])
            first_json = (out_dir / "release.json").read_bytes()
            first_csv = (out_dir / "per_query.csv").read_bytes()
            run_capture(capsys, argv + ["--out", str(out_dir)])
            assert (out_dir / "release.json").read_bytes() == first_json
            assert (out_dir / "per_query.csv").read_bytes() == first_csv

    def test_single_coordinate_mcmc_release(self, capsys, tmp_path):
        db = tmp_path / "db1.json"
        cls = tmp_path / "cls1.json"
        save_database(Database([3.0]), db)
        save_query_class(QueryClass([[0.5], [1.0]]), cls)
        code, out, _ = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "4", "--sampler", "mcmc", "--steps", "50", "--seed", "3"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["d_prime"] == [4]
        assert result["approximate"] is True

    def test_unknown_flag_exits_1(self, files, capsys):
        _, db, cls = files
        code, _, err = run_capture(
            capsys, ["fsd", "--class", str(cls), "--gamma", "0.5", "--dmax", "2", "--bogus"]
        )
        assert code == 1
        assert "bogus" in err

    def test_malformed_file_exits_1_with_line(self, files, capsys, tmp_path):
        _, db, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text('{"queries": [[0.5,\n')
        code, _, err = run_capture(
            capsys, ["fsd", "--class", str(bad), "--gamma", "0.5", "--dmax", "2"]
        )
        assert code == 1
        assert "bad.json:" in err

    def test_queries_not_a_list_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "cls.json"
        for queries in (5, {"a": 1}, "0.5", None):
            bad.write_text(json.dumps({"queries": queries}))
            code, out, err = run_capture(
                capsys, ["fsd", "--class", str(bad), "--gamma", "0.5", "--dmax", "1"]
            )
            assert (code, out) == (1, "")
            assert err == f"error: {bad}:1: 'queries' must be a list of rows\n"

    def test_non_numeric_row_or_entry_exits_1(self, files, capsys, tmp_path):
        _, db, cls = files
        bad_cls, bad_db = tmp_path / "bad_cls.json", tmp_path / "bad_db.json"
        bad_cls.write_text(json.dumps({"queries": [[{"a": 1}, 0.5]]}))
        bad_db.write_text(json.dumps({"entries": [None, {"a": 1}]}))
        for argv, path, key in (
            (["fsd", "--class", str(bad_cls), "--gamma", "0.5", "--dmax", "1"], bad_cls, "queries"),
            (["oracle", "--db", str(bad_db), "--class", str(cls), "--alpha", "1", "--m", "1"],
             bad_db, "entries"),
        ):
            code, out, err = run_capture(capsys, argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path}:1: '{key}' must hold numbers: ")

    def test_declared_n_must_be_a_whole_number(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        argv = ["fsd", "--class", str(path), "--gamma", "0.25", "--dmax", "1"]
        for n, shown in ((2.7, "2.7"), ("x", "'x'"), (True, "True"), ([2], "[2]")):
            path.write_text(json.dumps({"queries": [[0.5, 0.5]], "n": n}))
            code, out, err = run_capture(capsys, argv)
            assert (code, out) == (1, "")
            assert err == f"error: {path}:1: 'n' must be a whole number, got {shown}\n"
        path.write_text(json.dumps({"queries": [[0.5, 0.5]], "n": 3.0}))
        code, _, err = run_capture(capsys, argv)
        assert code == 1
        assert err == f"error: {path}:1: declared n=3.0 but queries have length 2\n"
        for n in (2, 2.0):
            path.write_text(json.dumps({"queries": [[0.5, 0.5]], "n": n}))
            assert run_capture(capsys, argv)[0] == 0

    def test_budget_refusal_exits_2(self, files, capsys):
        _, db, cls = files
        code, _, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "100000000", "--seed", "0"],
        )
        assert code == 2
        assert "budget" in err.lower()

    def test_env_budget_override(self, files, capsys, monkeypatch):
        _, db, cls = files
        monkeypatch.setenv("FSDP_BUDGET", "2")
        code, _, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "3", "--seed", "0"],
        )
        assert code == 2

    @pytest.mark.parametrize("budget", ["abc", "1e3", "0", "-5"])
    def test_malformed_env_budget_exits_1(self, files, capsys, monkeypatch, budget):
        # int()'s own message would not name the variable, and a budget
        # below 1 would refuse every domain as a budget refusal (exit 2).
        _, db, cls = files
        monkeypatch.setenv("FSDP_BUDGET", budget)
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--m", "3", "--seed", "0"],
        )
        assert (code, out) == (1, "")
        assert err == f"error: FSDP_BUDGET must be a whole number at least 1, got {budget!r}\n"
        monkeypatch.setenv("FSDP_BUDGET", "1")
        assert config.domain_budget() == 1

    def test_over_budget_exact_attack_exits_2(self, files, capsys, monkeypatch, tmp_path):
        # The 4-coordinate boolean class shatters d=4, so m=2 and the domain
        # holds C(5, 3) = 10 rows, over a budget of 5: refused once, up
        # front, instead of every trial failing.
        cube = tmp_path / "cube4.json"
        save_query_class(boolean_indicator_class(4), cube)
        monkeypatch.setenv("FSDP_BUDGET", "5")
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cube), "--gamma", "0.5", "--alpha", "1",
             "--mechanism", "exact", "--trials", "5", "--dmax", "4", "--seed", "1"],
        )
        assert (code, out) == (2, "")
        assert err.startswith("budget refusal: sparse domain for n=4, m=2 holds 10 elements")

    def test_only_exact_sampler_refusals_name_mcmc(self, files, capsys, monkeypatch, tmp_path):
        # Over a budget of 3, the exact samplers' refusals name the MCMC
        # sampler.  The oracle and the certificates have no sampler to fall
        # back on; a certificate says what its passes count, here 9 grid
        # points (n = 2, cap 2) and 2 x 5 probe points.
        _, db, cls = files
        cube = tmp_path / "cube4.json"
        save_query_class(boolean_indicator_class(4), cube)
        monkeypatch.setenv("FSDP_BUDGET", "3")
        advice = "; exponential_release_mcmc samples without enumerating it\n"
        domain = "budget refusal: sparse domain for n=2, m=3 holds 4 elements"
        for argv, err in (
            (["release", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", "3"],
             domain + " over the budget of 3" + advice),
            (["attack", "--class", str(cube), "--gamma", "0.5", "--alpha", "1",
              "--mechanism", "exact", "--trials", "5", "--dmax", "4"],
             "budget refusal: sparse domain for n=4, m=2 holds 10 elements over the budget of 3"
             + advice),
            (["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", "3",
              "--best-sparse"],
             domain + " over the budget of 3\n"),
            (["verify-privacy", "--n", "2", "--entry-cap", "2", "--class", str(cls),
              "--alpha", "1", "--m", "3", "--probes", "5"],
             domain + ", scored 19 times (9 grid points plus 2 x 5 probes), over the budget of 3\n"),
        ):
            assert run_capture(capsys, argv) == (2, "", err)

    def test_over_budget_law_table_exits_2(self, files, capsys, monkeypatch, tmp_path):
        # The 10-row domain fits a budget of 30 or 59, but the six databases'
        # laws are six passes over it: the table keeps three or five and
        # releases from the others the per-call way, so the job prints what
        # it prints at the default budget.  Only an over-budget domain exits 2.
        cube = tmp_path / "cube4.json"
        save_query_class(boolean_indicator_class(4), cube)
        argv = ["attack", "--class", str(cube), "--gamma", "0.5", "--alpha", "1",
                "--mechanism", "exact", "--trials", "5", "--dmax", "4", "--seed", "1"]
        monkeypatch.delenv("FSDP_BUDGET", raising=False)
        default = run_capture(capsys, argv)
        assert default[0] == 0
        for budget in ("30", "59"):
            monkeypatch.setenv("FSDP_BUDGET", budget)
            assert run_capture(capsys, argv) == default

    @pytest.mark.parametrize("mechanism", ["exact", "identity"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_1_before_any_search(
        self, files, capsys, monkeypatch, tmp_path, mechanism, trials
    ):
        # Checked before the shattering search and the domain build, so the
        # over-budget domain is never reached.
        cube = tmp_path / "cube4.json"
        save_query_class(boolean_indicator_class(4), cube)
        monkeypatch.setenv("FSDP_BUDGET", "5")
        argv = ["attack", "--class", str(cube), "--gamma", "0.5", "--alpha", "1",
                "--mechanism", mechanism, "--trials", trials, "--dmax", "4"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --trials must be at least 1\n", []
        )

    @pytest.mark.parametrize("command", ["release", "attack"])
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_exits_1_before_any_load_or_search(
        self, capsys, monkeypatch, tmp_path, command, steps
    ):
        # The input files do not exist: the flag is checked before they are
        # read and before any shattering search.
        missing = str(tmp_path / "missing.json")
        argv = {
            "release": ["release", "--db", missing, "--class", missing, "--alpha", "1",
                        "--eta", "0.25", "--gamma", "0.2", "--sampler", "mcmc"],
            "attack": ["attack", "--class", missing, "--gamma", "0.5", "--alpha", "1",
                       "--mechanism", "mcmc", "--trials", "3"],
        }[command]
        assert run_spied(capsys, monkeypatch, argv + ["--steps", steps]) == (
            1, "", "error: --steps must be at least 1\n", []
        )

    def test_steps_is_not_read_by_the_exact_sampler(self, files, capsys):
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", "2"]
        code, out, _ = run_capture(capsys, argv + ["--steps", "7"])
        assert code == 0
        assert json.loads(out)["result"] == json.loads(run_capture(capsys, argv)[1])["result"]

    @pytest.mark.parametrize(
        "kind, payload, message",
        [
            ("db", {"values": [1.0]}, "{path}:1: missing 'entries' key"),
            ("db", {"entries": []}, "database must be a nonempty 1-d vector"),
            ("db", {"entries": [[1.0, 2.0]]}, "database must be a nonempty 1-d vector"),
            ("class", {"n": 2}, "{path}:1: missing 'queries' key"),
            ("class", {"queries": []}, "query class must contain at least one query"),
            ("class", {"queries": [[]]}, "query must be a nonempty 1-d vector"),
            ("class", {"queries": [0.5, 0.5]}, "query must be a nonempty 1-d vector"),
            ("class", {"queries": [[[0.5, 0.5]]]}, "query must be a nonempty 1-d vector"),
            ("class", {"queries": [[0.5, 0.5], [0.5]]},
             "all queries in a class must share one dimension"),
        ],
    )
    def test_missing_keys_and_misshapen_rows_exit_1(
        self, files, capsys, tmp_path, kind, payload, message
    ):
        # Inputs a loader indexes into: each is refused with a ValueError
        # naming the fault, not a KeyError or IndexError.
        _, db, cls = files
        path = tmp_path / f"bad_{kind}.json"
        path.write_text(json.dumps(payload))
        db, cls = (path, cls) if kind == "db" else (db, path)
        code, out, err = run_capture(
            capsys, ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", "1"]
        )
        assert (code, out, err) == (1, "", "error: " + message.format(path=path) + "\n")

    @pytest.mark.parametrize("exception", [KeyError, IndexError])
    def test_a_bug_is_not_reported_as_an_input_error(self, files, monkeypatch, exception):
        # Only the input errors the commands raise on purpose exit 1; a
        # KeyError or IndexError from a bug propagates with its traceback.
        _, _, cls = files

        def broken(args):
            raise exception("bug")

        monkeypatch.setitem(cli._COMMANDS, "fsd", broken)
        with pytest.raises(exception):
            run(["fsd", "--class", str(cls), "--gamma", "0.5", "--dmax", "2"])

    def test_infinite_alpha_exits_1(self, files, capsys, monkeypatch):
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "inf",
                "--m", "2", "--seed", "0"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --alpha must be positive and finite, got inf\n", []
        )

    @pytest.mark.parametrize("command", ["release", "oracle", "verify-privacy"])
    def test_a_law_whose_every_logit_overflows_exits_1(self, capsys, tmp_path, command):
        # At alpha 1e308 every logit of [10, 3, 7]'s law at m = 4 overflows,
        # and of some grid points at entry cap 6: refused, not a NaN law.
        db, cls = _oracle_files(tmp_path, [10, 3, 7], [[1, 0, 0], [0, 1, 0], [0.5, 0.5, 1]])
        argv = {
            "release": ["release", "--db", str(db)],
            "oracle": ["oracle", "--db", str(db)],
            "verify-privacy": ["verify-privacy", "--n", "3", "--entry-cap", "6"],
        }[command]
        code, out, err = run_capture(
            capsys, argv + ["--class", str(cls), "--alpha", "1e308", "--m", "4"]
        )
        assert (code, out) == (1, "")
        assert err == "error: alpha=1e+308 overflows every exponential weight of a database\n"

    def test_invalid_gamma_exits_1(self, files, capsys, monkeypatch):
        _, _, cls = files
        argv = ["fsd", "--class", str(cls), "--gamma", "0.7", "--dmax", "2"]
        assert run_spied(capsys, monkeypatch, argv) == (
            1, "", "error: --gamma must lie in (0, 1/2], got 0.7\n", []
        )


def subcommand_argvs(db, cls):
    return {
        "release": ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
                    "--m", "3", "--seed", "7"],
        "fsd": ["fsd", "--class", str(cls), "--gamma", "0.5", "--dmax", "2"],
        "attack": ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
                   "--mechanism", "exact", "--trials", "5", "--seed", "3"],
        "verify-privacy": ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
                           "--alpha", "1", "--m", "2", "--probes", "3", "--seed", "1"],
        "oracle": ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1",
                   "--m", "2", "--best-sparse"],
    }


def run_fresh_process(argv, cwd):
    """Run the CLI in a new interpreter, with this checkout's package first."""
    env = dict(os.environ)
    src = str(Path(sparsedp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparsedp.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOutputFormat:
    @pytest.mark.parametrize("command", ["release", "fsd", "attack", "verify-privacy", "oracle"])
    def test_stdout_is_stdlib_json_and_matches_out_file(self, files, capsys, tmp_path, command):
        _, db, cls = files
        out_dir = tmp_path / "art"
        code, out, _ = run_capture(capsys, subcommand_argvs(db, cls)[command] + ["--out", str(out_dir)])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert (out_dir / f"{command}.json").read_text() == out

    @pytest.mark.parametrize("command, table, rows", [
        ("release", "per_query.csv", 4), ("attack", "per_trial.csv", 5),
    ])
    def test_csv_tables_are_built_only_under_out(
        self, files, capsys, monkeypatch, tmp_path, command, table, rows
    ):
        # The CSV cells' text comes from repr (three per query, one per
        # trial); only --out writes the tables, so only --out builds them.
        _, db, cls = files
        reprs = []
        monkeypatch.setattr(
            cli, "repr", lambda value: reprs.append(value) or builtins.repr(value), raising=False
        )
        argv = subcommand_argvs(db, cls)[command]
        code, out, _ = run_capture(capsys, argv)
        assert (code, reprs) == (0, [])
        out_dir = tmp_path / "art"
        code, written, _ = run_capture(capsys, argv + ["--out", str(out_dir)])
        assert (code, json.loads(written)["result"]) == (0, json.loads(out)["result"])
        assert len((out_dir / table).read_text().splitlines()) == 1 + rows
        assert len(reprs) == {"release": 3, "attack": 1}[command] * rows


def subparsers() -> dict:
    return cli._parser()._subparsers._group_actions[0].choices


# Each subcommand's value flags, in the parser's order.
VALUE_FLAGS = {
    "release": ["--alpha", "--eta", "--gamma", "--m", "--steps", "--seed"],
    "fsd": ["--gamma", "--dmax", "--budget"],
    "attack": ["--gamma", "--alpha", "--trials", "--seed", "--m", "--dmax", "--steps"],
    "verify-privacy": ["--n", "--entry-cap", "--alpha", "--m", "--probes", "--seed"],
    "oracle": ["--alpha", "--m"],
}
# A whole-number flag's least value, and the largest in-domain draw of each
# flag that sets a run's length, so that no drawn run takes long.
FLOORS = {
    "--seed": 0, "--probes": 0, "--m": 1, "--n": 1, "--entry-cap": 1, "--trials": 1,
    "--steps": 1, "--budget": 1, "--dmax": 1, ("attack", "--dmax"): 2,
}
RUN_LENGTHS = {"--trials": 5, "--steps": 50, "--probes": 3, "--entry-cap": 2, "--m": 3, "--n": 3}
# A float flag's domain (0, high] and the text that names it.
INTERVALS = {
    "--alpha": (sys.float_info.max, "must be positive and finite"),
    "--eta": (1.0, "must lie in (0, 1]"),
    "--gamma": (0.5, "must lie in (0, 1/2]"),
}

# Each refusal that a probe of the CLI found missing, or reported only after
# a file was read: argv with {db}, {cls} and {missing} paths, and stderr.
PROBED_REFUSALS = {
    "release exact --steps": (
        ["release", "--db", "{db}", "--class", "{cls}", "--alpha", "1", "--m", "3", "--steps", "-5"],
        "--steps must be at least 1"),
    "attack exact --steps": (
        ["attack", "--class", "{cls}", "--gamma", "0.5", "--alpha", "1", "--mechanism", "exact",
         "--trials", "5", "--steps", "-1"],
        "--steps must be at least 1"),
    "verify-privacy --seed without probes": (
        ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", "{cls}", "--alpha", "1",
         "--m", "2", "--seed", "-7"],
        "--seed must be at least 0"),
    "release --alpha nan": (
        ["release", "--db", "{db}", "--class", "{cls}", "--alpha", "nan", "--m", "3"],
        "--alpha must be positive and finite, got nan"),
    "release --alpha -1, missing --db": (
        ["release", "--db", "{missing}", "--class", "{cls}", "--alpha", "-1", "--m", "3"],
        "--alpha must be positive and finite, got -1.0"),
    "attack --gamma 0.9, missing --class": (
        ["attack", "--class", "{missing}", "--gamma", "0.9", "--alpha", "1",
         "--mechanism", "identity", "--trials", "5"],
        "--gamma must lie in (0, 1/2], got 0.9"),
    "fsd --gamma 0.9": (
        ["fsd", "--class", "{cls}", "--gamma", "0.9", "--dmax", "2"],
        "--gamma must lie in (0, 1/2], got 0.9"),
    "verify-privacy --n 0": (
        ["verify-privacy", "--n", "0", "--entry-cap", "1", "--class", "{cls}", "--alpha", "1",
         "--m", "2"],
        "--n must be at least 1"),
    "verify-privacy --n -2": (
        ["verify-privacy", "--n", "-2", "--entry-cap", "1", "--class", "{cls}", "--alpha", "1",
         "--m", "2"],
        "--n must be at least 1"),
}


# Negative values argparse's own pattern (-1, -1.5) reads as flags, so that
# each run exited with "expected one argument"; they pin the parser's
# widened pattern, a private argparse attribute that a Python may rename.
PROBED_REFUSALS.update({
    f"{name} {value}": (argv + [value], message.format(number=repr(float(value)), text=repr(value)))
    for name, (argv, message) in {
        "release --alpha": (
            ["release", "--db", "{missing}", "--class", "{missing}", "--m", "3", "--alpha"],
            "--alpha must be positive and finite, got {number}"),
        "release --eta": (
            ["release", "--db", "{missing}", "--class", "{missing}", "--alpha", "1", "--eta"],
            "--eta must lie in (0, 1], got {number}"),
        "fsd --gamma": (
            ["fsd", "--class", "{missing}", "--dmax", "2", "--gamma"],
            "--gamma must lie in (0, 1/2], got {number}"),
        "attack --alpha": (
            ["attack", "--class", "{missing}", "--gamma", "0.5", "--mechanism", "identity",
             "--trials", "5", "--alpha"],
            "--alpha must be positive and finite, got {number}"),
        "release --l1": (
            ["release", "--db", "{missing}", "--class", "{missing}", "--alpha", "1", "--m", "3",
             "--l1"],
            "--l1 must be finite and nonnegative, got {text}"),
    }.items()
    for value in ("-1e-3", "-inf", "-Infinity", "-nan")
})


@st.composite
def flag_draws(draw, command):
    """Values for some of ``command``'s value flags: (flag, text, fault),
    where fault is None in the flag's domain, "domain" outside it and
    "parse" for text that is not a whole number."""
    draws = []
    for flag in VALUE_FLAGS[command]:
        kind = draw(st.sampled_from([None, None, "inside", "inside", "outside"]))
        if kind is None:
            continue
        if flag in INTERVALS:
            high, _ = INTERVALS[flag]
            if kind == "inside":
                value = draw(st.floats(0.0, high, exclude_min=True))
            else:
                value = draw(st.one_of(
                    st.floats(max_value=0.0), st.just(math.nan),
                    st.floats(min_value=high).map(lambda v: v if v > high else 2 * v),
                ))
            text = draw(st.sampled_from([repr(value), "1e400"])) if value == math.inf else repr(value)
            draws.append((flag, text, None if kind == "inside" else "domain"))
            continue
        least = FLOORS.get((command, flag), FLOORS[flag])
        if kind == "inside":
            draws.append((flag, str(draw(st.integers(least, RUN_LENGTHS.get(flag, 2**70)))), None))
        elif draw(st.booleans()):
            draws.append((flag, str(draw(st.integers(max_value=least - 1))), "domain"))
        else:
            draws.append((flag, draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "2.5"])), "parse"))
    return draws


class TestFlagDomains:
    def test_every_value_flag_is_listed(self):
        # A flag added to the parser without a domain here would escape the
        # property below.
        found = {
            command: [a.option_strings[0] for a in parser._actions if a.type in (int, float)]
            for command, parser in subparsers().items()
        }
        assert found == VALUE_FLAGS
        assert {flag for flags in found.values() for flag in flags} == set(FLOORS) - {
            ("attack", "--dmax")
        } | set(INTERVALS)

    @pytest.mark.parametrize("name", list(PROBED_REFUSALS))
    def test_probed_refusal_exits_1_before_either_loader(self, files, capsys, monkeypatch, name):
        _, db, cls = files
        argv, message = PROBED_REFUSALS[name]
        paths = {"db": db, "cls": cls, "missing": db.parent / "missing.json"}
        argv = [arg.format(**paths) for arg in argv]
        assert run_spied(capsys, monkeypatch, argv) == (1, "", f"error: {message}\n", [])

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(list(VALUE_FLAGS)))
    def test_every_flag_is_checked_before_either_loader(self, files, monkeypatch, data, command):
        # Tiny inputs, any choice of sampler, mechanism, exponent rule and
        # post-processing, each flag in its domain, outside it or not a
        # number: the run exits 0, 1 or 2 without raising, prints nothing
        # unless it exits 0, and a value outside its domain is refused by
        # name before either file is read.
        _, db, cls = files
        choices = [
            f"{a.option_strings[0]}={data.draw(st.sampled_from(a.choices))}"
            for a in subparsers()[command]._actions if a.choices
        ]
        draws = data.draw(flag_draws(command))
        argv = subcommand_argvs(db, cls)[command] + choices + [
            f"{flag}={text}" for flag, text, _ in draws
        ]
        loads = []
        for name in ("load_database", "load_query_class"):
            loader = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *args, loader=loader: loads.append(args) or loader(*args)
            )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        monkeypatch.undo()
        assert code in (0, 1, 2)
        assert out.getvalue() == "" or code == 0
        unparsed = [flag for flag, _, fault in draws if fault == "parse"]
        outside = {flag: text for flag, text, fault in draws if fault == "domain"}
        if unparsed:
            assert err.getvalue().startswith(f"error: argument {unparsed[0]}: invalid int value")
        elif outside:
            flag = next(flag for flag in VALUE_FLAGS[command] if flag in outside)
            if flag in INTERVALS:
                message = f"{flag} {INTERVALS[flag][1]}, got {float(outside[flag])!r}"
            else:
                message = f"{flag} must be at least {FLOORS.get((command, flag), FLOORS[flag])}"
            assert (code, err.getvalue()) == (1, f"error: {message}\n")
        if unparsed or outside:
            assert (code, out.getvalue(), loads) == (1, "", [])


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_runs_in_one_process_match_fresh_processes(self, files, capsys, tmp_path):
        _, db, cls = files
        release = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1", "--seed", "5"]
        sequence = [
            ["fsd", "--class", str(cls), "--gamma", "0.5", "--dmax", "2", "--bogus", "1"],
            ["fsd", "--class", str(cls), "--gamma", "0.5", "--dmax", "2"],
            release + ["--m", "2"],
            release + ["--eta", "0.5", "--gamma", "0.5"],
        ]
        in_process = [run_capture(capsys, argv) for argv in sequence]
        assert [code for code, _, _ in in_process] == [1, 0, 0, 0]
        for argv, got in zip(sequence, in_process):
            assert got == run_fresh_process(argv, tmp_path)


def bench_tracing():
    """The benchmark's ``bench/tracing.py``, loaded from this checkout."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


# The names ``bench/checks.py`` binds to the package, and their modules.
CHECKER_MODULES = {"sp": "sparsedp", "config": "sparsedp.config"}


def library_reads(source: str) -> set[tuple[str, str]]:
    """Each (name, attribute) read as ``sp.<attribute>`` or ``config.<attribute>`` in ``source``."""
    return {
        (node.value.id, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in CHECKER_MODULES
    }


def unresolved_reads(source: str) -> list[str]:
    return sorted(
        f"{name}.{attr}" for name, attr in library_reads(source)
        if not hasattr(importlib.import_module(CHECKER_MODULES[name]), attr)
    )


def unresolved_exports(module) -> list[str]:
    return [name for name in module.__all__ if not hasattr(module, name)]


class TestExportedNames:
    def test_every_exported_name_resolves(self):
        # The package's and each submodule's __all__ name only what exists,
        # so a removed function cannot stay listed.
        modules = [sparsedp] + [
            importlib.import_module(f"sparsedp.{info.name}")
            for info in pkgutil.iter_modules(sparsedp.__path__)
        ]
        exporting = [module for module in modules if hasattr(module, "__all__")]
        assert {"sparsedp", "sparsedp.core", "sparsedp.mechanisms"} <= {
            module.__name__ for module in exporting
        }
        assert {module.__name__: unresolved_exports(module) for module in exporting} == {
            module.__name__: [] for module in exporting
        }

    def test_a_stale_name_is_caught(self, monkeypatch):
        monkeypatch.setattr(mechanisms, "__all__", [*mechanisms.__all__, "mcmc_state_counts"])
        assert unresolved_exports(mechanisms) == ["mcmc_state_counts"]


class TestBenchmarkTracerSites:
    def test_every_traced_name_resolves(self):
        # The benchmark's tracer wraps these module attributes by name, and
        # its own tests run outside this suite: a name removed here would
        # first show as a failing traced benchmark run.
        tracing = bench_tracing()
        missing = [
            (module, attr) for module, attr, *_ in tracing.SITES
            if not hasattr(importlib.import_module(module), attr)
        ]
        assert len(tracing.SITES) > 0 and missing == []

    def test_every_reading_of_a_traced_call_gives_numbers(self):
        # The tracer also reads each traced call's result, and for some its
        # bound arguments by name: each reading, on a small real call to its
        # site, must give numbers.
        tracing = bench_tracing()
        sites = {
            attr: getattr(importlib.import_module(module), attr) for module, attr, *_ in tracing.SITES
        }
        c, d, p = boolean_indicator_class(2), Database([2.0, 1.0]), PrivacyParams(1.0)
        rng = np.random.default_rng(0)
        calls = {
            "fsd": (c, 0.5, 2),
            "exponential_release_exact": (d, c, p, 2, rng),
            "exponential_release_mcmc": (d, c, p, 2, 10, rng),
            "composition_matrix": (2, 2),
            "exact_output_distribution": (d, c, p, 2),
            "best_sparse_db": (d, c, 2),
            "privacy_ratio_certificate": (2, 1, c, p, 2),
            "postprocessing_certificate": (lambda dp: 0, 2, 1, c, p, 2),
            "attack_experiment": (lambda db, rng: db, sparsedp.build_family(c, 0.5, 2), 3, rng),
        }
        keywords = {"attack_experiment": {"alpha": 1.0}}
        assert set(calls) == set(tracing._INFO)
        for name, (needs_args, info) in tracing._INFO.items():
            fn, args, kwargs = sites[name], calls[name], keywords.get(name, {})
            result = fn(*args, **kwargs)
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments if needs_args else None
            readings = info(bound, result)
            assert readings, name
            for value in readings.values():
                assert isinstance(value, (int, float, np.integer, np.floating)), (name, value)


class TestBenchmarkCheckerNames:
    @staticmethod
    def checks_source() -> str:
        return (Path(__file__).resolve().parents[1] / "bench" / "checks.py").read_text()

    def test_every_name_the_output_checks_read_resolves(self):
        # The benchmark checks every job's output through these names, outside
        # this suite: a name retired here would first show as every job failing.
        source = self.checks_source()
        assert "import sparsedp as sp" in source and "from sparsedp import config" in source
        assert {name for name, _ in library_reads(source)} == set(CHECKER_MODULES)
        assert unresolved_reads(source) == []

    def test_a_made_up_name_is_reported(self):
        source = self.checks_source() + "\nsp.save_database\nconfig.MADE_UP_BUDGET\n"
        assert unresolved_reads(source) == ["config.MADE_UP_BUDGET", "sp.save_database"]


def callers(source: str, name: str) -> list[str]:
    """The innermost function or method (``Class.method``) around each call
    of ``name``, bare or as an attribute, in ``source``, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.append(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


class TestOneExactLaw:
    @staticmethod
    def sources() -> dict[str, str]:
        package = Path(__file__).resolve().parents[1] / "src" / "sparsedp"
        return {path.name: path.read_text() for path in sorted(package.glob("*.py"))}

    def test_exponential_law_is_called_only_by_laws(self):
        # The sampler, the law table, the oracle and the certificates all
        # take their law from ``_laws``, so what is certified is what runs.
        found = {name: callers(source, "exponential_law") for name, source in self.sources().items()}
        assert {name: calls for name, calls in found.items() if calls} == {"mechanisms.py": ["_laws"]}

    def test_a_second_caller_is_reported(self):
        source = self.sources()["mechanisms.py"] + (
            "\n\ndef _law(scores):\n    return mechanisms.exponential_law(scores, 1, 1.0, None)\n"
            "\n\nclass Table:\n    def release(self, scores):\n"
            "        return exponential_law(scores, 1, 1.0, None)\n"
        )
        assert callers(source, "exponential_law") == ["_laws", "_law", "Table.release"]
