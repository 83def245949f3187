import builtins
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsedp
from helpers_oracles import boolean_indicator_class, oracle_stdout_by_dicts
from sparsedp import save_database, save_query_class, choose_m, config, fsd, Database, QueryClass
from sparsedp import PrivacyParams, best_sparse_db, exact_output_distribution, mechanisms, oracle
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
    def test_budget_below_one_exits_1(self, files, capsys, budget):
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["fsd", "--class", str(cls), "--gamma", "0.1", "--dmax", "2", "--budget", budget],
        )
        assert (code, out) == (1, "")
        assert f"node budget must be at least 1, got {budget}" in err


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

    def test_negative_probe_count_exits_1(self, files, capsys):
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
             "--alpha", "1", "--m", "1", "--probes", "-3"],
        )
        assert code == 1
        assert out == ""
        assert "real_probes must be nonnegative" in err

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_nonpositive_m_exits_1(self, files, capsys, m):
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["verify-privacy", "--n", "2", "--entry-cap", "1", "--class", str(cls),
             "--alpha", "1", "--m", m],
        )
        assert (code, out) == (1, "")
        assert "--m must be at least 1" in err

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
        searches = []
        monkeypatch.setattr(cli, "fsd", lambda *args, **kwargs: searches.append(args))
        code, out, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "1",
             "--eta", eta, "--gamma", "0.5"],
        )
        assert (code, out, searches) == (1, "", [])
        assert "eta must lie in (0, 1]" in err

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


    @pytest.mark.parametrize("mechanism", ["exact", "mcmc", "laplace", "identity"])
    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_nonpositive_m_exits_1(self, files, capsys, mechanism, m):
        _, _, cls = files
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cls), "--gamma", "0.5", "--alpha", "1",
             "--mechanism", mechanism, "--trials", "5", "--m", m],
        )
        assert code == 1
        assert out == ""
        assert "--m must be at least 1" in err


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
    def test_nonpositive_m_exits_1(self, files, capsys, m):
        _, db, cls = files
        code, out, err = run_capture(
            capsys, ["oracle", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", m]
        )
        assert (code, out) == (1, "")
        assert "--m must be at least 1" in err

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
        code, out, err = run_capture(
            capsys,
            ["attack", "--class", str(cube), "--gamma", "0.5", "--alpha", "1",
             "--mechanism", mechanism, "--trials", trials, "--dmax", "4"],
        )
        assert (code, out, err) == (1, "", "error: --trials must be at least 1\n")

    @pytest.mark.parametrize("command", ["release", "attack"])
    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_exits_1_before_any_load_or_search(
        self, capsys, tmp_path, command, steps
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
        code, out, err = run_capture(capsys, argv + ["--steps", steps])
        assert (code, out, err) == (1, "", "error: --steps must be at least 1\n")

    def test_steps_is_not_read_by_the_exact_sampler(self, files, capsys):
        _, db, cls = files
        argv = ["release", "--db", str(db), "--class", str(cls), "--alpha", "1", "--m", "2"]
        code, out, _ = run_capture(capsys, argv + ["--steps", "0"])
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

    def test_infinite_alpha_exits_1(self, files, capsys):
        _, db, cls = files
        code, _, err = run_capture(
            capsys,
            ["release", "--db", str(db), "--class", str(cls), "--alpha", "inf",
             "--m", "2", "--seed", "0"],
        )
        assert code == 1
        assert "alpha" in err

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

    def test_invalid_gamma_exits_1(self, files, capsys):
        _, _, cls = files
        code, _, _ = run_capture(
            capsys, ["fsd", "--class", str(cls), "--gamma", "0.7", "--dmax", "2"]
        )
        assert code == 1


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
        assert set(calls) == set(tracing._INFO)
        for name, (needs_args, info) in tracing._INFO.items():
            fn = sites[name]
            result = fn(*calls[name])
            bound = inspect.signature(fn).bind(*calls[name]).arguments if needs_args else None
            readings = info(bound, result)
            assert readings, name
            for value in readings.values():
                assert isinstance(value, (int, float, np.integer, np.floating)), (name, value)
