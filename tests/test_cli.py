import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from activescan import paper_params, read_similarity_csv, read_trim_report, write_edge_list
from activescan.cli import main
from activescan.sbm import edge_count_sd, expected_edge_count
from _testutil import er_graph, pa_graph, read_csv_rows

TRI = "0 1\n1 2\n2 0\n"


def write_tri(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text(TRI)
    return path


def test_detect_smoke_three_cycle(tmp_path):
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(write_tri(tmp_path)), "--Q", "3",
               "--out", str(out), "--emit-similarity"])
    assert rc == 0
    header, rows = read_csv_rows(out / "clusters.csv")
    assert header == ["vertex", "cluster"]
    assert len(rows) == 3
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["q"] == 3
    assert diag["cluster_floor_applied"] is True
    assert diag["num_clusters"] == 2
    _, topq_rows = read_csv_rows(out / "topq.csv")
    assert [r[1] for r in topq_rows] == ["3", "3", "3"]
    _, mds_rows = read_csv_rows(out / "mds.csv")
    assert len(mds_rows) == 3
    sim = read_similarity_csv(out / "similarity.csv")
    assert np.array_equal(sim.values, np.ones((3, 3)))


@pytest.mark.parametrize("flags, clusters", [
    (["--Q", "40", "--clusters", "3"], 3),  # the count is given, no model selection
    (["--Q", "40", "--max-clusters", "1"], 1),  # one cluster allowed
    (["--Q", "1"], 1),  # one vertex: one cluster, and MDS of one dimension
])
def test_detect_cluster_count_without_the_eigengap(flags, clusters, tmp_path):
    from activescan import write_edge_list
    path = tmp_path / "g.edges"
    write_edge_list(er_graph(120, 0.08, 3)[0], path)
    out = tmp_path / "out"
    assert main(["detect", "--input", str(path), "--out", str(out), "--seed", "3",
                 *flags]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["num_clusters"] == clusters
    assert diag["cluster_floor_applied"] is False
    assert len(diag["eigenvalues"]) == clusters
    _, rows = read_csv_rows(out / "clusters.csv")
    assert sorted({int(r[1]) for r in rows}) == list(range(clusters))
    _, mds_rows = read_csv_rows(out / "mds.csv")
    assert [r[0] for r in mds_rows] == [r[0] for r in rows]
    if flags == ["--Q", "1"]:
        assert mds_rows[0][1:] == ["0.0", "0.0"]  # the missing axis is padded with 0.0


def test_detect_on_a_complete_graph_writes_zero_mds_coordinates(tmp_path):
    # every Jaccard value is 1, so MDS centres a zero matrix, from which
    # ARPACK cannot start; the solve falls back to the dense one
    path = tmp_path / "k40.edges"
    path.write_text("".join(f"{i} {j}\n" for i in range(40) for j in range(i + 1, 40)))
    out = tmp_path / "out"
    assert main(["detect", "--input", str(path), "--Q", "30", "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "mds.csv")
    assert len(rows) == 30
    assert all(row[1:] == ["0.0", "0.0"] for row in rows)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert (diag["num_clusters"], diag["cluster_floor_applied"]) == (2, True)


def test_detect_writes_stage_timings_beside_its_outputs(tmp_path, monkeypatch):
    from activescan import cli, write_edge_list
    lg_path = tmp_path / "g.edges"
    write_edge_list(er_graph(120, 0.08, 3)[0], lg_path)
    runs = []
    for run, status in enumerate((cli.PROC_STATUS, str(tmp_path / "no-proc"))):
        monkeypatch.setattr(cli, "PROC_STATUS", status)  # the second: no /proc
        out = tmp_path / f"out{run}"
        assert main(["detect", "--input", str(lg_path), "--Q", "40",
                     "--out", str(out), "--seed", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "clusters.csv", "diagnostics.json", "mds.csv", "timings.json", "topq.csv"]
        timings = json.loads((out / "timings.json").read_text())
        assert list(timings) == ["wall_ms", "stages"]
        assert list(timings["stages"]) == ["load", "rank", "similarity", "model_selection",
                                           "clustering", "mds", "write"]
        stages = timings["stages"].values()
        assert all(list(s) == ["wall_ms", "vm_hwm_kb"] and s["wall_ms"] >= 0 for s in stages)
        assert sum(s["wall_ms"] for s in stages) <= timings["wall_ms"]
        peaks = [s["vm_hwm_kb"] for s in stages]
        if not os.path.exists(status):
            assert peaks == [None] * len(peaks)
        else:
            assert all(isinstance(kb, int) and kb > 0 for kb in peaks)
            assert peaks == sorted(peaks)  # a high-water mark only rises
        diag = json.loads((out / "diagnostics.json").read_text())
        assert "trim_wall_ms" in diag and not any("time" in key for key in diag)
        diag.pop("trim_wall_ms")
        runs.append([diag] + [(out / name).read_bytes()
                              for name in ("topq.csv", "clusters.csv", "mds.csv")])
    assert runs[0] == runs[1]  # the timings change no other output


def test_detect_missing_input_reports_error_json(tmp_path, capsys):
    rc = main(["detect", "--input", str(tmp_path / "absent.edges"),
               "--Q", "2", "--out", str(tmp_path / "o")])
    assert rc != 0
    err = json.loads(capsys.readouterr().err)
    assert "absent.edges" in err["message"]
    assert "absent.edges" in err["path"]


def test_detect_rejects_bad_q_k_and_workers(tmp_path, capsys, monkeypatch):
    def no_load(path):
        raise AssertionError("the graph was loaded")
    monkeypatch.setattr("activescan.cli.load_edge_list", no_load)
    out = tmp_path / "out"
    for flags, message in ((["--Q", "0"], "Q must be >= 1"),
                           (["--k", "-1"], "k must be >= 0"),
                           (["--workers", "0"], "workers must be >= 1"),
                           (["--similarity-k", "0"], "similarity_k must be >= 1"),
                           (["--clusters", "0"], "clusters must be >= 1"),
                           (["--max-clusters", "-4"], "max_clusters must be >= 1"),
                           (["--Q", "3", "--clusters", "7"],
                            "clusters must be <= Q, got 7 > 3"),
                           (["--sigma", "0"], "sigma must be positive"),
                           (["--sigma", "-0.5"], "sigma must be positive")):
        rc = main(["detect", "--input", str(write_tri(tmp_path)), "--out", str(out),
                   *flags])
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
    assert not out.exists()  # rejected before the graph is loaded or output written


def test_detect_q_above_n_fails_without_output(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(write_tri(tmp_path)), "--Q", "50",
               "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                   "message": "Q must be in [1, 3], got 50"}
    assert not out.exists()


def test_topq_full_q_computes_everything(tmp_path):
    g, _, _ = er_graph(100, 0.05, 1)
    from activescan import write_edge_list
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    report = tmp_path / "r.json"
    rc = main(["topq", "--input", str(path), "--Q", "100", "--out", str(report)])
    assert rc == 0
    q, res = read_trim_report(report)
    assert q == 100
    assert res.computed_count == 100


def test_topq_trims_on_skewed_graph(tmp_path):
    # star head on top of sparse noise: Q=1 needs few exact computations
    rng = np.random.default_rng(0)
    n = 400
    src = [0] * (n - 1) + rng.integers(1, n, size=150).tolist()
    dst = list(range(1, n)) + rng.integers(1, n, size=150).tolist()
    from activescan import Graph, write_edge_list
    g = Graph.from_edges(n, src, dst)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    report = tmp_path / "r.json"
    assert main(["topq", "--input", str(path), "--Q", "1", "--out", str(report)]) == 0
    _, res = read_trim_report(report)
    assert res.computed_count < g.n


def test_outputs_name_the_input_ids(tmp_path):
    # psi_1 ranks the input's 30, 10, 20, 40 (dense ids 2, 0, 1, 3)
    path = tmp_path / "sparse.edges"
    path.write_text("10 20\n20 30\n30 10\n30 40\n")
    for fmt in ("json", "csv"):
        report = tmp_path / f"r.{fmt}"
        assert main(["topq", "--input", str(path), "--Q", "4", "--format", fmt,
                     "--out", str(report)]) == 0
        assert read_trim_report(report)[1].entries == [(30, 4), (10, 3), (20, 3), (40, 1)]
    out = tmp_path / "out"
    assert main(["detect", "--input", str(path), "--Q", "4", "--out", str(out),
                 "--emit-similarity"]) == 0
    want = ["30", "10", "20", "40"]
    for name in ("topq.csv", "clusters.csv", "mds.csv"):
        assert [row[0] for row in read_csv_rows(out / name)[1]] == want, name
    assert read_csv_rows(out / "similarity.csv")[0] == want


@pytest.mark.parametrize("command", ["topq", "detect", "bench-trim"])
def test_workers_help_says_the_search_leaves_it_unused(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "accepted and unused: the search runs in one thread" in " ".join(
        capsys.readouterr().out.split())


def test_topq_repeated_runs_identical_reports(tmp_path):
    g, _, _ = er_graph(150, 0.04, 8)
    from activescan import write_edge_list
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    reports = []
    # the search is serial whatever --workers says, so reports agree across it
    for i, workers in enumerate(["1", "1", "2"]):
        out = tmp_path / f"r{i}.json"
        assert main(["topq", "--input", str(path), "--Q", "5", "--workers", workers,
                     "--out", str(out)]) == 0
        q, res = read_trim_report(out)
        # wall time is the only field allowed to vary
        reports.append((q, res.entries, res.computed_count, res.est1_count,
                        res.est2_count))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][2] < g.n  # the run prunes, so the counters are non-trivial


def test_topq_reads_a_piped_edge_list_once(tmp_path):
    # the C parse fails on the comment, so the line loop needs the same lines
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    report = tmp_path / "r.json"
    for text, rc, want in (
            ("0 1\n# c\n1 2\n", 0, None),
            ("0 1\nx 2\n", 1, {"error": "EdgeListParseError",
                               "message": "line 2: non-integer token in 'x 2'"}),
            ("0 1\n1 99999999999999999999\n", 1, {
                "error": "EdgeListParseError",
                "message": "line 2: vertex id above 2^63 - 1 in '1 99999999999999999999'"})):
        run = subprocess.run(
            [sys.executable, "-m", "activescan.cli", "topq", "--input", "/dev/stdin",
             "--Q", "1", "--out", str(report)],
            input=text, capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == rc, run.stderr
        if want:
            assert json.loads(run.stderr) == want
    q, res = read_trim_report(report)
    assert (q, res.entries) == (1, [(1, 2)])


def test_outputs_are_byte_identical_across_blas_thread_counts(tmp_path):
    # every spectral solve below Q - 1 eigenpairs is ARPACK's at every order,
    # whose bits do not move with the BLAS thread count (README); detect's
    # outputs and eval's ARI CSVs must read the same under 1 and 2 threads.
    # The count is set only for the child processes.
    path = tmp_path / "pa.edges"
    write_edge_list(pa_graph(1000, 3, 1)[0], path)
    src = Path(__file__).resolve().parents[1] / "src"
    commands = {
        "detect": ["detect", "--input", str(path), "--Q", "300", "--seed", "1"],
        "eval": ["eval", "--mode", "ari", "--paper", "--runs", "4", "--q-values", "70,200",
                 "--seed", "1", "--workers", "1"]}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads))
        for name, argv in commands.items():
            run = subprocess.run(
                [sys.executable, "-m", "activescan.cli", *argv,
                 "--out", str(tmp_path / f"{name}{threads}")],
                capture_output=True, text=True, env=env, timeout=300)
            assert run.returncode == 0, run.stderr
    for name, files in (("detect", ("topq.csv", "clusters.csv", "mds.csv")),
                        ("eval", ("ari_runs.csv", "ari_summary.csv"))):
        for file in files:
            one, two = (tmp_path / f"{name}{threads}" / file for threads in (1, 2))
            assert one.read_bytes() == two.read_bytes(), file
    diags = [json.loads((tmp_path / f"detect{threads}" / "diagnostics.json").read_text())
             for threads in (1, 2)]
    for diag in diags:
        diag.pop("trim_wall_ms")
    assert diags[0] == diags[1]


def test_commands_without_a_spectral_stage_import_no_scipy_linalg(tmp_path):
    # ranking, ROC evaluation and SBM generation never solve an eigenproblem,
    # so they must not pay for importing ARPACK or scipy's BLAS
    path = tmp_path / "pa.edges"
    write_edge_list(pa_graph(200, 3, 1)[0], path)
    argvs = [["topq", "--input", str(path), "--Q", "20", "--out", str(tmp_path / "top.json")],
             ["eval", "--mode", "roc", "--paper", "--runs", "2", "--k", "1", "--workers", "1",
              "--out", str(tmp_path / "roc")],
             ["sbm", "--paper", "--out", str(tmp_path / "sbm")]]
    code = ("import sys\n"
            "from activescan.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "for name in ('scipy.sparse.linalg', 'scipy.linalg'):\n"
            "    assert name not in sys.modules, name\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def test_sbm_paper_flag_writes_expected_files(tmp_path, capsys):
    prefix = tmp_path / "bench"
    rc = main(["sbm", "--paper", "--seed", "4", "--out", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=1000" in out
    _, label_rows = read_csv_rows(tmp_path / "bench_labels.csv")
    assert len(label_rows) == 1000
    m = int(out.split("m=")[1])
    params = paper_params()
    assert abs(m - expected_edge_count(params)) < 6 * edge_count_sd(params)
    edges = (tmp_path / "bench.edges").read_text().splitlines()
    assert len(edges) == m


def test_sbm_seed_determinism_byte_level(tmp_path):
    p1, p2 = tmp_path / "a", tmp_path / "b"
    assert main(["sbm", "--paper", "--seed", "11", "--out", str(p1)]) == 0
    assert main(["sbm", "--paper", "--seed", "11", "--out", str(p2)]) == 0
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()


def test_missing_params_file_reports_its_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for argv in (["sbm", "--params", str(missing), "--out", str(tmp_path / "x")],
                 ["eval", "--mode", "roc", "--params", str(missing),
                  "--out", str(tmp_path / "e")]):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert err["path"] == str(missing)
    assert not (tmp_path / "e").exists()


def test_sbm_invalid_params_json(tmp_path, capsys):
    bad = tmp_path / "p.json"
    bad.write_text("{not json")
    rc = main(["sbm", "--params", str(bad), "--out", str(tmp_path / "x")])
    assert rc != 0
    assert json.loads(capsys.readouterr().err)["error"]


def test_eval_roc_single_run_matches_library(tmp_path):
    params_file = tmp_path / "p.json"
    from activescan import params_to_json, SBMParams
    params = SBMParams((30, 10), np.full((2, 2), 0.05) + np.diag([0.0, 0.6]))
    params_to_json(params, params_file)
    out = tmp_path / "ev"
    rc = main(["eval", "--mode", "roc", "--params", str(params_file),
               "--runs", "1", "--k", "1", "--seed", "3", "--out", str(out)])
    assert rc == 0
    from activescan import monte_carlo_roc
    res = monte_carlo_roc(params, runs=1, k=1, seed=3)
    _, rows = read_csv_rows(out / "roc_mean_curve.csv")
    assert [float(r[1]) for r in rows] == res.mean_tpr.tolist()
    _, runs = read_csv_rows(out / "roc_runs.csv")
    assert float(runs[0][1]) == res.run_aucs[0]


def test_eval_ari_row_counts(tmp_path):
    params_file = tmp_path / "p.json"
    from activescan import params_to_json, SBMParams
    params = SBMParams((30, 10, 10),
                       np.full((3, 3), 0.02) + np.diag([0.0, 0.8, 0.8]))
    params_to_json(params, params_file)
    out = tmp_path / "ev"
    rc = main(["eval", "--mode", "ari", "--params", str(params_file),
               "--runs", "3", "--k", "1", "--q-values", "10,20",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv_rows(out / "ari_runs.csv")
    assert len(rows) == 6  # runs x q_values
    _, summary = read_csv_rows(out / "ari_summary.csv")
    assert [r[0] for r in summary] == ["10", "20"]


def test_eval_runs_zero_rejected(tmp_path, capsys):
    out = tmp_path / "e"
    for flag, message in (("--runs", "runs must be >= 1"),
                          ("--workers", "workers must be >= 1")):
        rc = main(["eval", "--mode", "roc", "--paper", flag, "0", "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["detect", "--Q", "2"], "--input is required"),
    (["topq", "--Q", "2"], "--input is required"),
    (["bench-trim", "--q-values", "2"], "--input is required"),
    (["sbm"], "either --paper or --params is required"),
    (["eval", "--mode", "roc"], "either --paper or --params is required"),
    (["eval", "--paper"], "--mode must be roc or ari"),
], ids=["detect-input", "topq-input", "bench-trim-input", "sbm-params", "eval-params",
        "eval-mode"])
def test_a_missing_required_option_fails_before_output(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                   "message": message}
    assert not any(tmp_path.iterdir())


def test_q_values_are_parsed_before_output(tmp_path, capsys):
    out = tmp_path / "qv" / "e"
    for text, message in (("", "empty q-values"),
                          ("70,a", "--q-values: token 2, 'a', is not an integer"),
                          ("1", "q values must lie in [2, 1000], got 1")):
        rc = main(["eval", "--mode", "ari", "--paper", "--runs", "1",
                   "--q-values", text, "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
    assert not out.parent.exists()


def test_bench_trim_full_q(tmp_path):
    path = write_tri(tmp_path)
    out = tmp_path / "bench.csv"
    rc = main(["bench-trim", "--input", str(path), "--q-values", "1,3",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out)
    assert header == ["q", "wall_ms", "computed_count", "est1_count", "est2_count"]
    assert rows[1][0] == "3" and rows[1][2] == "3"


def test_bench_trim_validates_q_values(tmp_path, capsys):
    path = write_tri(tmp_path)
    rc = main(["bench-trim", "--input", str(tmp_path / "absent.edges"), "--q-values", "0,2",
               "--out", str(tmp_path / "b.csv")])
    assert rc == 1  # checked before the input is opened
    assert json.loads(capsys.readouterr().err)["message"] == "q-values must be >= 1"
    rc = main(["bench-trim", "--input", str(path), "--q-values", "3,1",
               "--out", str(tmp_path / "b.csv")])
    assert rc != 0
    capsys.readouterr()
    rc = main(["bench-trim", "--input", str(path), "--q-values", "",
               "--out", str(tmp_path / "b.csv")])
    assert rc != 0
    capsys.readouterr()
    rc = main(["bench-trim", "--input", str(path), "--q-values", "1,a",
               "--out", str(tmp_path / "b.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["message"] == \
        "--q-values: token 2, 'a', is not an integer"
    assert not (tmp_path / "b.csv").exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    path = write_tri(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "workers": 1}))
    report = tmp_path / "r.json"
    rc = main(["topq", "--input", str(path), "--config", str(cfg),
               "--out", str(report), "--dump-config"])
    assert rc == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["q"] == 2  # from config file
    q, _ = read_trim_report(report)
    assert q == 2
    # flag overrides config
    rc = main(["topq", "--input", str(path), "--config", str(cfg), "--Q", "3",
               "--out", str(report), "--dump-config"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["q"] == 3


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = write_tri(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["topq", "--input", str(path), "--config", str(cfg)])
    assert rc != 0
    assert "bogus" in json.loads(capsys.readouterr().err)["message"]


def test_config_values_are_type_checked(tmp_path, capsys):
    path = write_tri(tmp_path)
    cfg = tmp_path / "cfg.json"
    for value, message in (
            ({"q": "2"}, "config key 'q' must be int, got '2'"),
            ({"q": 2.0}, "config key 'q' must be int, got 2.0"),
            ({"q": True}, "config key 'q' must be int, got True"),
            ({"format": "xml"}, "config key 'format' must be one of ['csv', 'json'], got 'xml'"),
            ({"out": 3}, "config key 'out' must be str, got 3"),
            ({"workers": None, "format": None},
             "config key 'format' must be one of ['csv', 'json'], got None"),
            ({"workers": 0}, "workers must be >= 1"),
            ({"q": 0}, "Q must be >= 1"),
            ([1, 2], "config file must hold a JSON object, got list")):
        cfg.write_text(json.dumps(value))
        assert main(["topq", "--input", str(path), "--config", str(cfg)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
    # null where the default is None; any number for a float; booleans for switches
    cfg.write_text(json.dumps({"sigma": 1, "clusters": None, "emit_similarity": True}))
    out = tmp_path / "out"
    assert main(["detect", "--input", str(path), "--Q", "3", "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert json.loads((out / "diagnostics.json").read_text())["sigma"] == 1
    assert (out / "similarity.csv").exists()


def test_missing_config_file_reports_bare_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["topq", "--input", str(write_tri(tmp_path)),
                 "--config", str(missing)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["path"] == str(missing)


def test_detect_end_to_end_on_sbm(tmp_path):
    from activescan import ari, generate_sbm, write_edge_list
    lg = generate_sbm(paper_params(seed=2))
    edges = tmp_path / "sbm.edges"
    write_edge_list(lg.graph, edges)
    out = tmp_path / "out"
    rc = main(["detect", "--input", str(edges), "--Q", "60", "--k", "1",
               "--out", str(out), "--seed", "1"])
    assert rc == 0
    _, rows = read_csv_rows(out / "clusters.csv")
    pred = [int(r[1]) for r in rows]
    true = [int(lg.labels[int(r[0])]) for r in rows]
    assert ari(pred, true) > 0.7
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["num_clusters"] >= 2


def test_detect_nondefault_k_ranks_by_full_sweep(tmp_path):
    from activescan import generate_sbm, psi_all, write_edge_list
    lg = generate_sbm(paper_params(seed=2))
    edges = tmp_path / "sbm.edges"
    write_edge_list(lg.graph, edges)
    out = tmp_path / "out2"
    rc = main(["detect", "--input", str(edges), "--Q", "25", "--k", "0",
               "--out", str(out), "--seed", "1"])
    assert rc == 0
    header, rows = read_csv_rows(out / "topq.csv")
    assert header == ["vertex", "psi0"]
    scores = psi_all(lg.graph, 0)
    want = np.sort(scores)[::-1][:25].tolist()
    assert sorted((int(r[1]) for r in rows[:25]), reverse=True) == want
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["trim_wall_ms"] > 0


def test_workers_default_from_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACTIVE_SCAN_THREADS", "5")
    path = write_tri(tmp_path)
    rc = main(["topq", "--input", str(path), "--Q", "1", "--dump-config"])
    assert rc == 0
    out = capsys.readouterr().out
    cfg = json.loads(out[:out.rindex("}") + 1])  # JSON block precedes the summary
    assert cfg["workers"] == 5


def test_workers_env_rejects_non_positive_integers(tmp_path, capsys, monkeypatch):
    path = write_tri(tmp_path)
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("ACTIVE_SCAN_THREADS", bad)
        rc = main(["topq", "--input", str(path), "--Q", "1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "ACTIVE_SCAN_THREADS" in err["message"]
    # an explicit flag does not consult the variable
    assert main(["topq", "--input", str(path), "--Q", "1", "--workers", "1"]) == 0


def test_dump_config_pins_every_command_default(tmp_path, capsys, monkeypatch):
    # only the required flags, each pointing at a missing file, so every
    # command prints its configuration and then fails before any work
    monkeypatch.delenv("ACTIVE_SCAN_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    nope = str(tmp_path / "nope")
    cases = [
        (["detect", "--input", nope],
         {"input": nope, "out": "out", "k": 1, "q": 2000, "similarity_k": None,
          "sigma": None, "clusters": None, "max_clusters": 10, "workers": 1,
          "seed": 0, "emit_similarity": False}),
        (["topq", "--input", nope],
         {"input": nope, "q": 2000, "workers": 1, "out": None, "format": "json"}),
        (["sbm", "--params", nope],
         {"params": nope, "paper": False, "seed": None, "out": "sbm"}),
        (["eval", "--mode", "roc", "--params", nope],
         {"mode": "roc", "params": nope, "paper": False, "runs": 200, "k": 1,
          "q_values": "61,70,100,150,200", "seed": 0, "workers": 1, "out": "eval"}),
        (["bench-trim", "--input", nope, "--q-values", "1"],
         {"input": nope, "q_values": "1", "workers": 1, "out": "bench.csv"}),
    ]
    for argv, want in cases:
        assert main(argv + ["--dump-config"]) == 1
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
    assert list(tmp_path.iterdir()) == []  # nothing written
