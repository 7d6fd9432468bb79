import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regtail.cli import main
from regtail.graphs import parse_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)


def test_invariants_k0(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--family", "k0", "--delta", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["gamma"] == "1"
    assert blob["contributing"] == ["empty", "K24", "K0"]
    assert blob["bad_edges"]["K0"] == ["w1-w2"]
    assert blob["bad_edges"]["K24"] == []
    assert blob["cover_number"] == "3"
    assert blob["P"] == "1 + z^2 + w^3 + z^2 w + 2 z^3"


def test_invariants_k23_rho(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--family", "complete-bipartite:2,3",
                           "--delta", "1")
    blob = json.loads(out)
    assert code == 0
    assert blob["P"] == "1 + z^2"
    assert abs(blob["rho"] - 1.0) < 1e-8


def test_invariants_forest_file(tmp_path, capsys):
    path = tmp_path / "forest.el"
    path.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "invariants", "--file", str(path))
    blob = json.loads(out)
    assert code == 0
    assert blob["classification"] == "forest: upper tail trivial"


def test_invariants_edge_list_round_trip(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--family", "butterfly")
    blob = json.loads(out)
    g, _ = parse_edge_list(blob["graph"]["edge_list"])
    assert sorted(map(tuple, blob["graph"]["edges"])) == g.sorted_edges()


def test_rate_k0(capsys):
    code, out, _ = run_cli(capsys, "rate", "--family", "k0", "--delta", "1",
                           "--n", "1e6", "--p", "1e-3")
    blob = json.loads(out)
    assert code == 0
    assert blob["rate_report"]["classification"] == "k0-special"
    assert blob["rate_report"]["rate"] > 0


RATE_ARGS = ("--delta", "1", "--n", "1e6", "--p", "1e-3")


def test_rate_honours_caps(capsys):
    code, _, err = run_cli(capsys, "rate", "--family", "k0", *RATE_ARGS,
                           "--caps", "cover=5")
    assert code == 3 and "cover cap 5" in err
    # The default caps, implicit or spelled out, give the same reports.
    expected = {"k0": ("k0-special", "1", 1.3103706971044482, 5920.196805162712),
                "complete-bipartite:2,3": ("rho-exact", "1/2", 1.0, 218442.402006354)}
    for family, (kind, gamma_value, constant, rate) in expected.items():
        reports = []
        for caps in ((), ("--caps", "cover=12")):
            code, out, _ = run_cli(capsys, "rate", "--family", family, *RATE_ARGS, *caps)
            assert code == 0
            reports.append(json.loads(out)["rate_report"])
        assert reports[0] == reports[1]
        report = reports[0]
        assert (report["classification"], report["gamma"]) == (kind, gamma_value)
        assert report["constant"] == pytest.approx(constant, rel=1e-12)
        assert report["rate"] == pytest.approx(rate, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("rate", "--family", "complete-bipartite:3,3", "--delta", "1e-17", "--n", "1e6", "--p", "1e-3"),
    ("rate", "--family", "cycle:5", "--delta", "1e-17", "--n", "1e6", "--p", "1e-3"),
    ("invariants", "--family", "complete-bipartite:3,3", "--delta", "1e-16"),
], ids=["rate-K33", "rate-C5", "invariants-K33"])
def test_delta_lost_in_one_plus_delta_exits_2(capsys, argv):
    # rho and the cycle constant would solve P = 1 and report 0.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "1 + delta rounds to 1" in err


def test_rate_k7(capsys):
    # 21 edges: the census reads the 3^7 rows of one cover table.
    code, out, _ = run_cli(capsys, "rate", "--family", "complete:7", *RATE_ARGS)
    assert code == 0
    report = json.loads(out)["rate_report"]
    assert (report["classification"], report["gamma"]) == ("rho-exact", "4")


@pytest.mark.parametrize("family, gamma_value", [
    ("complete:9", "6"), ("complete-bipartite:5,5", "3")])
def test_rate_beyond_the_old_edge_cap(capsys, family, gamma_value):
    # 36 and 25 edges: no edge count bounds the census, only the 12
    # vertices of the cover table.
    code, out, _ = run_cli(capsys, "rate", "--family", family, *RATE_ARGS)
    assert code == 0
    report = json.loads(out)["rate_report"]
    assert (report["classification"], report["gamma"]) == ("rho-exact", gamma_value)


def test_cover_cap_bounds_the_scanned_two_core(capsys, tmp_path):
    # K4 plus a disjoint C9: 15 edges, and a 2-core on 13 vertices, which
    # the cover table of the census must span.
    path = tmp_path / "k4c9.el"
    path.write_text("".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4))
                    + "".join(f"{4 + i} {4 + (i + 1) % 9}\n" for i in range(9)))
    code, _, err = run_cli(capsys, "rate", "--file", str(path), *RATE_ARGS)
    assert code == 3 and "13 vertices exceeds cover cap 12" in err
    # Pendant trees never enter the table: K4 plus a 10-edge pendant path
    # has 14 vertices and still classifies.
    path = tmp_path / "k4path.el"
    path.write_text("".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4))
                    + "".join(f"{3 + i} {4 + i}\n" for i in range(10)))
    code, out, _ = run_cli(capsys, "rate", "--file", str(path), *RATE_ARGS)
    assert code == 0
    report = json.loads(out)["rate_report"]
    assert (report["classification"], report["gamma"]) == ("rho-exact", "1")


@pytest.mark.parametrize("argv", [
    ["invariants", "--family", "k0"],
    ["rate", "--family", "k0", *RATE_ARGS],
    ["construct", "--family", "k0", "--w0", "--gamma", "1", "--z", "1", "--w", "0", "--p", "1e-3"]],
    ids=["invariants", "rate", "construct"])
def test_caps_bound_the_commands_that_read_them(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--caps", "cover=5")
    assert code == 3 and out == "" and "cover cap 5" in err


@pytest.mark.parametrize("argv", [
    ["check-conditions", "--family", "k0", "--w1", "--n", "1e9", "--p", "1e-3"],
    ["holder", "--family", "k0", "--instances", "5"],
    ["simulate", "--family", "cycle:3", "--n", "12", "--d", "3", "--delta", "0", "--trials", "2"],
    ["plant", "--family", "complete-bipartite:2,3", "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
     "--n", "300", "--p", "0.05", "--trials", "2"]],
    ids=["check-conditions", "holder", "simulate", "plant"])
def test_caps_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    for caps in ("cover=5", "garbage=x"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--caps", caps])
        assert exc.value.code == 2
        assert "unrecognized arguments: --caps" in capsys.readouterr().err
    assert main(argv) == 0


def test_matching_cap_is_gone(capsys):
    # Bad edges and cover numbers come from matchings, and the census reads
    # cover rows, so no cap bounds the edges of a matching solve or a scan.
    for cap in ("matching=13", "edges=21"):
        code, _, err = run_cli(capsys, "rate", "--family", "k0", *RATE_ARGS, "--caps", cap)
        assert code == 2 and f"bad cap '{cap}'; use cover=" in err


K6_MINUS_EDGE = "".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6)
                        if (u, v) != (4, 5))


def test_rate_k6_minus_edge(capsys, tmp_path):
    # 14 edges: beyond the old 13-edge matching cap, which made this exit 3.
    path = tmp_path / "k6e.el"
    path.write_text(K6_MINUS_EDGE)
    code, out, _ = run_cli(capsys, "rate", "--file", str(path), *RATE_ARGS)
    assert code == 0
    report = json.loads(out)["rate_report"]
    assert (report["classification"], report["gamma"]) == ("rho-exact", "8/3")


def test_invariants_k6_minus_edge(capsys, tmp_path):
    path = tmp_path / "k6e.el"
    path.write_text(K6_MINUS_EDGE)
    code, out, _ = run_cli(capsys, "invariants", "--file", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob["cover_number"] == "3"
    assert blob["contributing"] == ["empty", "H(v=6,e=14)"]
    assert blob["bad_edges"] == {"H(v=6,e=14)": []}


def test_invariants_keys_unique_for_equal_names(capsys):
    # Both triangles of C3+C3 contribute and share the display name C3; each
    # map keeps one entry per contributing subgraph.
    code, out, _ = run_cli(capsys, "invariants", "--family", "disjoint-union:3,3")
    assert code == 0
    blob = json.loads(out)
    assert blob["contributing"] == ["empty", "C3", "C3", "C3+C3"]
    keys = ["C3 [0-1, 0-2, 1-2]", "C3 [3-4, 3-5, 4-5]", "C3+C3"]
    assert sorted(blob["bad_edges"]) == keys
    assert sorted(blob["valid_subsets"]) == keys


def test_regtail_threads_sizes_the_blas_pool():
    # BLAS sizes its thread pool when numpy loads it, so the variable has to
    # act on `import regtail`. Read the live pool the way bench/machine.py
    # does, in a fresh interpreter without the other thread variables.
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("libscipy_openblas*.so*"))
    if not libs:
        pytest.skip("numpy bundles no scipy-openblas")
    import regtail
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["REGTAIL_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(regtail.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))
    script = ("import ctypes, sys, regtail\n"
              "fn = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
              "fn.argtypes = []\n"
              "fn.restype = ctypes.c_int\n"
              "print(fn())\n")
    out = subprocess.run([sys.executable, "-c", script, str(libs[0])], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "1"


def test_construct_grid_json_and_csv(capsys):
    args = ("construct", "--family", "complete-bipartite:2,3", "--w0",
            "--gamma", "1/2", "--z", "1", "--w", "0", "--p-grid", "1e-2,1e-3,1e-4")
    code, out, _ = run_cli(capsys, *args)
    blob = json.loads(out)
    assert code == 0
    ratios = [row["hom_ratio"] for row in blob["table"]]
    assert ratios[0] > ratios[1] > ratios[2] > 2.0
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,hom_ratio")
    assert len(lines) == 4


def test_check_conditions(capsys, tmp_path):
    thresholds = tmp_path / "thr.json"
    # null is a value only where the default is None.
    thresholds.write_text(json.dumps({"small_factor": 0.2, "hom_plus_max": None}))
    code, out, _ = run_cli(capsys, "check-conditions", "--family", "complete-bipartite:2,3",
                           "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
                           "--p", "1e-3", "--n", "1e9",
                           "--thresholds-file", str(thresholds))
    blob = json.loads(out)
    assert code == 0
    conditions = blob["conditions"]["conditions"]
    assert len(conditions) == 10
    assert conditions["1"]["passed"] is True


@pytest.mark.parametrize("n", ["0", "-5", "nan", "inf"])
def test_check_conditions_needs_finite_n_of_at_least_3(capsys, n):
    code, out, err = run_cli(capsys, "check-conditions", "--family", "k0", "--w1",
                             "--d1", "4", "--d2", "1", "--p", "1e-3", f"--n={n}")
    assert code == 2 and out == ""
    assert err == "error: need finite n >= 3\n"


def test_holder_cli(capsys):
    code, out, _ = run_cli(capsys, "holder", "--family", "butterfly",
                           "--instances", "25", "--seed", "7")
    blob = json.loads(out)
    assert code == 0
    assert blob["holder"]["violations"] == 0


def test_holder_k6(capsys):
    # 15 edges: beyond the old 13-edge matching cap, which made this exit 3.
    code, out, _ = run_cli(capsys, "holder", "--family", "complete:6",
                           "--instances", "200", "--seed", "7")
    assert code == 0
    blob = json.loads(out)
    assert blob["holder"]["instances"] == 200
    assert blob["holder"]["violations"] == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_holder_cli_needs_an_instance(capsys, count):
    code, out, err = run_cli(capsys, "holder", "--family", "butterfly", "--instances", count)
    assert code == 2 and out == ""
    assert "instance" in err


@pytest.mark.parametrize("resolution, code", [("0", 2), ("-2", 2), ("25", 3)])
def test_holder_cli_resolution_bounds(capsys, monkeypatch, resolution, code):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew an instance before checking the resolution")

    monkeypatch.setattr(np.random, "Philox", no_draws)
    got, out, err = run_cli(capsys, "holder", "--family", "k0", "--instances", "5",
                            "--resolution", resolution)
    assert got == code and out == ""
    assert "resolution" in err


@pytest.mark.parametrize("argv", [
    ["holder", "--family", "k0", "--instances", "5"],
    ["simulate", "--family", "cycle:3", "--n", "12", "--d", "3", "--delta", "-0.5", "--trials", "2"],
    ["plant", "--family", "complete-bipartite:2,3", "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
     "--n", "300", "--p", "0.05", "--trials", "2"]], ids=["holder", "simulate", "plant"])
def test_negative_seed_is_a_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be non-negative\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_simulate_cli_needs_a_trial(capsys, count):
    code, out, err = run_cli(capsys, "simulate", "--family", "cycle:3", "--n", "12",
                             "--d", "3", "--delta", "-0.5", "--trials", count)
    assert code == 2 and out == ""
    assert "trial" in err


def test_simulate_cli_high_degree(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "cycle:3", "--n", "64", "--d", "54",
                           "--delta", "0.5", "--trials", "1", "--seed", "1")
    assert code == 0
    assert json.loads(out)["tail_estimate"]["trials"] == 1


def test_simulate_cli_with_dump(capsys, tmp_path):
    dump = tmp_path / "sample.el"
    code, out, _ = run_cli(capsys, "simulate", "--family", "cycle:3", "--n", "12",
                           "--d", "3", "--delta", "-0.5", "--trials", "20",
                           "--seed", "1", "--dump-graph", str(dump))
    blob = json.loads(out)
    assert code == 0
    assert blob["tail_estimate"]["trials"] == 20
    g, _ = parse_edge_list(dump.read_text())
    assert sorted(d for d in g.degrees().values()) == [3] * 12


def test_simulate_cli_counts_k23_past_the_backtracking_cap(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "complete-bipartite:2,3",
                           "--n", "200", "--d", "10", "--delta", "0", "--trials", "2")
    assert code == 0
    assert json.loads(out)["tail_estimate"]["trials"] == 2


def test_simulate_cli_cycle_past_the_backtracking_cap_exits_3(capsys):
    code, out, err = run_cli(capsys, "simulate", "--family", "cycle:3", "--n", "65",
                             "--d", "4", "--delta", "0", "--trials", "2")
    assert code == 3 and out == ""
    assert "64" in err


def test_plant_cli(capsys):
    code, out, _ = run_cli(capsys, "plant", "--family", "complete-bipartite:2,3",
                           "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
                           "--n", "300", "--p", "0.05", "--trials", "5", "--seed", "3")
    blob = json.loads(out)
    assert code == 0
    assert blob["planted_comparison"]["predicted_ratio"] > 1.0


def test_plant_cli_needs_a_trial(capsys):
    code, out, err = run_cli(capsys, "plant", "--family", "complete-bipartite:2,3",
                             "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
                             "--n", "300", "--p", "0.05", "--trials", "0")
    assert code == 2 and out == ""
    assert "trial" in err


def test_deterministic_output(capsys):
    args = ("invariants", "--family", "k0", "--delta", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert strip_timestamp(first) == strip_timestamp(second)


def test_exit_code_config_error(capsys):
    code, _, err = run_cli(capsys, "invariants", "--family", "nope")
    assert code == 2 and "error" in err


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "invariants", "--family", "complete:13")
    assert code == 3 and "13 vertices exceeds cover cap 12" in err


def test_exit_code_infeasible(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "complete-bipartite:2,3",
                           "--w0", "--gamma", "1/2", "--z", "3", "--w", "0", "--p", "0.5")
    assert code == 4 and "infeasible" in err


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "invariants", "--family", "cycle:5",
                           "--out", str(out_path))
    assert code == 0 and out == ""
    blob = json.loads(out_path.read_text())
    assert blob["gamma"] == "0"


@pytest.mark.parametrize("argv", [
    ("invariants", "--family", "complete-bipartite:2,3", "--delta", "nan"),
    ("rate", "--family", "cycle:5", "--delta", "nan", "--n", "1e6", "--p", "1e-3"),
    ("rate", "--family", "complete-bipartite:2,3", "--delta", "inf", "--n", "1e6", "--p", "1e-3"),
    ("rate", "--family", "cycle:5", "--delta", "1", "--n", "inf", "--p", "1e-3"),
], ids=["invariants-delta-nan", "rate-delta-nan", "rate-delta-inf", "rate-n-inf"])
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err


def test_unreadable_inputs_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing")
    code, out, err = run_cli(capsys, "invariants", "--file", missing)
    assert code == 2 and out == "" and f"cannot read {missing}" in err
    code, out, err = run_cli(capsys, "check-conditions", "--family", "complete-bipartite:2,3",
                             "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
                             "--n", "1e4", "--p", "1e-2", "--thresholds-file", missing)
    assert code == 2 and out == "" and f"cannot read {missing}" in err


def test_bad_p_grid_exits_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "complete-bipartite:2,3",
                             "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
                             "--p-grid", "1e-3,")
    assert code == 2 and out == "" and "bad --p-grid '1e-3,'" in err


def test_unwritable_outputs_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "report.json")
    code, out, err = run_cli(capsys, "invariants", "--family", "k0", "--out", missing)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: cannot write {missing}: No such file or directory\n"
    code, out, err = run_cli(capsys, "simulate", "--family", "cycle:3", "--n", "12", "--d", "3",
                             "--delta", "0.5", "--trials", "2", "--dump-graph", missing)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == f"error: cannot write {missing}: No such file or directory\n"


@pytest.mark.parametrize("text, message", [
    ("{bad", "cannot parse {path}: Expecting property name enclosed in double quotes "
             "at line 1 column 2"),
    ("[1,2]", "{path} must hold a JSON object"),
    ('{"small_factor": "x"}', "threshold 'small_factor' must be a number"),
], ids=["not-json", "list", "string-value"])
def test_bad_thresholds_file_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "thr.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check-conditions", "--family", "complete-bipartite:2,3",
                             "--w0", "--gamma", "1/2", "--z", "1", "--w", "0",
                             "--n", "1e4", "--p", "1e-2", "--thresholds-file", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "error: " + message.format(path=path) + "\n"


def test_non_integer_family_parameters_exit_2(capsys):
    code, out, err = run_cli(capsys, "invariants", "--family", "cycle:x")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "error: bad family parameters 'x'; use integers, e.g. cycle:5\n"


def test_zero_denominator_gamma_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "complete-bipartite:2,3", "--w0",
              "--gamma", "1/0", "--p", "1e-3"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "Traceback" not in out.err
    assert out.err.endswith("argument --gamma: invalid fraction '1/0'\n")


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    import regtail.cli

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(regtail.cli, "build_parser", no_parser)
    code, out, _ = run_cli(capsys, "rate", "--family", "k0", *RATE_ARGS)
    assert code == 0 and json.loads(out)["rate_report"]["classification"] == "k0-special"


def test_shared_parser_carries_nothing_between_calls(capsys):
    # A fresh interpreter's output is the reference for the last call.
    import regtail
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(regtail.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "regtail.cli", "invariants", "--family", "k0"],
                           env=env, capture_output=True, text=True, timeout=120, check=True)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--family", "k0"])  # --delta missing
    assert exc.value.code == 2
    assert main(["holder", "--family", "k0", "--instances", "5", "--seed", "-1"]) == 2
    assert main(["invariants", "--family", "k0", "--caps", "cover=12"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "invariants", "--family", "k0")
    assert code == 0
    assert "caps" not in json.loads(out)["config"]
    assert strip_timestamp(out) == strip_timestamp(fresh.stdout)


# The benchmark's `invariants` workload: its 12 patterns, in the benchmark's
# vertex labels, and its two commands.
def _multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return [(u, v) for u in range(len(part)) for v in range(u + 1, len(part))
            if part[u] != part[v]]


def _cycle(k, base=0):
    return [(base + i, base + (i + 1) % k) for i in range(k)]


_K0 = _multipartite(2, 4) + [(2, 3)]
CORPUS_EDGES = {
    "tree5": [(0, 1), (1, 2), (1, 3), (3, 4)],
    "C3+C4": _cycle(3) + _cycle(4, base=3),
    "K4": _multipartite(1, 1, 1, 1),
    "butterfly": _cycle(3) + [(0, 3), (0, 4), (3, 4)],
    "K23": _multipartite(2, 3),
    "K24": _multipartite(2, 4),
    "K33": _multipartite(3, 3),
    "K5": _multipartite(1, 1, 1, 1, 1),
    "K34": _multipartite(3, 4),
    "K1122": _multipartite(1, 1, 2, 2),
    "K0": _K0,
    "K0+C3": _K0 + _cycle(3, base=6),
}
CORPUS_COMMANDS = {"invariants": ["--delta", "1"],
                   "rate": ["--delta", "1", "--n", "1e6", "--p", "1e-3"]}
# The holder benchmark's six Hölder patterns and its two constructions.
HOLDER_EDGES = {"P3": [(0, 1), (1, 2)], "C4": _cycle(4), "C5": _cycle(5),
                "K23": CORPUS_EDGES["K23"], "butterfly": CORPUS_EDGES["butterfly"], "K0": _K0}
CORPUS_RUNS = (
    [(name, command, flags) for name in CORPUS_EDGES for command, flags in CORPUS_COMMANDS.items()]
    + [(name, "holder", ["--instances", "200", "--seed", "3"]) for name in HOLDER_EDGES]
    + [("K23", "construct", ["--w0", "--gamma", "1/2", "--z", "1", "--w", "0", "--p-grid", "1e-2,1e-3,1e-4"]),
       ("K0", "construct", ["--w1", "--d1", "4", "--d2", "1", "--p-grid", "1e-2,1e-3,1e-4"])])
CORPUS_FIXTURE = Path(__file__).with_name("corpus_cli_outputs.json")


def corpus_outputs():
    """Each corpus run's JSON output, timestamp blanked, keyed
    "<command> <pattern>". The edge files go to the working directory, so
    the echoed configuration names them by a relative path."""
    outputs = {}
    for name, command, flags in CORPUS_RUNS:
        path = Path(f"{name}.el")
        path.write_text("".join(f"{u} {v}\n" for u, v in {**CORPUS_EDGES, **HOLDER_EDGES}[name]),
                        encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([command, "--file", str(path), *flags])
        if code != 0:
            raise RuntimeError(f"{command} {name} exited {code}")
        outputs[f"{command} {name}"] = strip_timestamp(buf.getvalue())
    return outputs


def test_corpus_output_is_byte_identical_to_fixture(tmp_path, monkeypatch):
    # The fixture holds each output parsed; dumped back in the CLI's format,
    # it gives the recorded bytes.
    monkeypatch.chdir(tmp_path)
    expected = json.loads(CORPUS_FIXTURE.read_text(encoding="utf-8"))
    outputs = corpus_outputs()
    assert list(outputs) == list(expected)
    for key, text in outputs.items():
        assert text == json.dumps(expected[key], indent=2, sort_keys=True) + "\n", key


if __name__ == "__main__":
    # Rewrites the fixture from the regtail on the path. Run it from an
    # empty directory, with the commit whose output is the reference:
    #   PYTHONPATH=<checkout>/src python3 <checkout>/tests/test_cli.py
    fixture = {key: json.loads(text) for key, text in corpus_outputs().items()}
    CORPUS_FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
