import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermidistill import lattice
from fermidistill.cli import main
from fermidistill.closed_forms import (
    FourModeParams,
    four_mode_covariance,
    four_mode_f,
    four_mode_split,
)
from fermidistill.protocol import BOUND_ATOL
from fermidistill.states import (
    BipartiteSplit,
    CovarianceMatrix,
    ValidationError,
    random_covariance,
    save_covariance,
)


@pytest.fixture
def mixed_state_file(tmp_path):
    path = tmp_path / "mixed.json"
    save_covariance(path, CovarianceMatrix(np.zeros((8, 8))), BipartiteSplit.halves(8))
    return str(path)


@pytest.fixture
def four_mode_file(tmp_path):
    params = FourModeParams(0.2, -0.1, 0.3, 0.15, 0.45)
    path = tmp_path / "state.json"
    save_covariance(path, four_mode_covariance(params), four_mode_split())
    return str(path), params


class TestValidate:
    def test_valid_file(self, mixed_state_file, capsys):
        assert main(["validate", mixed_state_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        g = np.kron(np.eye(2), [[0.0, 0.9], [-0.9, 0.0]])  # sigma_max(G) = 0.9 > 1/2
        save_covariance(path, CovarianceMatrix(g), BipartiteSplit.halves(4))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "invalid" in out
        # S = 1 (Re S = 1, not 1/2) is refused at load
        entries = [[float(i == j), 0.0] for i in range(4) for j in range(4)]
        path.write_text(json.dumps({"modes": 2, "split_a": [0, 1], "entries": entries}))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "reality" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/state.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("entries", [[1, 0, 0]] * 4), ("entries", [["a", "b"]] * 4),
         ("modes", 0), ("split_a", [0.5])],
    )
    def test_malformed_field_is_error_line(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        payload = {"modes": 1, "split_a": [0], "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}
        payload[field] = value
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    def test_repeated_split_index_is_error_line(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        entries = [[0.5 * (i == j), 0] for i in range(6) for j in range(6)]
        path.write_text(json.dumps({"modes": 3, "split_a": [0, 0, 0, 1], "entries": entries}))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "valid" not in captured.out
        assert captured.err == "error: split index 0 appears more than once\n"


class TestProtocolCommand:
    def test_report_json(self, four_mode_file, capsys):
        path, params = four_mode_file
        assert main(["protocol", path, "--m", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f"] == pytest.approx(four_mode_f(params), abs=1e-10)

    def test_sample_suboptimal_attached(self, four_mode_file, capsys):
        path, _ = four_mode_file
        assert main(["protocol", path, "--m", "2", "--sample-suboptimal", "5", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampled"]["trials"] == 5
        sampled = payload["sampled"]
        assert sampled["exceeds_optimal"] == (sampled["best_pf"] > payload["pf"] + BOUND_ATOL)

    def test_deterministic_output_files(self, four_mode_file, tmp_path):
        path, _ = four_mode_file
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["protocol", path, "--m", "2", "--sample-suboptimal", "7", "--seed", "11"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_insufficient_rank_is_domain_error(self, mixed_state_file, capsys):
        assert main(["protocol", mixed_state_file, "--m", "2"]) == 1
        assert "insufficient rank" in capsys.readouterr().err


class TestInvalidStateFile:
    @pytest.mark.parametrize("command", [["protocol", "--m", "2"], ["scan-m", "--m-max", "2"]])
    def test_refused(self, tmp_path, capsys, command):
        # sigma_max(G) > 1/2, then G not antisymmetric: both load, neither is evaluated
        g = random_covariance(4, 1).g
        broken = g.copy()
        broken[0, 5] += 0.3
        for name, bad in (("spectrum", 3 * g), ("antisymmetry", broken)):
            path = tmp_path / f"{name}.json"
            save_covariance(path, CovarianceMatrix(bad), BipartiteSplit.halves(8))
            assert main([command[0], str(path)] + command[1:]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid state:")
            assert name in captured.err and "VIOLATED" in captured.err


class TestScanM:
    def test_scan(self, four_mode_file, capsys):
        path, _ = four_mode_file
        assert main(["scan-m", path, "--m-max", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["m"] for r in payload["reports"]] == [2]

    def test_m_max_below_two_rejected(self, four_mode_file, capsys):
        assert main(["scan-m", four_mode_file[0], "--m-max", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: protocol needs m >= 2, got m_max = 1\n"
        assert captured.out == ""


class TestOracleCommand:
    def test_four_mode_agreement(self, four_mode_file, capsys):
        path, _ = four_mode_file
        assert main(["oracle", path]) == 0
        assert "agreement" in capsys.readouterr().out

    def test_unequal_split_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_covariance(
            path,
            random_covariance(7, np.random.default_rng(0)),
            BipartiteSplit.from_alice(range(8), 14),
        )
        assert main(["oracle", str(path)]) == 1
        assert "protocol operations need |A| = |B|" in capsys.readouterr().err

    def test_oracle_limit_is_on_the_restriction(self, tmp_path, capsys):
        # an 8-mode file restricts to 2m modes, within the dense limit up to m = 3
        path = tmp_path / "eight.json"
        save_covariance(
            path, random_covariance(8, np.random.default_rng(3)), BipartiteSplit.halves(16)
        )
        for m in ("2", "3"):
            assert main(["oracle", str(path), "--m", m]) == 0
            assert capsys.readouterr().out.endswith("agreement\n")
        assert main(["oracle", str(path), "--m", "4"]) == 1
        assert "dense oracle supports" in capsys.readouterr().err


class TestUnreadablePaths:
    @pytest.fixture
    def binary_file(self, tmp_path):
        path = tmp_path / "binary.dat"
        path.write_bytes(bytes(range(256)))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{dir}"],
            ["validate", "{bin}"],
            ["protocol", "{state}", "--out", "{dir}"],
            ["lattice", "fit", "--data", "{dir}", "--N", "1"],
            ["lattice", "fit", "--data", "{bin}", "--N", "1"],
        ],
        ids=["validate-dir", "validate-binary", "protocol-out-dir", "fit-dir", "fit-binary"],
    )
    def test_error_line_not_traceback(self, argv, tmp_path, binary_file, four_mode_file, capsys):
        names = {"dir": str(tmp_path), "bin": binary_file, "state": four_mode_file[0]}
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestNonFiniteFile:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "argv",
        [["protocol", "--m", "2"], ["scan-m", "--m-max", "2"], ["oracle", "--m", "2"]],
        ids=["protocol", "scan-m", "oracle"],
    )
    def test_error_line_not_traceback(self, tmp_path, capsys, argv, value):
        path = tmp_path / "state.json"
        save_covariance(path, random_covariance(4, 5), BipartiteSplit.halves(8))
        payload = json.loads(path.read_text())
        payload["entries"][4][1] = value  # Im S[0, 4], in the cross block
        path.write_text(json.dumps(payload))
        assert json.dumps(value) in path.read_text()
        assert main([argv[0], str(path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the entry gate names G's entry, which is S[0, 4]
        assert "entry at (0, 4)" in err and "Traceback" not in err


class TestClosedFormCommands:
    def test_two_mode(self, capsys):
        code = main(["closed-form", "two-mode", "--params", "0", "0", "1", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_fidelity"] == pytest.approx(1.0)

    def test_four_mode_roundtrip(self, tmp_path, capsys):
        emitted = str(tmp_path / "emitted.json")
        code = main(
            ["closed-form", "four-mode", "--params", "0.2", "-0.1", "0.3", "0.15", "0.45",
             "--emit", emitted]
        )
        assert code == 0
        closed = json.loads(capsys.readouterr().out)
        assert main(["protocol", emitted, "--m", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f"] == pytest.approx(closed["f"], abs=1e-10)
        assert report["p"] == pytest.approx(closed["p"], abs=1e-10)

    def test_fg_scan_csv(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        code = main(
            ["closed-form", "fg-scan", "--x", "-0.3", "0.3", "3", "--y", "-0.3", "0.3", "3",
             "--sigma", "0.2", "--out", out]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x,y,sigma,f,g,f_ge_g"
        assert len(lines) == 10

    @pytest.mark.parametrize(
        "axis,num", [("--x", "-3"), ("--x", "2.7"), ("--y", "0"), ("--y", "nan")]
    )
    def test_fg_scan_count_rejected(self, axis, num, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        argv = ["closed-form", "fg-scan", axis, "-0.3", "0.3", num, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: grid count must be a positive integer, got "
        )
        assert not out.exists()


class TestLatticeCommands:
    def test_sweep_and_fit(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(["lattice", "sweep", "--L", "64,128,256,512", "--N", "1", "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("L,N,p,f,pf,rate,sigma_1")
        assert len(lines) == 5
        code = main(
            ["lattice", "fit", "--data", out, "--N", "1", "--L-min", "0", "--value", "f"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] > 0 and payload["b"] > 0

    def test_fit_reads_columns_by_name(self, tmp_path, capsys):
        # reordered columns, an error row whose message holds commas, and
        # a row for another distance
        data = tmp_path / "sweep.csv"
        rows = ["f,N,L,p"]
        rows += [f"{1 - 2 / L**0.5!r},1,{L},0.5" for L in (100, 400, 1600, 6400)]
        rows += ["error,1,800,error  # failed, twice", "0.99,2,3200,0.5"]
        data.write_text("\n".join(rows) + "\n")
        assert main(["lattice", "fit", "--data", str(data), "--N", "1", "--L-min", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points_used"] == 4
        assert payload["a"] == pytest.approx(0.5, abs=1e-9)
        assert payload["b"] == pytest.approx(2.0, abs=1e-9)

    def test_fit_malformed_input(self, tmp_path, capsys):
        data = tmp_path / "sweep.csv"
        fit = ["lattice", "fit", "--data", str(data), "--N", "1", "--L-min", "0"]
        data.write_text("L,N,p\n100,1,0.5\n")
        assert main(fit) == 1
        assert "lacks columns ['f']" in capsys.readouterr().err
        data.write_text("L,N,p,f\n100,1,0.5,0.6\n200,x,0.5,0.7\n")
        assert main(fit) == 1
        assert "sweep CSV line 3" in capsys.readouterr().err

    def test_fit_one_length_rejected(self, tmp_path, capsys):
        data = tmp_path / "sweep.csv"
        data.write_text("L,N,f\n5000,1,0.9\n5000,1,0.91\n5000,1,0.92\n")
        assert main(["lattice", "fit", "--data", str(data), "--N", "1", "--L-min", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: the 3 usable points share one L")

    def test_fit_non_finite_values_warned(self, tmp_path, capsys):
        data = tmp_path / "sweep.csv"
        rows = ["L,N,f"] + [f"{L},1,{1 - 2 / L**0.5!r}" for L in (100, 400, 1600)]
        rows += ["800,1,nan", "3200,1,-inf"]
        data.write_text("\n".join(rows) + "\n")
        assert main(["lattice", "fit", "--data", str(data), "--N", "1", "--L-min", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points_used"] == 3
        assert payload["a"] == pytest.approx(0.5, abs=1e-9)
        assert payload["warnings"] == [
            "skipped L=800: value nan is not finite",
            "skipped L=3200: value -inf is not finite",
        ]

    def test_sweep_range_syntax(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["lattice", "sweep", "--L", "16:49:16", "--N", "0,1", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + 3 * 2  # L in (16, 32, 48) x N in (0, 1)

    @pytest.mark.parametrize("setting", ["--jobs=0", "--jobs=-3", "--m=1"])
    def test_sweep_setting_rejected(self, setting, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["lattice", "sweep", "--L", "16", "--N", "1", setting, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_minlen(self, capsys):
        assert main(["lattice", "minlen", "--N", "1", "--x", "0.5", "--L-lo", "4",
                     "--L-hi", "128"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 4 <= payload["L"] <= 128

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "sweep", "--L", "64,4096", "--N", "1"],
            ["lattice", "minlen", "--N", "1", "--x", "0.5", "--L-hi", "4096"],
            ["bench", "--L", "4096", "--repeat", "1"],
        ],
    )
    def test_beyond_memory_is_error_line(self, argv, monkeypatch, capsys):
        # the route's estimate at L = 4096 is about 9.5e5 bytes
        monkeypatch.setattr(lattice, "PHYSICAL_MEMORY", 5 * 10**5)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: block length L = 4096 needs about")
        assert captured.err.count("\n") == 1

    def test_minlen_unreachable(self, capsys):
        assert main(["lattice", "minlen", "--N", "1", "--x", "0.99999", "--L-lo", "4",
                     "--L-hi", "8"]) == 1
        assert "unreachable" in capsys.readouterr().err


class TestBench:
    def test_small_bench(self, capsys):
        assert main(["bench", "--L", "4096", "--repeat", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matvec_ms_median"] > 0
        assert payload["triplets_iterations"] > 0
        assert payload["fft_length"] == 4096  # the smallest 5-smooth h >= L, half of 2h >= 2L - 1

    @pytest.mark.parametrize(
        "L,N,message",
        [("64", "-70", "block distance N must be >= 0"), ("1", "1", "block length L must be >= 2")],
    )
    def test_invalid_geometry_rejected(self, L, N, message, capsys):
        assert main(["bench", "--L", L, "--N", N, "--repeat", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one_rejected(self, repeat, capsys):
        assert main(["bench", "--L", "64", "--repeat", repeat]) == 1
        assert capsys.readouterr().err.startswith("error: repeat must be >= 1")


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, mixed_state_file):
        with pytest.raises(SystemExit) as exc:
            main(["validate", mixed_state_file, "--bogus"])
        assert exc.value.code == 2

    def test_malformed_seed_variable(self, monkeypatch, mixed_state_file, four_mode_file, capsys):
        # only the commands that take --seed read FERMIDISTILL_SEED
        monkeypatch.setenv("FERMIDISTILL_SEED", "abc")
        assert main(["validate", mixed_state_file]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["protocol", four_mode_file[0], "--sample-suboptimal", "4"])
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        # an explicit --seed overrides the malformed default
        assert main(["protocol", four_mode_file[0], "--sample-suboptimal", "4", "--seed", "3"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["protocol", "STATE", "--sample-suboptimal", "4"],
            ["lattice", "sweep", "--L", "16", "--N", "1"],
            ["lattice", "minlen", "--N", "1", "--x", "0.5", "--L-hi", "16"],
            ["bench", "--L", "64", "--repeat", "1"],
        ],
    )
    def test_negative_seed(self, argv, monkeypatch, four_mode_file, capsys):
        # protocol refuses a negative seed; the lattice commands and bench
        # take no seed, so --seed is a usage error and FERMIDISTILL_SEED unread
        argv = [four_mode_file[0] if a == "STATE" else a for a in argv]
        seeded = argv[0] == "protocol"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert (
            "seed must be a non-negative integer, got -1"
            if seeded
            else "unrecognized arguments: --seed -1"
        ) in capsys.readouterr().err
        monkeypatch.setenv("FERMIDISTILL_SEED", "-1")
        if not seeded:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_seed_variable_is_default(self, monkeypatch, four_mode_file, capsys):
        path = four_mode_file[0]
        monkeypatch.setenv("FERMIDISTILL_SEED", "11")
        assert main(["protocol", path, "--sample-suboptimal", "20"]) == 0
        from_env = capsys.readouterr().out
        monkeypatch.delenv("FERMIDISTILL_SEED")
        assert main(["protocol", path, "--sample-suboptimal", "20", "--seed", "11"]) == 0
        assert capsys.readouterr().out == from_env

    def test_bad_range(self):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "sweep", "--L", "1:2:3:4", "--N", "1"])
        assert exc.value.code == 2


class TestInputEdges:
    """Typed failures where the arguments leave the domain."""

    @pytest.mark.parametrize("params", [["5", "0", "0", "0", "0.9"], ["nan", "0", "0", "0", "0.9"]])
    def test_invalid_four_mode_state_is_error_line(self, params, tmp_path, capsys):
        # the state is built and checked before any formula, with --emit or without
        emitted = tmp_path / "emitted.json"
        argv = ["closed-form", "four-mode", "--params", *params]
        for extra in ([], ["--emit", str(emitted)]):
            assert main(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not emitted.exists()
            # a parameter that is not a finite number is refused as it is read
            expected = {"nan": "nu1 has a non-finite entry"}.get(
                params[0], "four-mode parameters give an invalid state"
            )
            assert captured.err.startswith(f"error: {expected}")

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (["0", "1", "1e12"], ["0", "1", "1e12"], "fg-scan evaluates at most 1000000 points"),
            (["0", "1", "1001"], ["0", "1", "1000"], "fg-scan evaluates at most 1000000 points"),
            # finite ends whose difference overflows; argparse reads "-9...9.0" as a number
            ([f"-{'9' * 308}.0", "1e308", "3"], ["0", "1", "2"], "is not finite"),
            (["nan", "1", "3"], ["0", "1", "2"], "is not finite"),
            (["0", "1", "3"], ["inf", "1", "2"], "is not finite"),
        ],
    )
    def test_fg_scan_grid_bounded_and_finite(self, x, y, message, capsys):
        assert main(["closed-form", "fg-scan", "--x", *x, "--y", *y]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err

    def test_fg_scan_sigma_finite(self, capsys):
        # f_vs_g_scan reads sigma through linalg.as_real
        assert main(["closed-form", "fg-scan", "--sigma", "inf"]) == 1
        assert capsys.readouterr().err == "error: sigma has a non-finite entry\n"

    def test_offsets_beyond_int64(self, capsys):
        # the sweep records the refused point in its row; minlen stops on it
        assert main(["lattice", "sweep", "--L", "2", "--N", "10000000000000000000"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        cells = dict(zip(header, row))
        assert cells["status"] == "error"
        assert cells["message"].startswith("L = 2, N = 10000000000000000000: kernel offsets")
        argv = ["lattice", "minlen", "--N", "10000000000000000000", "--x", "0.5", "--L-hi", "16"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: L = 16, N = 10000000000000000000: kernel offsets")

    @pytest.mark.parametrize(
        "L,N,points",
        [
            ("2:100000000000000000000:1", "1", None),  # counted before any list is built
            ("2:1002:1", "0:1001:1", None),
            ("2:1002:1", "0:1000:1", (1000, 1000)),  # exactly the cap
        ],
    )
    def test_sweep_grid_bounded(self, L, N, points, monkeypatch, capsys):
        def sizes(L_values, N_values, **kwargs):
            raise ValidationError(f"sweep of {len(L_values)} x {len(N_values)}")

        monkeypatch.setattr(lattice, "sweep", sizes)
        assert main(["lattice", "sweep", "--L", L, "--N", N]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if points is None:
            assert captured.err == "error: lattice sweep evaluates at most 1000000 points\n"
        else:
            assert captured.err == "error: sweep of %d x %d\n" % points

    def test_fit_length_beyond_float_is_error_line(self, tmp_path, capsys):
        # an L beyond the largest float, about 1.8e308, has no log for the fit
        data = tmp_path / "sweep.csv"
        rows = [f"{L},1,0.9" for L in (100, 400, 1600)] + [f"{10**309},1,0.99"]
        data.write_text("\n".join(["L,N,f", *rows]) + "\n")
        assert main(["lattice", "fit", "--data", str(data), "--N", "1", "--L-min", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep CSV line 5: int too large to convert to float\n"

    def test_sweep_warnings_read_back_by_fit(self, tmp_path, capsys):
        # odd N with m = 3 cuts a degenerate pair: every row carries warnings
        out = tmp_path / "sweep.csv"
        assert main(["lattice", "sweep", "--L", "20,40,80", "--N", "1", "--m", "3",
                     "--out", str(out)]) == 0
        header, *records = csv.reader(io.StringIO(out.read_text()))
        messages = [dict(zip(header, r))["message"] for r in records]
        assert all(m.startswith("degenerate singular value at the cut") for m in messages)
        assert main(["lattice", "fit", "--data", str(out), "--N", "1", "--L-min", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["points_used"] == 3

    def test_non_finite_field_is_error_line(self, tmp_path, capsys):
        # strict JSON: fit's L_min field is never null, so a NaN cutoff is an error
        data = tmp_path / "sweep.csv"
        data.write_text("L,N,f\n" + "".join(f"{L},1,{1 - 1 / L}\n" for L in (100, 200, 400)))
        assert main(["lattice", "fit", "--data", str(data), "--N", "1", "--L-min", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: result is not finite: ")


# Argument values for the property test below: valid values, and negative,
# huge, non-finite and beyond-int64 strings.  Lengths stay small or far beyond
# any memory, so no drawn command runs for long.
ODD = ["-1", "-7", "-0.5", "1e12", "1e308", "nan", "NaN", "inf", "-inf",
       "9223372036854775806", "18446744073709551617", "123456789012345678901234567890"]
INTS = st.integers(-3, 40).map(str) | st.sampled_from(ODD)
FLOATS = st.sampled_from(["0", "0.1", "0.25", "0.5", "0.9", "0.999", "1", "2"]) | st.sampled_from(ODD)
LENGTHS = st.integers(2, 24).map(str) | st.sampled_from(
    ["-1", "0", "1", "nan", "123456789012345678901234567890"]
)
STATES = ["state", "mixed", "garbage", "nonfinite", "badfield", "binary", "dir", "missing"]
SWEEPS = ["sweep", "lacking", "badline", "nonfinite_csv", "one_length", "binary", "dir", "state"]


@st.composite
def _argv(draw, command):
    file = st.sampled_from(STATES)
    if command == "validate":
        return ["validate", draw(file)]
    if command == "protocol":
        # trial counts stay small: a huge count is a long run, not an edge
        trials = draw(st.sampled_from(["0", "3", "-2", "nan"]))
        return ["protocol", draw(file), "--m", draw(INTS), "--sample-suboptimal", trials]
    if command == "scan-m":
        return ["scan-m", draw(file), "--m-max", draw(INTS)]
    if command == "oracle":
        return ["oracle", draw(file), "--m", draw(INTS), "--tol", draw(FLOATS)]
    if command == "two-mode":
        return ["closed-form", "two-mode", "--params", *[draw(FLOATS) for _ in range(4)]]
    if command == "four-mode":
        return ["closed-form", "four-mode", "--params", *[draw(FLOATS) for _ in range(5)]]
    if command == "fg-scan":
        x, y = ([draw(FLOATS), draw(FLOATS), draw(INTS)] for _ in range(2))
        return ["closed-form", "fg-scan", "--x", *x, "--y", *y, "--sigma", draw(FLOATS)]
    if command == "sweep":
        Ls = ",".join(draw(st.lists(LENGTHS, min_size=1, max_size=2)))
        return ["lattice", "sweep", "--L", Ls, "--N", draw(INTS), "--m", draw(INTS)]
    if command == "fit":
        data = draw(st.sampled_from(SWEEPS))
        value = draw(st.sampled_from(["f", "p"]))
        return ["lattice", "fit", "--data", data, "--N", draw(INTS),
                "--L-min", draw(FLOATS), "--value", value]
    if command == "minlen":
        return ["lattice", "minlen", "--N", draw(INTS), "--x", draw(FLOATS),
                "--L-lo", draw(LENGTHS), "--L-hi", draw(LENGTHS), "--m", draw(INTS)]
    # bench: one timed repeat, as a huge count is a long run
    return ["bench", "--L", draw(LENGTHS), "--N", draw(INTS), "--k", draw(INTS), "--repeat", "1"]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The malformed inputs of the tests above, and well-formed ones, by name."""
    root = tmp_path_factory.mktemp("cli_files")
    files = {name: root / name for name in STATES + SWEEPS}
    files.update(dir=root, missing=root / "missing.json")
    save_covariance(
        files["state"],
        four_mode_covariance(FourModeParams(0.2, -0.1, 0.3, 0.15, 0.45)),
        four_mode_split(),
    )
    save_covariance(files["mixed"], CovarianceMatrix(np.zeros((8, 8))), BipartiteSplit.halves(8))
    files["garbage"].write_text("{not json")
    save_covariance(files["nonfinite"], random_covariance(4, 5), BipartiteSplit.halves(8))
    payload = json.loads(files["nonfinite"].read_text())
    payload["entries"][4][1] = float("nan")
    files["nonfinite"].write_text(json.dumps(payload))
    files["badfield"].write_text(
        json.dumps({"modes": 1, "split_a": [0], "entries": [[1, 0, 0]] * 4})
    )
    files["binary"].write_bytes(bytes(range(256)))
    rows = [f"{1 - 2 / L**0.5!r},1,{L},0.5" for L in (100, 400, 1600, 6400)]
    files["sweep"].write_text("\n".join(["f,N,L,p", *rows, 'error,1,800,"failed, twice"']) + "\n")
    files["lacking"].write_text("L,N,p\n100,1,0.5\n")
    files["badline"].write_text("L,N,p,f\n100,1,0.5,0.6\n200,x,0.5,0.7\n")
    files["nonfinite_csv"].write_text("L,N,f\n100,1,0.8\n400,1,0.9\n800,1,nan\n3200,1,-inf\n")
    files["one_length"].write_text("L,N,f\n5000,1,0.9\n5000,1,0.91\n5000,1,0.92\n")
    return {name: str(path) for name, path in files.items()}


def _strict_number(token):
    raise ValueError(f"non-finite JSON number {token}")


def _check_csv(out):
    header, *records = csv.reader(io.StringIO(out))
    for record in records:
        assert len(record) == len(header)
        for name, cell in zip(header, record):
            if name in ("status", "message"):
                continue
            if name == "f_ge_g":
                assert cell in ("0", "1", "invalid")
            elif cell != "":  # the documented empties: error rows, undefined f or rate
                assert math.isfinite(float(cell)), (name, cell)


class TestArgumentSpace:
    """Exit 0 prints strict JSON, CSV of finite cells or a verdict; any other
    exit prints one `error:` line and no traceback."""

    VERDICTS = {"validate": ("valid", "invalid"), "oracle": ("agreement", "DISAGREEMENT")}

    @pytest.mark.parametrize(
        "command",
        ["validate", "protocol", "scan-m", "oracle", "two-mode", "four-mode", "fg-scan", "sweep",
         "fit", "minlen", "bench"],
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_exit_matches_output(self, command, cli_files, data):
        argv = [cli_files.get(arg, arg) for arg in data.draw(_argv(command))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        verdicts = self.VERDICTS.get(command)
        if verdicts and out:  # a summary, then its verdict line
            assert out.splitlines()[-1] == verdicts[code]
        elif code == 0:
            if command in ("fg-scan", "sweep"):
                _check_csv(out)
            else:
                json.loads(out, parse_constant=_strict_number)
        else:
            assert code in (1, 2) and out == ""
            assert err.count("error:") == 1
            assert err.startswith("error: ") if code == 1 else "usage:" in err
