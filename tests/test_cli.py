import concurrent.futures
import errno
import gc
import hashlib
import json
import math
import os
import re
import shlex
import signal
import stat
import warnings
from pathlib import Path

import pytest

from bellsim import cli, models
from bellsim.cli import main
from bellsim.config import (
    ConfigError,
    echoed,
    parse_angles,
    parse_config_file,
    resolve_model,
    sign_pattern_from_string,
    sign_pattern_to_string,
)

import fresh


class TestConfigHelpers:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            'model = {"kind": "quantum", "state": "psi_minus", "angles": [0, 1.5707963267948966, 0.7853981633974483, 2.356194490192345]}\n'
            "trials = 50000\n"
            "seed = 7\n"
            'pattern = "+-++"\n'
            "\n"
        )
        values = parse_config_file(str(path))
        assert values["trials"] == 50000
        assert values["model"]["kind"] == "quantum"

    def test_parse_config_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials 50000\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(path))
        path.write_text("trials = not-json\n")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config_file(str(path))

    def test_parse_config_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n# a comment\ntrials = 10\nseed = 2\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(str(path))
        assert str(exc.value) == f"{path}:4: 'seed' is already set on line 1"

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/run.cfg")

    def test_config_file_is_closed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = 10\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parse_config_file(str(path)) == {"trials": 10}
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_sign_pattern_strings(self):
        assert sign_pattern_from_string("+-++") == (1, -1, 1, 1)
        assert sign_pattern_to_string((1, 1, 1, -1)) == "+++-"
        with pytest.raises(ConfigError):
            sign_pattern_from_string("+--+")
        with pytest.raises(ConfigError):
            sign_pattern_from_string("+x++")

    def test_echoed_cuts_a_long_repr(self):
        assert echoed("abc") == "'abc'"
        assert echoed("x" * 100) == "'" + "x" * 63 + "… (102 characters)"
        assert echoed(10**70) == str(10**70)[:64] + "… (71 characters)"
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        assert echoed(deep) == "a list nested too deeply"

    def test_parse_angles(self):
        assert parse_angles("0,1.5,0.7,2.3") == (0.0, 1.5, 0.7, 2.3)
        assert parse_angles([0, 1, 2, 3]) == (0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ConfigError):
            parse_angles("0,1")
        with pytest.raises(ConfigError):
            parse_angles("0,1,2,x")

    def test_resolve_model_names(self):
        assert resolve_model("quantum-optimal").kind == "quantum"
        assert resolve_model("pr-box").kind == "superdeterministic"
        assert resolve_model("quantum", state="psi_plus").state == "psi_plus"
        custom = resolve_model('{"kind": "lhv_deterministic", "strategy": 3}')
        assert custom.kind == "lhv_deterministic"
        with pytest.raises(ConfigError, match="unknown model"):
            resolve_model("not-a-model")
        with pytest.raises(ConfigError):
            resolve_model("lhv-uniform", angles=(0.0, 1.0, 2.0, 3.0))


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChshCommand:
    def test_json_schema(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code, stdout, stderr = _run(
            ["chsh", "--trials", "20000", "--seed", "42", "--out", str(out)], capsys
        )
        assert code == 0
        assert "runtime_ms=" in stderr
        document = json.loads(out.read_text())
        assert set(document) == {"schema_version", "config", "results"}
        assert document["schema_version"] == 1
        assert document["config"]["seed"] == 42
        results = document["results"]
        assert len(results["pairs"]) == 4
        assert abs(results["s_value"]) > 2.0
        assert results["bound_class"] == "quantum"

    def test_exact_mode(self, capsys):
        code, stdout, _ = _run(["chsh", "--exact"], capsys)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["exact"] is True
        assert abs(results["s_value"]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_csv_output(self, capsys):
        code, stdout, _ = _run(
            ["chsh", "--trials", "10000", "--seed", "1", "--format", "csv"], capsys
        )
        assert code == 0
        lines = stdout.strip().split("\n")
        assert lines[0].startswith("section,left,right")
        assert len(lines) == 6  # header + 4 pairs + s row
        assert lines[-1].startswith("s_statistic")

    def test_invalid_trials_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code, _, stderr = _run(["chsh", "--trials", "0", "--out", str(out)], capsys)
        assert code == 2
        assert "configuration error" in stderr
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, stderr = _run(
            ["chsh", "--trials", "10000", "--out", "/nonexistent-dir/x.json"], capsys
        )
        assert code == 3
        assert "I/O error" in stderr

    def test_byte_identical_across_runs_and_threads(self, tmp_path, capsys):
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        base = ["chsh", "--model", "quantum-optimal", "--trials", "150000", "--seed", "9"]
        assert main(base + ["--out", str(paths[0]), "--threads", "1"]) == 0
        assert main(base + ["--out", str(paths[1]), "--threads", "1"]) == 0
        assert main(base + ["--out", str(paths[2]), "--threads", "8"]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('trials = 5000\nseed = 11\nmodel = "lhv-uniform"\n')
        code, stdout, _ = _run(["chsh", "--config", str(cfg), "--trials", "2500"], capsys)
        assert code == 0
        document = json.loads(stdout)
        assert document["config"]["trials_per_pair"] == 2500  # flag wins
        assert document["config"]["seed"] == 11
        assert document["config"]["model"]["kind"] == "lhv_stochastic"

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLSIM_SEED", "1234")
        code, stdout, _ = _run(["chsh", "--trials", "10000"], capsys)
        assert code == 0
        assert json.loads(stdout)["config"]["seed"] == 1234


class TestLhvScanCommand:
    def test_sixteen_rows_plus_summary(self, capsys):
        code, stdout, _ = _run(["lhv-scan", "--format", "csv"], capsys)
        assert code == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 18  # header + 16 strategies + max row
        assert lines[-1].split(",")[0] == "max"
        assert float(lines[-1].split(",")[-1]) == 2.0

    def test_json_summary_and_row_values(self, capsys):
        code, stdout, _ = _run(["lhv-scan"], capsys)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["max_abs_s"] == 2.0
        assert len(results["strategies"]) == 16
        assert all(row["best_abs_s"] in (0.0, 2.0) for row in results["strategies"])

    @pytest.mark.parametrize("pattern", ["+-++", "xyz"])
    def test_pattern_flag_is_rejected(self, pattern, capsys):
        # best_abs_s is a maximum over every sign pattern, so no pattern applies.
        with pytest.raises(SystemExit) as exc:
            main(["lhv-scan", "--pattern", pattern])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --pattern" in captured.err


class TestOptimizeCommand:
    def test_singlet(self, capsys):
        code, stdout, _ = _run(["optimize", "--state", "psi_minus"], capsys)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["abs_s"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
        assert abs(results["abs_s"] - 2.0 * math.sqrt(2.0)) <= 1e-12

    def test_psi_plus(self, capsys):
        code, stdout, _ = _run(["optimize", "--state", "psi_plus"], capsys)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["abs_s"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)

    def test_separable_state(self, capsys):
        code, stdout, _ = _run(["optimize", "--state", "up_up"], capsys)
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["abs_s"] <= 2.0 + 1e-9

    def test_bad_grid(self, capsys):
        code, _, stderr = _run(["optimize", "--grid", "2"], capsys)
        assert code == 2

    def test_grid_has_no_effect_and_no_search_knobs_are_echoed(self, capsys):
        _, plain, _ = _run(["optimize", "--state", "psi_plus"], capsys)
        _, gridded, _ = _run(["optimize", "--state", "psi_plus", "--grid", "32"], capsys)
        assert plain == gridded
        document = json.loads(plain)
        assert set(document["config"]) == {"command", "state", "sign_pattern"}
        assert set(document["results"]) == {"angles", "s_value", "abs_s"}


class TestCounterfactualCommand:
    @pytest.mark.parametrize(
        "model,expected",
        [
            ("lhv-uniform", "definite"),
            ("quantum-optimal", "semi-definite"),
            ("pr-box", "indefinite"),
        ],
    )
    def test_classifications(self, model, expected, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        code, stdout, _ = _run(
            [
                "counterfactual",
                "--model",
                model,
                "--trials",
                "24",
                "--stats-trials",
                "20000",
                "--seed",
                "5",
                "--ledger",
                str(ledger),
            ],
            capsys,
        )
        assert code == 0
        document = json.loads(stdout)
        assert document["results"]["classification"] == expected
        lines = ledger.read_text().strip().split("\n")
        assert len(lines) == 24
        record = json.loads(lines[0])
        assert set(record) == {"index", "settings", "outcomes", "hidden", "stream_id"}

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_trials_above_ledger_cap_exit_2_before_recording(
        self, source, tmp_path, capsys, monkeypatch
    ):
        from bellsim.config import MAX_LEDGER_TRIALS

        monkeypatch.setattr("bellsim.counterfactual.record_run", None)  # any call would fail
        trials = str(MAX_LEDGER_TRIALS + 1)
        if source == "flag":
            argv = ["counterfactual", "--trials", trials]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"trials = {trials}\n")
            argv = ["counterfactual", "--config", str(cfg)]
        code, stdout, stderr = _run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert f"at most {MAX_LEDGER_TRIALS}, got {trials}" in stderr

    @pytest.mark.parametrize("ledger", ["same.json", "./sub/../same.json"])
    def test_out_and_ledger_on_one_path_exit_2_before_recording(
        self, ledger, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("bellsim.counterfactual.record_run", None)  # any call would fail
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = ["counterfactual", "--trials", "8", "--out", "same.json", "--ledger", ledger]
        code, stdout, stderr = _run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(
            "bellsim: configuration error: --out and --ledger name the same file same.json"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("out,ledger", [("a.tmp", "a"), ("b", "b.tmp")])
    def test_a_path_that_is_the_other_plus_tmp_is_written_whole(
        self, out, ledger, source, tmp_path, capsys, monkeypatch
    ):
        # Each file is staged under a name holding the process id, so neither path is
        # the other's staging file.
        monkeypatch.chdir(tmp_path)
        argv = ["counterfactual", "--model", "lhv-uniform", "--trials", "8", "--stats-trials", "9"]
        assert main(argv + ["--out", "alone.json", "--ledger", "alone.jsonl"]) == 0
        expected = {out, ledger, "alone.json", "alone.jsonl"}
        if source == "flag":
            argv += ["--out", out, "--ledger", ledger]
        else:
            (tmp_path / "run.cfg").write_text(f'out = "{out}"\nledger = "{ledger}"\n')
            argv += ["--config", "run.cfg"]
            expected.add("run.cfg")
        code, stdout, _ = _run(argv, capsys)
        assert (code, stdout) == (0, "")
        assert (tmp_path / out).read_bytes() == (tmp_path / "alone.json").read_bytes()
        assert (tmp_path / ledger).read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
        assert {p.name for p in tmp_path.iterdir()} == expected

    @pytest.mark.parametrize("taken", ["out.json", "l.jsonl"])
    def test_a_file_at_a_staging_name_is_kept_and_fails_the_run(
        self, taken, tmp_path, capsys, monkeypatch
    ):
        # A staging file is created only if absent, and only files the run created are removed.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "getpid", lambda: 4242)
        (tmp_path / f"{taken}.4242.tmp").write_bytes(b"precious\n")
        argv = ["counterfactual", "--model", "lhv-uniform", "--trials", "8", "--stats-trials", "9",
                "--out", "out.json", "--ledger", "l.jsonl"]
        code, stdout, stderr = _run(argv, capsys)
        assert (code, stdout) == (3, "")
        assert stderr.startswith(f"bellsim: I/O error: [Errno {errno.EEXIST}] cannot write {taken}")
        assert [p.name for p in tmp_path.iterdir()] == [f"{taken}.4242.tmp"]
        assert (tmp_path / f"{taken}.4242.tmp").read_bytes() == b"precious\n"

    def test_concurrent_runs_on_the_same_paths_each_leave_whole_files(self, tmp_path):
        # Two runs of 2**19 trials write the same --out and --ledger at once; each path
        # ends up holding one run's whole artifact, that of the run that renamed last.
        def counterfactual(seed, out, ledger):
            argv = ["-m", "bellsim.cli", "counterfactual", "--model", "lhv-uniform",
                    "--trials", str(2**19), "--stats-trials", "1000", "--seed", str(seed),
                    "--out", out, "--ledger", ledger]
            return fresh.python(argv, tmp_path)

        def at_once(*runs):
            with concurrent.futures.ThreadPoolExecutor(len(runs)) as pool:
                return list(pool.map(lambda run: counterfactual(*run), runs))

        def digest(name):
            return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

        shared = at_once((1, "o.json", "l.jsonl"), (2, "o.json", "l.jsonl"))
        assert [(run.returncode, run.stdout) for run in shared] == [(0, "")] * 2, shared
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.jsonl", "o.json"]
        final = [digest("o.json"), digest("l.jsonl")]
        alone = at_once((1, "o1.json", "l1.jsonl"), (2, "o2.json", "l2.jsonl"))
        assert [run.returncode for run in alone] == [0, 0]
        assert final[0] in {digest("o1.json"), digest("o2.json")}
        assert final[1] in {digest("l1.jsonl"), digest("l2.jsonl")}
        for path in tmp_path.iterdir():  # 47 MB per ledger
            path.unlink()

    @pytest.mark.parametrize("pattern", ["+-++", "xyz"])
    def test_pattern_flag_is_rejected(self, pattern, capsys):
        # The joint-assignment check tests every facet, so no sign pattern applies.
        with pytest.raises(SystemExit) as exc:
            main(["counterfactual", "--trials", "8", f"--pattern={pattern}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --pattern" in captured.err


class TestBombCommand:
    def test_exact_canonical_values(self, capsys):
        code, stdout, _ = _run(["bomb", "--exact"], capsys)
        assert code == 0
        probs = json.loads(stdout)["results"]["interferometry"]["probabilities"]
        assert probs["exploded"] == pytest.approx(0.5, abs=1e-12)
        assert probs["dark_port"] == pytest.approx(0.25, abs=1e-12)
        assert probs["bright_port"] == pytest.approx(0.25, abs=1e-12)

    def test_no_bomb_dark_port_zero(self, capsys):
        code, stdout, _ = _run(["bomb", "--no-bomb", "--exact"], capsys)
        assert code == 0
        probs = json.loads(stdout)["results"]["interferometry"]["probabilities"]
        assert probs["dark_port"] == pytest.approx(0.0, abs=1e-12)

    def test_seeded_trials_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["bomb", "--trials", "50000", "--seed", "3"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_format(self, capsys):
        code, stdout, _ = _run(["bomb", "--trials", "20000", "--format", "csv"], capsys)
        assert code == 0
        lines = stdout.strip().split("\n")
        assert lines[0] == "outcome,probability,frequency"
        assert len(lines) == 4

    def test_bad_reflectivity(self, capsys):
        code, _, _ = _run(["bomb", "--reflectivity", "1.2"], capsys)
        assert code == 2


class TestLandscapeCommand:
    def test_csv_grid(self, capsys):
        code, stdout, _ = _run(["landscape", "--resolution", "8"], capsys)
        assert code == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 9
        assert lines[0].startswith("b\\b'")
        values = [float(v) for v in lines[1].split(",")[1:]]
        assert all(abs(v) <= 2.0 * math.sqrt(2.0) + 1e-9 for v in values)

    def test_json_grid(self, capsys):
        code, stdout, _ = _run(
            ["landscape", "--resolution", "4", "--format", "json", "--fixed", "b=0.5,b'=1.0"],
            capsys,
        )
        assert code == 0
        results = json.loads(stdout)["results"]
        assert results["row_label"] == "a"
        assert results["col_label"] == "a'"
        assert len(results["values"]) == 4

    def test_json_grid_writes_its_one_angle_tuple_under_both_keys(self, capsys):
        code, stdout, _ = _run(["landscape", "--resolution", "4", "--format", "json"], capsys)
        assert code == 0
        results = json.loads(stdout)["results"]
        angles = [math.pi * i / 4 for i in range(4)]
        assert results["row_angles"] == results["col_angles"] == angles
        assert [len(row) for row in results["values"]] == [4] * 4

    def test_bad_fixed(self, capsys):
        code, _, _ = _run(["landscape", "--fixed", "a=0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("fixed", ["a=0,a=1", "b=0, a'=1,b=2"])
    def test_repeated_fixed_label(self, capsys, fixed):
        code, stdout, stderr = _run(["landscape", "--fixed", fixed], capsys)
        assert code == 2
        assert stdout == ""
        label = "'a'" if fixed.startswith("a") else "'b'"
        assert f"fixed angle {label} is given more than once" in stderr

    def test_resolution_above_cap(self, capsys, monkeypatch):
        monkeypatch.setattr("bellsim.optimize._linear_in", None)  # no grid may be built
        code, stdout, stderr = _run(["landscape", "--resolution", str(10**12)], capsys)
        assert code == 2
        assert stdout == ""
        assert "resolution must be in 2..2048" in stderr


# Config-file values of the wrong JSON type, per subcommand; the last two
# have the right type and a value outside the flag's choices.
WRONG_TYPES = [
    ("chsh", 'threads = "abc"'),
    ("chsh", "trials = [3]"),
    ("chsh", "trials = 2.5"),
    ("chsh", "trials = true"),
    ("chsh", "threads = 2.5"),
    ("chsh", "pattern = 5"),
    ("chsh", "angles = 7"),
    ("chsh", 'exact = "yes"'),
    ("chsh", "seed = true"),
    ("chsh", "seed = 3.5"),
    ("chsh", "out = 5"),
    ("counterfactual", 'stats_trials = "x"'),
    ("counterfactual", "trials = true"),
    ("counterfactual", "ledger = [1]"),
    ("bomb", 'reflectivity = "x"'),
    ("bomb", "reflectivity = true"),
    ("bomb", "phase = [0]"),
    ("bomb", "bomb = 1"),
    ("bomb", "trials = 1000.5"),
    ("optimize", "grid = 8.5"),
    ("optimize", "state = 5"),
    ("optimize", "pattern = 5"),
    ("landscape", 'resolution = "8"'),
    ("landscape", "resolution = false"),
    ("landscape", 'fixed = {"a": [1], "a\'": 0}'),
    # A bool or a string is no number in a list or a mapping either.
    ("chsh", "angles = [true, 0, 0, 0]"),
    ("counterfactual", 'angles = ["0", 1, 2, 3]'),
    ("landscape", 'fixed = {"a": true, "a\'": "1.5"}'),
    ("landscape", 'fixed = {"a": true, "a\'": 1.5}'),
    ("landscape", 'fixed = {"a": 0, "a\'": "1.5"}'),
    ("landscape", "format = 1"),
    ("bomb", 'format = "xml"'),
    ("optimize", 'format = "xml"'),
    # An integer beyond float range is no angle, and Python reads no
    # integer of more than 4,300 digits.
    pytest.param("chsh", "angles = [1%s, 0, 0, 0]" % ("0" * 400), id="chsh-angle-1e400"),
    pytest.param("landscape", 'fixed = {"a": 1%s, "a\'": 0}' % ("0" * 400), id="landscape-fixed-1e400"),
    pytest.param("chsh", "seed = 1%s" % ("0" * 5000), id="chsh-seed-1e5000"),
]


@pytest.mark.parametrize("command,line", WRONG_TYPES)
def test_config_value_of_wrong_type_exits_2(command, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, stdout, stderr = _run([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("bellsim: configuration error: ")


_TABLE_ROWS = '"a,b\'": [1, 0, 0, 0], "a\',b": [1, 0, 0, 0], "a\',b\'": [1, 0, 0, 0]'

# JSON models whose values have the wrong type, and the diagnostic each gives.
MALFORMED_MODELS = [
    ('{"kind": "lhv_stochastic", "weights": 5}', "mixture weights must be numbers, got 5"),
    ('{"kind": "quantum", "state": "psi_minus", "angles": 5}', "angles must be numbers, got 5"),
    (
        '{"kind": "superdeterministic", "table": {"a,b": null, %s}}' % _TABLE_ROWS,
        "table row for ('a', 'b') must be numbers, got None",
    ),
    (
        '{"kind": "superdeterministic", "table": {"a,b": 5, %s}}' % _TABLE_ROWS,
        "table row for ('a', 'b') must be numbers, got 5",
    ),
    ('{"kind": "lhv_deterministic", "strategy": [3]}', "strategy must be an integer, got [3]"),
    # Numbers follow the same rule: no bool and no string, and a string is
    # not a sequence of numbers.
    (
        '{"kind": "quantum", "state": "psi_minus", "angles": "0123"}',
        "angles must be numbers, got '0123'",
    ),
    (
        '{"kind": "lhv_stochastic", "weights": [true, "0"%s]}' % (", 0" * 14),
        "mixture weights must be numbers, got [True, '0'%s]" % (", 0" * 14),
    ),
    (
        '{"kind": "lhv_stochastic", "weights": ["1"%s]}' % (", 0" * 15),
        "mixture weights must be numbers, got ['1'%s]" % (", 0" * 15),
    ),
    (
        '{"kind": "superdeterministic", "table": {"a,b": "1000", %s}}' % _TABLE_ROWS,
        "table row for ('a', 'b') must be numbers, got '1000'",
    ),
    # A strategy index follows the rule of integer settings: no bool, no
    # fraction and no string.
    ('{"kind": "lhv_deterministic", "strategy": true}', "strategy must be an integer, got True"),
    ('{"kind": "lhv_deterministic", "strategy": 3.7}', "strategy must be an integer, got 3.7"),
    ('{"kind": "lhv_deterministic", "strategy": "3"}', "strategy must be an integer, got '3'"),
    # A table row obeys the rule of a Born distribution, NaN included (json.loads reads
    # NaN), and a table names each setting pair once and no other.
    (
        '{"kind": "superdeterministic", "table": {"a,b": [NaN, 0.5, 0.5, 0], %s}}' % _TABLE_ROWS,
        "table row for ('a', 'b'): probabilities must be finite numbers >= -1e-15, "
        "got (nan, 0.5, 0.5, 0.0)",
    ),
    # A row of the wrong length is named by its length, so the line stays short.
    pytest.param(
        '{"kind": "superdeterministic", "table": {"a,b": [%s], %s}}'
        % (", ".join(["0.25"] * 3000), _TABLE_ROWS),
        "table row for ('a', 'b'): expected 4 probabilities, got 3000",
        id="table-row-of-3000",
    ),
    (
        '{"kind": "superdeterministic", "table": {"a,b": [0.5, 0.4, 0, 0], %s}}' % _TABLE_ROWS,
        "table row for ('a', 'b'): probabilities sum to 0.9, expected 1",
    ),
    (
        '{"kind": "superdeterministic", "table": {"a,b": [1, 0, 0, 0], "b,a": [1, 0, 0, 0], %s}}'
        % _TABLE_ROWS,
        "outcome table has unknown setting pairs [('b', 'a')]",
    ),
]


@pytest.mark.parametrize("model,message", MALFORMED_MODELS)
def test_malformed_model_exits_2_with_one_line(model, message, capsys):
    code, stdout, stderr = _run(["chsh", "--exact", "--model", model], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == f"bellsim: configuration error: invalid model: {message}\n"


def test_model_that_is_no_mapping_in_a_config_file_exits_2_with_one_line(tmp_path, capsys):
    # A config value reaches ModelDescriptor.from_dict as it is, and from_dict rejects it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = 3\n")
    code, stdout, stderr = _run(["chsh", "--exact", "--config", str(cfg)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "bellsim: configuration error: invalid model: "
        "model payload must be a mapping with a 'kind', got 3\n"
    )


# Empty or directory paths for --out and --ledger, as flags or config keys.
EMPTY_OR_DIRECTORY_PATHS = [
    (["chsh", "--exact", "--out", ""], None, "--out ''"),
    (["chsh", "--exact", "--out", "outdir"], None, "--out 'outdir'"),
    (["chsh", "--exact"], 'out = ""', "--out ''"),
    (["counterfactual", "--out", "r.json", "--ledger", "outdir"], None, "--ledger 'outdir'"),
    (["counterfactual", "--out", "r.json", "--ledger", ""], None, "--ledger ''"),
    (["counterfactual", "--out", "r.json"], 'ledger = "outdir"', "--ledger 'outdir'"),
    (["counterfactual", "--ledger", "l.jsonl"], 'out = "outdir"', "--out 'outdir'"),
]


@pytest.mark.parametrize("argv,line,named", EMPTY_OR_DIRECTORY_PATHS)
def test_empty_or_directory_output_path_exits_2_writing_nothing(
    argv, line, named, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    (tmp_path / ".tmp").write_text("kept\n")
    if argv[0] == "counterfactual":
        argv = argv + ["--model", "lhv-uniform", "--trials", "8", "--stats-trials", "100"]
    if line is not None:
        (tmp_path / "run.cfg").write_text(line + "\n")
        argv = argv + ["--config", "run.cfg"]
    code, stdout, stderr = _run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        f"bellsim: configuration error: {named} is empty or a directory; it must name a file\n"
    )
    expected = [".tmp", "outdir"] + ([] if line is None else ["run.cfg"])
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert (tmp_path / ".tmp").read_text() == "kept\n"
    assert not any((tmp_path / "outdir").iterdir())


# A FIFO for --out or --ledger, as a flag or a config key: renaming a staged file
# onto it would put a regular file in its place.
NOT_REGULAR_PATHS = [
    (["chsh", "--exact", "--out", "pipe"], None, "--out 'pipe'"),
    (["chsh", "--exact"], 'out = "pipe"', "--out 'pipe'"),
    (["counterfactual", "--out", "r.json", "--ledger", "pipe"], None, "--ledger 'pipe'"),
    (["counterfactual", "--out", "r.json"], 'ledger = "pipe"', "--ledger 'pipe'"),
]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("argv,line,named", NOT_REGULAR_PATHS)
def test_output_path_that_is_no_regular_file_exits_2_writing_nothing(
    argv, line, named, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    os.mkfifo(tmp_path / "pipe")
    if argv[0] == "counterfactual":
        argv = argv + ["--model", "lhv-uniform", "--trials", "8", "--stats-trials", "100"]
    if line is not None:
        (tmp_path / "run.cfg").write_text(line + "\n")
        argv = argv + ["--config", "run.cfg"]
    code, stdout, stderr = _run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == f"bellsim: configuration error: {named} exists and is not a regular file\n"
    expected = ["pipe"] + ([] if line is None else ["run.cfg"])
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert stat.S_ISFIFO(os.stat(tmp_path / "pipe").st_mode)


# A run writing an artifact through --out or --ledger; counterfactual runs are tiny.
LINKED_RUNS = {
    "--out": ["chsh", "--exact"],
    "--ledger": ["counterfactual", "--model", "lhv-uniform", "--trials", "8", "--stats-trials",
                 "100", "--out", "r.json"],
}


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symbolic links on this platform")
class TestSymbolicLinkPaths:
    """A path that is a symbolic link is written through to its target; the link stays."""

    @pytest.mark.parametrize("flag", sorted(LINKED_RUNS))
    def test_a_link_to_a_file_keeps_the_link_and_writes_its_target(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "target").write_text("old\n")
        os.symlink(os.path.join("sub", "target"), "link")
        assert _run([*LINKED_RUNS[flag], flag, "link"], capsys)[0] == 0
        assert _run([*LINKED_RUNS[flag], flag, "plain"], capsys)[0] == 0
        assert os.readlink("link") == os.path.join("sub", "target")
        assert (tmp_path / "sub" / "target").read_bytes() == (tmp_path / "plain").read_bytes()
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["target"]

    def test_a_dangling_link_creates_its_target(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.symlink("made.json", "link.json")
        assert _run(["chsh", "--exact", "--out", "link.json"], capsys)[0] == 0
        assert _run(["chsh", "--exact", "--out", "plain.json"], capsys)[0] == 0
        assert os.readlink("link.json") == "made.json"
        assert (tmp_path / "made.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        listing = sorted(p.name for p in tmp_path.iterdir())
        assert listing == ["link.json", "made.json", "plain.json"]

    @pytest.mark.parametrize("flag", sorted(LINKED_RUNS))
    def test_a_link_that_loops_exits_2_and_stays_a_link(self, flag, tmp_path, capsys, monkeypatch):
        # A looping link has no target: realpath leaves it a link, and renaming onto
        # it would put a regular file in its place.
        monkeypatch.chdir(tmp_path)
        os.symlink("loop", "loop")
        code, stdout, stderr = _run([*LINKED_RUNS[flag], flag, "loop"], capsys)
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"bellsim: configuration error: {flag} 'loop' exists and is not a regular file\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop"]
        assert os.readlink("loop") == "loop"

    def test_a_ledger_linked_to_the_out_file_exits_2(self, tmp_path, capsys, monkeypatch):
        # Pins behaviour that already held: the same-file check compares real paths.
        monkeypatch.chdir(tmp_path)
        os.symlink("same.json", "link.jsonl")
        argv = LINKED_RUNS["--ledger"][:-1] + ["same.json", "--ledger", "link.jsonl"]
        code, stdout, stderr = _run(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr == (
            "bellsim: configuration error: --out and --ledger name the same file same.json\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl"]


def test_integral_float_strategy_is_that_strategy(capsys):
    model = '{"kind": "lhv_deterministic", "strategy": %s}'
    _, from_float, _ = _run(["chsh", "--exact", "--model", model % "3.0"], capsys)
    _, from_int, _ = _run(["chsh", "--exact", "--model", model % "3"], capsys)
    assert from_float == from_int
    assert json.loads(from_int)["config"]["model"] == {"kind": "lhv_deterministic", "strategy": 3}


def test_output_settings_are_read_before_the_subcommand_inputs(tmp_path, capsys):
    # main resolves the artifact's path and format first, so of two bad
    # inputs a bad format is the one reported.
    cfg = tmp_path / "run.cfg"
    cfg.write_text('format = "xml"\n')
    code, stdout, stderr = _run(["chsh", "--config", str(cfg), "--trials", "0"], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == "bellsim: configuration error: format must be json or csv, got 'xml'\n"


def test_integral_config_values_match_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3000.0\nphase = 0\nseed = 3.0\n")
    from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
    assert main(["bomb", "--config", str(cfg), "--out", str(from_file)]) == 0
    flags = ["--trials", "3000", "--phase", "0.0", "--seed", "3", "--out", str(from_flags)]
    assert main(["bomb", *flags]) == 0
    capsys.readouterr()
    assert from_file.read_bytes() == from_flags.read_bytes()


# The config keys each subcommand takes: the destinations of its flags.
ACCEPTED_KEYS = {
    "chsh": "angles, exact, format, model, out, pattern, seed, state, threads, trials",
    "lhv-scan": "format, out",
    "optimize": "format, grid, out, pattern, state",
    "counterfactual": (
        "angles, format, ledger, model, out, seed, state, stats_trials, threads, trials"
    ),
    "bomb": "bomb, exact, format, out, phase, reflectivity, seed, trials",
    "landscape": "fixed, format, out, pattern, resolution, state",
}

# Keys a subcommand does not take: typos, keys of other subcommands, removed
# knobs, and `config` itself.
UNKNOWN_KEYS = [
    ("chsh", "trails = 10"),
    ("chsh", "stats_trials = 10"),
    ("chsh", "resolution = 8"),
    ("lhv-scan", 'model = "lhv-uniform"'),
    ("lhv-scan", "trials = 10"),
    ("lhv-scan", 'pattern = "+-++"'),
    ("optimize", "tolerance = 1e-9"),
    ("optimize", "trials = 10"),
    ("counterfactual", "exact = true"),
    ("counterfactual", 'config = "other.cfg"'),
    ("counterfactual", 'pattern = "+-++"'),
    ("bomb", 'state = "psi_minus"'),
    ("bomb", "threads = 2"),
    ("landscape", "trials = 10"),
    ("landscape", "grid = 16"),
]


@pytest.mark.parametrize("command,line", UNKNOWN_KEYS)
def test_unknown_config_key_exits_2(command, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, stdout, stderr = _run([command, "--config", str(cfg)], capsys)
    key = line.partition("=")[0].strip()
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(
        f"bellsim: configuration error: unknown config key {key!r} for {command}; "
        f"accepted keys: {ACCEPTED_KEYS[command]}\n"
    )


def test_first_unknown_key_is_named_and_the_others_counted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('trails = 10\nmodel = "lhv-uniform"\nsede = 4\n')
    code, _, stderr = _run(["chsh", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config key 'trails' and 1 more for chsh; accepted keys: " in stderr


SEED_SOURCES = {"flag": "--seed", "config": "seed", "env": "BELLSIM_SEED"}


def test_seed_precedence_is_flag_file_env_default(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\n")

    def seed(*argv):
        code, stdout, _ = _run(["chsh", "--exact", *argv], capsys)
        assert code == 0
        return json.loads(stdout)["config"]["seed"]

    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    assert seed() == 0
    monkeypatch.setenv("BELLSIM_SEED", " 77 ")
    assert seed() == 77
    assert seed("--config", str(cfg)) == 9
    assert seed("--config", str(cfg), "--seed", "5") == 5
    monkeypatch.setenv("BELLSIM_SEED", "x")
    assert seed("--seed", "5") == 5  # an environment seed that is never read is never checked
    code, _, stderr = _run(["chsh", "--exact"], capsys)
    assert code == 2
    assert stderr == "bellsim: configuration error: BELLSIM_SEED must be an integer, got 'x'\n"


@pytest.mark.parametrize("source", sorted(SEED_SOURCES))
@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64])
def test_seed_outside_stream_range_exits_2(source, seed, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    argv = ["chsh", "--exact"]
    if source == "flag":
        argv.append(f"--seed={seed}")
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("BELLSIM_SEED", str(seed))
    code, stdout, stderr = _run(argv, capsys)
    if 0 <= seed < 2**64:
        assert code == 0
        assert json.loads(stdout)["config"]["seed"] == seed
    else:
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(
            f"bellsim: configuration error: {SEED_SOURCES[source]} must be in [0, 2**64), "
            f"got {seed}\n"
        )


def test_deep_config_value_is_echoed_cut_in_a_fresh_process(tmp_path):
    # In a fresh process a list nested 980 deep parses, and its 1,960-character repr is cut.
    (tmp_path / "run.cfg").write_text("seed = " + "[" * 980 + "]" * 980 + "\n")
    argv = ["-m", "bellsim.cli", "chsh", "--exact", "--config", "run.cfg"]
    completed = fresh.python(argv, tmp_path)
    assert (completed.returncode, completed.stdout) == (2, "")
    assert completed.stderr == (
        "bellsim: configuration error: seed must be an integer, got %s… (1960 characters)\n"
        % ("[" * 64)
    )


# Runs the CLI with files capped at 500 bytes; SIGXFSZ is ignored so an
# oversized write fails with EFBIG instead of killing the process.
_CAPPED_WRITE = """
import resource, signal, sys
import bellsim.cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (500, 500))
sys.exit(bellsim.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize(
    "argv,failing",
    [
        (["chsh", "--exact", "--out", "r.json"], "r.json"),
        (
            [
                "counterfactual", "--model", "lhv-uniform", "--trials", "40",
                "--stats-trials", "100", "--format", "csv", "--out", "r.csv",
                "--ledger", "r.jsonl",
            ],
            "r.jsonl",
        ),
    ],
)
def test_failed_write_leaves_no_partial_file(argv, failing, tmp_path):
    completed = fresh.python(["-c", _CAPPED_WRITE, *argv], tmp_path)
    assert completed.returncode == 3
    assert completed.stdout == ""
    assert completed.stderr.startswith(f"bellsim: I/O error: [Errno {errno.EFBIG}] cannot write {failing}: ")
    assert list(tmp_path.iterdir()) == []


needs_proc_status = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)


@needs_proc_status
@pytest.mark.parametrize(
    "model", [[], ["--model", "lhv-uniform", "--seed", "1"]], ids=["defaults", "lhv-uniform"]
)
def test_ledger_at_the_cap_peaks_under_100_mb(model, tmp_path):
    # A ledger costs 4 bytes per trial plus one chunk's buffers, so at the
    # 2**19 cap it peaks within 8 MB of a 1,500-trial ledger.
    from bellsim.config import MAX_LEDGER_TRIALS

    peaks = {}
    for trials in (MAX_LEDGER_TRIALS, 1500):
        argv = ["counterfactual", *model, "--trials", str(trials), "--ledger", f"{trials}.jsonl",
                "--out", "r.json"]
        peaks[trials] = fresh.peak_mb(argv, tmp_path)
    assert peaks[MAX_LEDGER_TRIALS] < 100
    assert peaks[MAX_LEDGER_TRIALS] - peaks[1500] <= 8
    with open(tmp_path / f"{MAX_LEDGER_TRIALS}.jsonl", "rb") as ledger:
        assert sum(1 for _ in ledger) == MAX_LEDGER_TRIALS


@needs_proc_status
@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity mask of at least two CPUs",
)
def test_counted_chunks_peak_within_3_4_mb_of_a_tiny_run(tmp_path):
    # A counted chunk allocates nothing past its buffers: on two workers,
    # 3,000,000 nonlocal trials per pair peak within 3.4 MB of 20 trials.
    two = set(sorted(os.sched_getaffinity(0))[:2])
    counted = fresh.peak_mb(["chsh", "--model", "nonlocal-optimal", "--trials", "3000000",
                             "--out", "r.json"], tmp_path, two)
    tiny = fresh.peak_mb(["chsh", "--trials", "20", "--out", "r.json"], tmp_path, two)
    assert counted - tiny <= 3.4


def test_encoding_failure_leaves_no_partial_file(tmp_path):
    out = tmp_path / "r.json"
    pieces = cli._document({"command": "chsh"}, {"value": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_artifacts([(str(out), pieces)])
    assert list(tmp_path.iterdir()) == []


def test_streamed_document_joins_to_dumps(tmp_path, capsys):
    for argv in (
        ["chsh", "--model", "lhv-uniform", "--trials", "1000", "--seed", "3"],
        ["landscape", "--resolution", "9", "--format", "json"],
    ):
        assert main(argv) == 0
        text = capsys.readouterr().out
        document = json.loads(text)
        pieces = list(cli._document(document["config"], document["results"]))
        assert len(pieces) > 2
        assert "".join(pieces) == json.dumps(document, indent=2) + "\n" == text


# Every subcommand at a small size; the counterfactual run also writes a ledger.
SMALL_RUNS = {
    "chsh": ["chsh", "--trials", "1000"],
    "lhv-scan": ["lhv-scan"],
    "optimize": ["optimize"],
    "counterfactual": ["counterfactual", "--trials", "8", "--stats-trials", "100"],
    "bomb": ["bomb", "--trials", "1000"],
    "landscape": ["landscape", "--resolution", "4"],
}

# A failure while encoding: an OSError exits 3, anything else propagates.
ENCODING_FAILURES = {"os-error": OSError(errno.EIO, "encoder failed"), "bug": RuntimeError("bug")}


def _fails_halfway(encode, failure):
    """`encode`, changed to yield the first half of its text and then raise `failure`."""

    def failing(*args):
        text = "".join(encode(*args))
        assert len(text) > 1
        yield text[: len(text) // 2]
        raise failure

    return failing


def _run_failing(argv, tmp_path, capsys, failure):
    """Run `argv` with its artifacts in tmp_path; the exit code, or the exception raised."""
    argv = argv + ["--out", str(tmp_path / "out")]
    if argv[0] == "counterfactual":
        argv += ["--ledger", str(tmp_path / "ledger.jsonl")]
    if isinstance(failure, OSError):
        code, stdout, stderr = _run(argv, capsys)
        assert stdout == ""
        assert stderr.startswith(f"bellsim: I/O error: [Errno {errno.EIO}] cannot write ")
        return code
    with pytest.raises(type(failure)) as exc:
        main(argv)
    return exc.value


@pytest.mark.parametrize("failure", sorted(ENCODING_FAILURES))
@pytest.mark.parametrize("out_format", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_encoding_failure_partway_leaves_no_file(
    command, out_format, failure, tmp_path, capsys, monkeypatch
):
    encoder = {"json": "_document", "csv": "_csv_lines"}[out_format]
    raised = ENCODING_FAILURES[failure]
    monkeypatch.setattr(cli, encoder, _fails_halfway(getattr(cli, encoder), raised))
    argv = SMALL_RUNS[command] + ["--format", out_format]
    outcome = _run_failing(argv, tmp_path, capsys, raised)
    assert outcome == (3 if failure == "os-error" else raised)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failure", sorted(ENCODING_FAILURES))
@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_ledger_encoding_failure_partway_leaves_no_file(
    out_format, failure, tmp_path, capsys, monkeypatch
):
    from bellsim import counterfactual

    raised = ENCODING_FAILURES[failure]
    blocks = _fails_halfway(counterfactual.ledger_blocks, raised)
    monkeypatch.setattr(counterfactual, "ledger_blocks", blocks)
    argv = SMALL_RUNS["counterfactual"] + ["--format", out_format]
    outcome = _run_failing(argv, tmp_path, capsys, raised)
    assert outcome == (3 if failure == "os-error" else raised)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_csv_text_is_what_csv_writer_writes(command, capsys):
    # The CLI joins fields with commas, which is right only while no field needs quoting.
    import csv
    import io

    assert main(SMALL_RUNS[command] + ["--format", "csv"]) == 0
    text = capsys.readouterr().out
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    assert text.count("\n") > 2
    assert rewritten.getvalue() == text


def test_trials_at_the_cap_pass_the_check(capsys):
    # --exact checks --trials and samples nothing, so the cap itself can be tried.
    assert main(["chsh", "--exact", "--trials", str(cli.MAX_TRIALS)]) == 0
    capsys.readouterr()
    code, stdout, stderr = _run(["chsh", "--exact", "--trials", str(cli.MAX_TRIALS + 1)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"bellsim: configuration error: trials must be at most {cli.MAX_TRIALS}, "
        f"got {cli.MAX_TRIALS + 1}\n"
    )


def test_main_in_process_does_not_freeze(capsys):
    frozen = gc.get_freeze_count()
    assert main(["chsh", "--trials", "1000"]) == 0
    assert gc.get_freeze_count() == frozen


def test_run_freezes_after_main(tmp_path):
    program = (
        "import gc, sys, bellsim.cli\n"
        "code = bellsim.cli.run(sys.argv[1:])\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    completed = fresh.python(["-c", program, "chsh", "--exact", "--out", "r.json"], tmp_path)
    assert completed.stdout == "0 True\n"
    assert json.loads((tmp_path / "r.json").read_text())["results"]["exact"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_module_run_prints_what_main_prints(fmt, tmp_path, capsys):
    argv = ["chsh", "--trials", "2000", "--seed", "7", "--format", fmt]
    completed = fresh.python(["-m", "bellsim.cli", *argv], tmp_path, text=False)
    code, stdout, _ = _run(argv, capsys)
    assert completed.returncode == code == 0
    assert completed.stdout == stdout.encode("utf-8")
    assert completed.stderr.startswith(b"runtime_ms=")


_CONFIG_ERROR = "bellsim: configuration error: "
_USAGE_ERROR = "bellsim: usage error: "


@pytest.mark.parametrize(
    "argv,code,stderr",
    [
        (["chsh", "--exact"], 0, "runtime_ms="),
        (["chsh", "--trials", "0"], 2, _CONFIG_ERROR + "trials must be at least 1"),
        (
            ["chsh", "--exact", "--out", "/nonexistent/x.json"],
            3,
            "bellsim: I/O error: [Errno 2] cannot write /nonexistent/x.json: ",
        ),
        (["chsh", "--config", "not-utf8.cfg"], 2, _CONFIG_ERROR + "config file not-utf8.cfg is not UTF-8"),
        # Echoed values are cut short, whether bellsim or argparse rejects them.
        (["chsh", "--exact", "--model", "x" * 60000], 2, _CONFIG_ERROR + "unknown model 'xxx"),
        (["chsh", "--exact", "--state", "y" * 5000], 2, _CONFIG_ERROR + "state must be "),
        (["x" * 5000], 2, _USAGE_ERROR + "argument command: invalid choice: 'xxx"),
        (["chsh", "--exact", "x" * 5000], 2, _USAGE_ERROR + "unrecognized arguments: xxx"),
        (
            ["chsh", "--exact", "--model",
             '{"kind": "quantum", "state": "psi_minus", "angles": [0,0,0,0], "angels": [1,1,1,1]}'],
            2,
            _CONFIG_ERROR + "invalid model: unknown model key 'angels'",
        ),
    ],
)
def test_module_run_exit_codes(argv, code, stderr, tmp_path):
    (tmp_path / "not-utf8.cfg").write_bytes(b"seed = 1\n# \xff\n")
    completed = fresh.python(["-m", "bellsim.cli", *argv], tmp_path, text=False)
    assert completed.returncode == code
    assert completed.stderr.startswith(stderr.encode("utf-8"))
    assert b"Traceback" not in completed.stderr
    assert len(completed.stderr) < 1024


def test_console_script_is_the_process_entry_point():
    # Read as text: Python 3.10 has no tomllib.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    lines = pyproject.read_text(encoding="utf-8").splitlines()
    scripts = lines[lines.index("[project.scripts]") + 1:]
    assert scripts[0] == 'bellsim = "bellsim.cli:run"'


# How the README's settings table writes a plain kind; a parser's kind is free text.
_README_KINDS = {int: "integer", float: "number", bool: "true or false", str: "string"}


def _readme_lines() -> list[str]:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return readme.read_text(encoding="utf-8").splitlines()


def _readme_table_rows(marker: str) -> list[list[str]]:
    """The cells of each row of the README table under the line starting with `marker`."""
    lines = _readme_lines()
    start = next(i for i, line in enumerate(lines) if line.startswith(marker))
    rows = []
    for line in lines[start + 3:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_settings_table_matches_the_command_table():
    expected: dict[tuple, list] = {}
    for name, command in cli._SUBCOMMANDS.items():
        for key, setting in command.settings.items():
            default = "—" if setting.default is None else f"`{json.dumps(setting.default)}`"
            if setting.high is not None:
                bounds = f"{setting.low}..{setting.high}"
            else:
                bounds = "" if setting.low is None else f"≥ {setting.low}"
            expected.setdefault((f"`{key}`", default, bounds), []).append((name, setting.kind))
    rows = _readme_table_rows("<!-- settings table")
    found = {(key, default, bounds): (kind, uses) for key, kind, default, bounds, uses in rows}
    assert len(found) == len(rows)
    assert sorted(found) == sorted(expected)
    for row, uses in expected.items():
        kind_text, subcommands = found[row]
        assert subcommands == ", ".join(name for name, _ in uses)
        for _, kind in uses:
            assert kind not in _README_KINDS or kind_text.startswith(_README_KINDS[kind])


def test_readme_model_kinds_table_matches_the_kind_table():
    # Each row: the kind, its fields before any parenthesis, and its unperformed cell first.
    rows = _readme_table_rows("<!-- model kinds table")
    found = [
        (kind.strip("`"), tuple(re.findall(r"`(\w+)`", fields.partition("(")[0])),
         re.match(r"`(\w+)`", holds).group(1))
        for kind, fields, holds, _ in rows
    ]
    assert found == [(kind, *spec) for kind, spec in models._KINDS.items()]


def test_readme_model_catalog_table_matches_the_catalog():
    rows = _readme_table_rows("<!-- model catalog table")
    catalog = models.catalog().items()
    assert rows == [[f"`{name}`", f"`{json.dumps(model.to_dict())}`"] for name, model in catalog]


def _readme_block(heading: str) -> list[str]:
    """The lines of the first fenced block after the README heading `heading`."""
    lines = _readme_lines()
    after = lines.index(heading)
    start = next(i for i, line in enumerate(lines) if i > after and line.startswith("```"))
    end = lines.index("```", start + 1)
    return lines[start + 1:end]


def test_readme_examples_exit_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BELLSIM_SEED", raising=False)
    lines = _readme_block("## Command-line usage")
    commands = [shlex.split(line, comments=True) for line in lines]
    assert commands and all(argv[0] == "bellsim" for argv in commands)
    (tmp_path / "run.cfg").write_text("\n".join(_readme_block("### Config files")) + "\n")
    for argv in [argv[1:] for argv in commands] + [["chsh", "--config", "run.cfg"]]:
        assert main(argv) == 0, argv
        capsys.readouterr()
