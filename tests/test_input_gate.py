"""Generated hostile inputs for every setting of every subcommand.

The settings come from `bellsim.cli._SUBCOMMANDS`. Each example gives every
setting either no value, a flag or a config-file line. A value is drawn from
a fixed pool by the setting's kind: valid values, non-finite and overlong
numbers, empty and non-ASCII strings, JSON nested 20,000 deep, JSON of the
wrong type (also inside a model), and for `out` and `ledger` a directory,
a missing path, a path through a regular file, a FIFO, a link to a file, a
dangling link, a link that loops and a link to a directory. A config file
may also repeat a key or hold a byte that is not UTF-8. Trial counts and
`resolution` are always given, tiny or above their caps, so a valid run
stays small.

Whatever is drawn, `main(argv)` must exit 0, 2 or 3 without a traceback. A
nonzero exit writes exactly one `bellsim:` line, or argparse's usage and
error, and leaves no finished artifact (`out.json`, `out.csv` or
`ledger.jsonl`), and no run leaves a `.tmp` file behind. After exit 0, each
path named for an artifact resolves, as it did before the run, to a
regular file that holds the bytes the same run writes to a plain file of
that name, and no other file in the working directory changed. A second
generated test names each FIFO and link for `out` or `ledger` of every
subcommand with every other setting valid, so a link to a file and a
dangling link reach the exit-0 oracle and the rest exit 2. A third gives
each FIFO and link to `counterfactual`'s `out` and `ledger` in turn, a
fourth runs `counterfactual` with one of its two artifacts unwritable, and
a fifth builds JSON models field by field, from values of every type, and
requires each to be a model or a configuration error.
"""

import contextlib
import io
import json
import math
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim import cli
from bellsim.cli import main
from bellsim.config import ConfigError, resolve_model
from bellsim.models import MODEL_KINDS
from bellsim.optimize import MAX_RESOLUTION

# Each pool entry is (flag text, config JSON text); a flag text of None has no flag form.
NON_FINITE = [("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"), ("1e309", "1e309")]
NEGATIVE_ZERO = [("-0", "-0"), ("-0.0", "-0.0")]
LONG_INTEGERS = [("1" + "0" * (digits - 1),) * 2 for digits in (20, 400, 5000)]
STRINGS = [("", '""'), ("é→∞ ü", '"é→∞ ü"')]
NESTED = [
    ("[" * 20_000 + "]" * 20_000,) * 2,
    ('{"a": ' * 20_000 + "1" + "}" * 20_000,) * 2,
]
WRONG_JSON = [(None, text) for text in ("null", "true", "[1]", "{}", '"7"', "2.5", '{"kind": 1}')]
# JSON models with a value of the wrong type inside.
WRONG_INSIDE = [
    ('{"kind": "quantum", "state": [], "angles": [0, 0, 0, 0]}',) * 2,
    ('{"kind": "nonlocal", "state": "psi_minus", "angles": [[], {}, 0, 0]}',) * 2,
    ('{"kind": "lhv_deterministic", "strategy": {}}',) * 2,
]
HOSTILE = NON_FINITE + NEGATIVE_ZERO + LONG_INTEGERS + STRINGS + NESTED + WRONG_JSON + WRONG_INSIDE


def _both(*values):
    """Pool entries whose flag text is the JSON text too."""
    return [(value, value) for value in values]


def _strings(*values):
    return [(value, '"%s"' % value) for value in values]


# Values that pass each setting's own checks, so that runs also get past them.
VALID = {
    "out": _strings("out.json"),
    "format": _strings("json", "csv"),
    "angles": [("0,1.5,0.7,2.3", "[0, 1.5, 0.7, 2.3]")],
    "state": _strings("psi_minus", "phi_plus"),
    "model": _strings("quantum", "lhv-uniform", "pr-box")
    + [('{"kind": "lhv_deterministic", "strategy": 3}',) * 2],
    "threads": _both("1", "2"),
    "seed": _both("0", "7"),
    "pattern": _strings("+-++", "+++-"),
    "grid": _both("8", "16"),
    "ledger": _strings("ledger.jsonl"),
    "reflectivity": _both("0.5", "0.25"),
    "phase": _both("0", "1.5"),
    "fixed": [("a=0,a'=1.5", '{"a": 0, "a\'": 1.5}'), ("b=1,b'=2", '"b=1,b\'=2"')],
}
# The artifacts a run may write to the working directory; a nonzero exit leaves none.
ARTIFACTS = ("out.json", "out.csv", "ledger.jsonl")
# Paths that cannot be written: a directory of the working directory, a missing one,
# and one whose parent is a regular file.
BAD_PATHS = _strings("outdir", "missing/artifact", "afile/x.json")
# Paths that are not plain files: a FIFO (exit 2), a link to a file and a
# dangling link (both written through to their targets), a link that loops
# and a link to a directory (both exit 2).
LINKED_PATHS = {"fifo": 2, "link.json": 0, "dangling.json": 0, "loop.json": 2, "dirlink": 2}
# Always given: tiny, or just above their caps.
COUNTS = {
    "trials": _both("1", "3"),
    "stats_trials": _both("1", "5"),
    "resolution": _both("2", "3", str(MAX_RESOLUTION + 1)),
}
# Pools that keep a run valid through a link or FIFO: tiny counts, and a model that takes
# --state and --angles.
VALID_RUN = {key: values[:2] for key, values in COUNTS.items()} | {"model": _strings("quantum")}


def _pool(key: str, setting, hostile: bool) -> list:
    """The values drawn for a setting: valid ones, or else bad ones."""
    if key in COUNTS:
        above_cap = [] if setting.high is None else _both(str(setting.high + 1))
        return HOSTILE + above_cap if hostile else COUNTS[key]
    if not hostile:
        return [(True, "true"), (False, "false")] if setting.kind is bool else VALID[key]
    paths = BAD_PATHS + _strings(*LINKED_PATHS) if key in ("out", "ledger") else []
    return paths + HOSTILE


def test_every_setting_has_a_pool():
    keys = {key for command in cli._SUBCOMMANDS.values() for key in command.settings}
    assert keys - set(COUNTS) == set(VALID) | {"bomb", "exact"}


@st.composite
def _invocations(draw, command, linked=None):
    """argv and config-file text for `command`, a BELLSIM_SEED value or None, and the paths named.

    One or two settings get bad values and the others valid ones, so that
    each check is reached past the checks before it. With `linked`, a name
    of LINKED_PATHS, nothing is bad: `out` or `ledger` names `linked`, the
    others draw from VALID_RUN or VALID and no config key is repeated. The
    paths are the string values given to `out` and `ledger`.
    """
    table = cli._SUBCOMMANDS[command].settings
    if linked is None:
        keys = st.sampled_from(sorted(table) + ["BELLSIM_SEED"])
        bad, at = draw(st.sets(keys, min_size=1, max_size=2)), None
    else:
        bad, at = set(), draw(st.sampled_from([key for key in ("out", "ledger") if key in table]))
    argv, lines, named = [command], [], []
    for key, setting in table.items():
        pool = _pool(key, setting, key in bad)
        if linked is not None:
            pool = _strings(linked) if key == at else VALID_RUN.get(key, pool)
        flag_text, json_text = draw(st.sampled_from(pool))
        places = ["flag", "config"] if key in (*COUNTS, at) else ["", "flag", "config"]
        where = draw(st.sampled_from(places))
        if where == "flag" and flag_text is None:
            where = "config"
        flag = "--" + key.replace("_", "-")
        if where == "flag" and setting.kind is bool and isinstance(flag_text, bool):
            argv.append(flag if flag_text else "--no-" + flag[2:])
        elif where == "flag":
            argv.append(f"{flag}={flag_text}")
        elif where == "config":
            lines.append(f"{key} = {json_text}")
        if key in ("out", "ledger") and where == "flag":
            named.append(flag_text)
        elif key in ("out", "ledger") and where == "config" and json_text.startswith('"'):
            named.append(json.loads(json_text))
    if lines and linked is None:
        lines += draw(st.sampled_from([[]] * 4 + [[lines[0]], ["# \udcff"]]))
    hostile_env = ["x", "-1", "1" + "0" * 5000, ""]
    env = draw(st.sampled_from(hostile_env if "BELLSIM_SEED" in bad else [None, "7"]))
    return argv, lines, env, named


def _prepare(argv, lines, workdir: Path, linked: bool = True) -> list:
    """Write the config file and the files the path pools name; argv with `--config` if any.

    With `linked` false, no FIFO or link is made, so each of their names is a new plain file.
    """
    if lines:
        text = "\n".join(lines) + "\n"
        (workdir / "run.cfg").write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = argv + ["--config", "run.cfg"]
    (workdir / "outdir").mkdir()
    (workdir / "afile").write_text("")
    if linked:
        if hasattr(os, "mkfifo"):
            os.mkfifo(workdir / "fifo")
        (workdir / "target.json").write_text("target\n")
        for link, target in [("link.json", "target.json"), ("dangling.json", "made.json"),
                             ("loop.json", "loop.json"), ("dirlink", "outdir")]:
            os.symlink(target, workdir / link)
    return argv


def _tree(root: Path) -> dict:
    """Each entry under `root` by relative path: a file's bytes, a link's target, else its type."""
    tree = {}
    for folder, dirs, files in os.walk(root):  # links to directories are listed, not entered
        for name in dirs + files:
            path = os.path.join(folder, name)
            mode = os.lstat(path).st_mode
            if stat.S_ISLNK(mode):
                entry = ("link", os.readlink(path))
            elif stat.S_ISREG(mode):
                entry = ("file", Path(path).read_bytes())
            else:
                entry = ("other", stat.S_IFMT(mode))
            tree[os.path.relpath(path, root)] = entry
    return tree


def _checked_run(argv, lines, env, named, workdir: Path):
    """Run main in a prepared `workdir` and check the gate's oracles; return its exit code.

    A FIFO is held open for reading during the run, so that a run that
    wrongly writes to it fails the checks instead of blocking.
    """
    given, argv = argv, _prepare(argv, lines, workdir)
    root = Path(os.path.realpath(workdir))
    before = _tree(root)
    resolved = {path: os.path.realpath(root / path) for path in named}
    reader = os.open(root / "fifo", os.O_RDONLY | os.O_NONBLOCK) if "fifo" in before else None
    try:
        code, stderr = _run(argv, env, workdir)
    finally:
        if reader is not None:
            os.close(reader)
    leftovers = [p.name for p in root.rglob("*.tmp")]
    finished = [name for name in ARTIFACTS if (root / name).exists()]
    assert code in (0, 2, 3), stderr
    assert "Traceback" not in stderr
    assert leftovers == []
    if code != 0:
        assert finished == [], stderr
        diagnostics = [line for line in stderr.splitlines() if line.startswith("bellsim:")]
        usage = stderr.startswith("usage: bellsim") and f"bellsim {given[0]}: error:" in stderr
        assert len(diagnostics) == 1 or (usage and not diagnostics), stderr
        return code
    written = {os.path.relpath(target, root) for target in resolved.values()}
    with tempfile.TemporaryDirectory() as plain:
        assert _run(_prepare(given, lines, Path(plain), False), env, Path(plain))[0] == 0
        for path, target in resolved.items():
            # Each named path still resolves where it did, to what was a regular file or nothing.
            assert os.path.realpath(root / path) == target, path
            assert before.get(os.path.relpath(target, root), ("file",))[0] == "file", path
            assert stat.S_ISREG(os.lstat(target).st_mode), path
            assert Path(target).read_bytes() == (Path(plain) / path).read_bytes(), path
    after = _tree(root)
    assert {k: v for k, v in after.items() if k not in written} == {
        k: v for k, v in before.items() if k not in written
    }
    return code


def _run(argv, env, workdir: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_env, saved_cwd = os.environ.get("BELLSIM_SEED"), os.getcwd()
    try:
        os.chdir(workdir)
        os.environ.pop("BELLSIM_SEED", None)
        if env is not None:
            os.environ["BELLSIM_SEED"] = env
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    finally:
        os.chdir(saved_cwd)
        os.environ.pop("BELLSIM_SEED", None)
        if saved_env is not None:
            os.environ["BELLSIM_SEED"] = saved_env
    return code, stderr.getvalue()


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_generated_inputs_exit_cleanly(command, data):
    argv, lines, env, named = data.draw(_invocations(command))
    with tempfile.TemporaryDirectory() as tmp:
        _checked_run(argv, lines, env, named, Path(tmp))


@pytest.mark.parametrize("path", sorted(LINKED_PATHS))
@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_valid_runs_through_fifos_and_links(command, path, data):
    # A link to a file and a dangling link are written through; the rest exit 2.
    if path == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    argv, lines, env, named = data.draw(_invocations(command, linked=path))
    with tempfile.TemporaryDirectory() as tmp:
        assert _checked_run(argv, lines, env, named, Path(tmp)) == LINKED_PATHS[path]


@pytest.mark.parametrize("key", ["out", "ledger"])
@pytest.mark.parametrize("path", sorted(LINKED_PATHS))
def test_fifos_and_links_name_the_file_they_resolve_to(key, path, tmp_path):
    if path == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    paths = {"out": "out.json", "ledger": "ledger.jsonl", key: path}
    argv = ["counterfactual", "--trials", "3", "--stats-trials", "5",
            "--out", paths["out"], "--ledger", paths["ledger"]]
    assert _checked_run(argv, [], None, list(paths.values()), tmp_path) == LINKED_PATHS[path]


@pytest.mark.parametrize(
    "paths",
    [
        ["--out", "out.json", "--ledger", "missing/artifact"],
        ["--format", "csv", "--out", "out.csv", "--ledger", "missing/artifact"],
        ["--out", "missing/artifact", "--ledger", "ledger.jsonl"],
        ["--out", "afile/x.json", "--ledger", "ledger.jsonl"],
    ],
)
def test_failed_write_leaves_no_finished_artifact(paths, tmp_path):
    # One of two artifacts cannot be written, so the run writes neither.
    argv = _prepare(["counterfactual", "--trials", "3", "--stats-trials", "5", *paths], [],
                    tmp_path)
    code, stderr = _run(argv, None, tmp_path)
    assert code == 3, stderr
    assert [name for name in ARTIFACTS if (tmp_path / name).exists()] == []


# JSON values of every type, for model fields that expect another.
_ODD = st.sampled_from(
    [None, True, 0, -1, 2.5, math.nan, math.inf, 10**400, "", "é", [], [[]], [None], {}, {"a": 1}]
)
_MODEL_FIELDS = {
    "state": st.sampled_from(["psi_minus", "up_up"]) | _ODD,
    "angles": st.lists(st.floats(-4, 4) | _ODD, min_size=3, max_size=5) | _ODD,
    "weights": st.lists(st.sampled_from([0, 0.5, 1]) | _ODD, min_size=15, max_size=17) | _ODD,
    "strategy": st.integers(-1, 16) | _ODD,
    "table": st.dictionaries(
        st.sampled_from(["a,b", "a,b'", "a',b", "a',b'", "b,a", "x", ""]),
        st.lists(st.sampled_from([0, 0.25, 1]) | _ODD, min_size=3, max_size=5) | _ODD,
        max_size=5,
    )
    | _ODD,
}


# The fields each model kind reads.
_FIELDS_OF = {
    "quantum": ("state", "angles"),
    "nonlocal": ("state", "angles"),
    "lhv_deterministic": ("strategy",),
    "lhv_stochastic": ("weights",),
    "superdeterministic": ("table",),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_models_raise_only_config_errors(data):
    # A JSON model of any shape is a model or a configuration error, never another exception.
    kind = data.draw(st.sampled_from(MODEL_KINDS) | _ODD)
    names = _FIELDS_OF.get(kind, ()) if isinstance(kind, str) else ()
    names += tuple(data.draw(st.sets(st.sampled_from(sorted(_MODEL_FIELDS)), max_size=1)))
    payload = {"kind": kind, **{name: data.draw(_MODEL_FIELDS[name]) for name in names}}
    try:
        resolve_model(payload)
    except ConfigError:
        pass
