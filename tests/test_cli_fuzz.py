"""CLI fuzz test: any argv built from the settings table, with or without a
config file, ends in exit 0, 2 or 3 (or argparse's own exit 2), never in an
uncaught exception or a numpy warning."""

import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamturb import cli

FIXTURE = Path(__file__).parent / "data" / "synthetic_decay.csv"

JUNK = st.sampled_from(["", "junk", "1e", "0x10", "--", "1,2"]) | st.text(
    st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=6)
FLOATS = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300",
                          "0", "-0"]) | st.floats(-5.0, 5.0).map(repr) | JUNK
INTS = st.integers(-5, 400).map(str) | st.sampled_from([str(10**10), str(10**40), str(10**400)]) | JUNK
STRINGS = {
    "out": st.sampled_from(["f.csv", "100%.csv", "%(x)s"]),
    "form": st.sampled_from(["poly", "exp", "junk"]),
    # "@" stands for the fixture CSV; the other names do not exist
    "input": st.sampled_from(["@", "@", "missing.csv", "."]),
    "initial": st.sampled_from(["0.183,3.78,0.21,0.131", "1,1,1,1", "1,1,-1,1", "1,1e3,1,1",
                                "nan,1,1,1", "1,2,3", "a,b,c,d", ""]),
}


def value(key):
    kind = cli._KEYS[key][1]
    return FLOATS if kind is float else INTS if kind is int else STRINGS[key]


def setting(keys=st.sampled_from(list(cli._KEYS))):
    return keys.flatmap(lambda key: st.tuples(st.just(key), value(key)))


SECTIONS = st.sampled_from(["beam", "werner", "turbulence", "run", "DEFAULT", "runn"])
FILE_VALUES = st.sampled_from(["%", "100%.csv", "%(x)s", "%(tol)s"]) | FLOATS
CONFIG = st.none() | st.lists(
    st.tuples(SECTIONS, st.sampled_from(list(cli._KEYS)), FILE_VALUES), max_size=5)


def render(config, fixture):
    sections = {}
    for section, key, val in config:
        sections.setdefault(section, []).append(f"{key} = {val.replace('@', fixture)}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(["channel", "measures", "fit", "esd"]),
       flags=st.lists(setting(), max_size=6), config=CONFIG)
@example(command="channel", flags=[("r0", "1e300")], config=None)
@example(command="channel", flags=[("x", "1e-200")], config=None)
@example(command="channel", flags=[("cn2", "1e-300"), ("k", "1e-300"), ("path_length", "1e-300")],
         config=None)
@example(command="channel", flags=[("cn2", "1e300"), ("k", "1e300"), ("path_length", "1e300")],
         config=None)
@example(command="channel", flags=[("x", "--")], config=None)
@example(command="fit", flags=[("form", "poly"), ("input", "@"), ("initial", "1,1,-1,1")], config=None)
@example(command="measures", flags=[("x", "0.5")], config=[("run", "out", "100%.csv")])
@example(command="measures", flags=[("x", "0.5")], config=[("run", "out", "%(x)s")])
def test_cli_ends_in_a_known_exit_code(command, flags, config):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for key, val in flags:
            argv.append(f"--{key.replace('_', '-')}={val.replace('@', str(FIXTURE))}")
        if config is not None:
            path = Path(tmp) / "run.cfg"
            path.write_text(render(config, str(FIXTURE)))
            argv += ["--config", str(path)]
        out, err = StringIO(), StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            assert exc.code == 2, argv
            return
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), argv
        if code == cli.EXIT_OK:
            assert err.getvalue() == "", argv
        else:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
