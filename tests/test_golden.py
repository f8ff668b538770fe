"""The README's nine CLI commands, compared byte for byte with golden files.

The files under ``tests/golden/`` hold the output of each command.  A change
that moves a reported digit must say so and replace the file.
"""

import pathlib

from pinchlab.cli import run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
FAMILY = ("--model", "family", "--n", "10", "--eps", "0.8", "--delta", "0.02")

# (golden file, arguments, exit code); {d} is the output directory.  The
# commands run in README order, so "curvature" reads the model "build" wrote.
README_COMMANDS = (
    ("family.json", ("build", *FAMILY, "--out", "{d}/family.json"), 0),
    ("curv.csv", ("curvature", "--from", "{d}/family.json", "--grid", "1000",
                  "--out", "{d}/curv.csv"), 0),
    ("pinch.json", ("pinch", *FAMILY), 0),
    ("pinch_fail.json", ("pinch", "--model", "family", "--n", "3", "--eps", "0.9",
                         "--delta", "0.02"), 1),
    ("geodesic.csv", ("geodesic", "--model", "round_sphere", "--r0", "1.0",
                      "--dir", "0.7", "--length", "3.0"), 0),
    ("index.json", ("index", "--model", "round_sphere", "--length",
                    "4.71238898038469"), 0),
    ("gap.json", ("gap", *FAMILY), 0),
    ("family_limit.csv", ("family-limit", "--n", "10", "--eps", "0.8",
                          "--deltas", "0.08,0.04,0.02,0.01"), 0),
    ("klingenberg.json", ("klingenberg", *FAMILY, "--loop-length", "3.0"), 0),
)


def test_readme_commands_match_golden_files(tmp_path, capsys):
    differ = []
    for name, args, code in README_COMMANDS:
        argv = [a.format(d=tmp_path) for a in args]
        assert run_cli(argv) == code, name
        stdout = capsys.readouterr().out
        data = (tmp_path / name).read_bytes() if "--out" in argv else stdout.encode()
        if data != (GOLDEN / name).read_bytes():
            differ.append(name)
    assert differ == []
