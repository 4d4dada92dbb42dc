import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anosov import (
    SingularInput,
    compound_matrix,
    enumerate_ball,
    evaluate,
    perturb_path,
    spectrum,
)
from anosov import certify as cert
from anosov.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    ExperimentConfig,
    _commands,
    _parser,
    _write_csv,
    build_representation,
    cmd_certify,
    cmd_scan_positivity,
    load_config,
    main,
    write_run,
)
from anosov.words import SPELL_ROWS

DATA = Path(__file__).parent / "data"

SCHOTTKY = '{"kind":"schottky","rank":2,"dilation":3.0}'
TAU2 = '{"kind":"tau2-schottky","rank":2,"dilation":3.0,"twists":[0.3,0.7]}'
SYM5 = '{"kind":"sym-power","m":5,"base":{"kind":"schottky","rank":2,"dilation":3.0}}'

#: The settings each command reads besides --config, --construction, --seed, --threads, --out.
READS = {
    "construct": {"emit"},
    "certify": {"radius", "k", "alpha_min", "ell_min"},
    "gap-profile": {"radius", "k"},
    "scan-positivity": {"radius", "k", "eps_gap"},
    "limit-set": {"radius", "k", "eps_gap", "cond_threshold"},
    "deform": {"radius", "k", "eps_gap", "magnitude", "steps"},
    "pingpong": {"eps_gap", "cond_threshold", "g_word", "t_word", "t_rotation", "max_n"},
}

#: Setting -> (flag, a valid flag value, the same value in a config file).
SETTINGS = {
    "radius": ("--radius", "3", 3),
    "k": ("--k", "1", [1]),
    "eps_gap": ("--eps-gap", "0.001", 0.001),
    "alpha_min": ("--alpha-min", "0.1", 0.1),
    "ell_min": ("--ell-min", "2", 2),
    "cond_threshold": ("--cond-threshold", "1e6", 1e6),
    "magnitude": ("--magnitude", "0.01", 0.01),
    "steps": ("--steps", "5", 5),
    "g_word": ("--g", "a", "a"),
    "t_word": ("--t", "b", "b"),
    "t_rotation": ("--t-rotation", "1.5", 1.5),
    "max_n": ("--max-n", "5", 5),
    "emit": ("--emit", "rep.json", "rep.json"),
}

READ_PAIRS = [(c, s) for c in READS for s in SETTINGS if s in READS[c]]
UNREAD_PAIRS = [(c, s) for c in READS for s in SETTINGS if s not in READS[c]]


def run(*argv):
    return main(list(argv))


def csv_columns(path):
    """The CSV's columns as tuples of raw text, header first."""
    return list(zip(*(line.split(",") for line in path.read_text().splitlines())))


class TestConfigHandling:
    def test_negative_radius_is_usage_error(self, tmp_path):
        code = run("certify", "--construction", SCHOTTKY, "--radius", "-1",
                   "--out", str(tmp_path))
        assert code == EXIT_USAGE

    def test_missing_construction(self, tmp_path):
        code = run("certify", "--radius", "4", "--out", str(tmp_path))
        assert code == EXIT_USAGE

    def test_malformed_config_file_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"construction": {"kind": "schottky",}\n')
        code = run("certify", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line" in err

    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"construction": {"kind": "schottky"}, "radiu": 3}))
        code = run("certify", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "field, value", [("radius", "4"), ("k", 1)], ids=["radius-str", "k-int"]
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"construction": json.loads(SCHOTTKY), field: value}))
        code = run("certify", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "desc, name",
        [
            ({"kind": "fuchsian-surface", "genus": "x"}, "genus"),
            ({"kind": "schottky", "dilation": "3.5"}, "dilation"),
            ({"kind": "schottky", "dilation": "3"}, "dilation"),
            ({"kind": "schottky", "rank": True}, "rank"),
            ({"kind": "sym-power", "m": "5"}, "m"),
            ({"kind": "sym-power", "base": 5}, "base"),
            ({"kind": "direct-sum", "summands": "ab"}, "summands"),
            ({"kind": "from-file", "path": 5}, "path"),
            # with several bad keys, the first in the kind's table is named
            ({"kind": "tau2-schottky", "trace_signs": "z", "twists": 3, "angles": "x"}, "angles"),
            ({"kind": "tau2-schottky", "trace_signs": "z", "twists": 3}, "twists"),
            ({"kind": "sym-power", "m": "z", "base": 3}, "base"),
        ],
        ids=["genus-str", "dilation-str", "dilation-digit-str", "rank-bool", "m-str",
             "base-int", "summands-str", "path-int", "first-of-three", "twists-first",
             "base-first"],
    )
    def test_descriptor_value_of_wrong_type(self, tmp_path, capsys, desc, name):
        out = tmp_path / "run"
        code = run("construct", "--construction", json.dumps(desc), "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: construction {name} must be of type")
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{bad", "JSONDecodeError"),
            ('{"presentation": {"family": "free"}}', "KeyError: 'n'"),
            ("<dir>", "IsADirectoryError"),
            ("<missing>", "FileNotFoundError"),
        ],
        ids=["invalid-json", "missing-field", "directory", "missing-file"],
    )
    def test_from_file_without_representation(self, tmp_path, capsys, content, message):
        path = tmp_path / "rep"
        if content == "<dir>":
            path.mkdir()
        elif content != "<missing>":
            path.write_text(content)
        out = tmp_path / "run"
        code = run("certify", "--construction",
                   json.dumps({"kind": "from-file", "path": str(path)}), "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: from-file path {str(path)!r} does not hold a representation")
        assert message in err
        assert not out.exists()

    def test_out_naming_a_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep")
        code = run("certify", "--construction", SCHOTTKY, "--radius", "2", "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_unwritable_out_fails_before_the_command(self, tmp_path, capsys, below):
        # radius 3 is too small to certify: the handler would fail with its own message
        blocker = tmp_path / "run"
        blocker.write_text("keep")
        code = run("certify", "--construction", SCHOTTKY, "--radius", "3",
                   "--out", str(blocker / below))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: cannot write output: {blocker} is not a directory\n"
        assert blocker.read_text() == "keep"

    def test_emit_naming_a_directory(self, tmp_path, capsys):
        emit = tmp_path / "emit"
        emit.mkdir()
        out = tmp_path / "run"
        code = run("construct", "--construction", SCHOTTKY, "--emit", str(emit),
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert not any(emit.iterdir())
        assert not any(out.rglob("*"))

    @pytest.mark.parametrize("command", ["certify", "scan-positivity"])
    def test_repeated_k_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        code = run(command, "--construction", SCHOTTKY, "--k", "1", "1", "--radius", "4",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: k indices must be distinct\n"
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(
            json.dumps(
                {"construction": {"kind": "schottky", "rank": 2, "dilation": 3.0},
                 "radius": 4, "k": [1]}
            )
        )
        out = tmp_path / "run"
        code = run("certify", "--config", str(cfg), "--radius", "5", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["radius"] == 5

    def test_unknown_construction_kind(self):
        with pytest.raises(Exception):
            build_representation({"kind": "moebius"})

    @pytest.mark.parametrize("kind", ["moebius", ["schottky"], None])
    def test_unknown_construction_kind_exits_3(self, tmp_path, capsys, kind):
        out = tmp_path / "run"
        code = run("construct", "--construction", json.dumps({"kind": kind}), "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown construction kind {kind!r}\n"
        assert not out.exists()


class TestInvalidInputExits3:
    """Input the CLI cannot use is a usage error, never a verdict exit code."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "--construction", SCHOTTKY, "--bogus"],
             "unrecognized arguments: --bogus"),
            (["certify", "--construction", SCHOTTKY, "--k", "x"],
             "argument --k: invalid int value: 'x'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-flag", "non-integer-k", "no-subcommand"],
    )
    def test_parser_error(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # the default --out
        assert run(*argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]], ids=["top", "command"])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: anosov")

    @pytest.mark.parametrize(
        "command, flag",
        [("limit-set", "--cond-threshold"), ("scan-positivity", "--eps-gap"),
         ("certify", "--alpha-min")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "run"
        code = run(command, "--construction", SCHOTTKY, "--radius", "3", flag, value,
                   "--out", str(out))
        assert code == EXIT_USAGE
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("name", ["eps_gap", "alpha_min", "cond_threshold"])
    def test_non_finite_threshold_in_config_file(self, tmp_path, capsys, name, value):
        command = "certify" if name == "alpha_min" else "limit-set"  # a command that reads it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": json.loads(SCHOTTKY), name: value}))
        out = tmp_path / "run"
        assert run(command, "--config", str(cfg), "--radius", "3", "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {name} must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_t_rotation(self, tmp_path, capsys, value, source):
        # cos(inf) raises inside rotation_about_i; "=" keeps -inf from reading as a flag
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": json.loads(SCHOTTKY),
                                   "t_rotation": float(value)}))
        given = [f"--t-rotation={value}"] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "run"
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a", *given, "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: t_rotation must be finite\n"
        assert not out.exists()

    def test_command_table_holds_the_read_settings(self):
        assert {name: set(settings) for name, (_, settings) in _commands().items()} == READS

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, setting", UNREAD_PAIRS,
                             ids=[f"{c}-{s}" for c, s in UNREAD_PAIRS])
    def test_unread_setting(self, tmp_path, capsys, command, setting, source):
        flag, text, value = SETTINGS[setting]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": json.loads(SCHOTTKY), setting: value}))
        given = [flag, text] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "run"
        code = run(command, "--construction", SCHOTTKY, *given, "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: unrecognized arguments: {flag} {text}\n" if source == "flag"
            else f"error: command {command!r} does not read {setting}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, setting", READ_PAIRS,
                             ids=[f"{c}-{s}" for c, s in READ_PAIRS])
    def test_read_setting_is_taken(self, tmp_path, command, setting):
        flag, text, value = SETTINGS[setting]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"construction": json.loads(SCHOTTKY), setting: value}))
        from_file = load_config(_parser().parse_args([command, "--config", str(cfg)]))
        from_flag = load_config(_parser().parse_args([command, "--construction", SCHOTTKY,
                                                      flag, text]))
        assert getattr(from_file, setting) == getattr(from_flag, setting) == value

    @pytest.mark.parametrize("command", list(READS))
    def test_help_lists_only_read_settings(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        common = {"--help", "--config", "--construction", "--seed", "--threads", "--out"}
        assert listed == common | {SETTINGS[s][0] for s in READS[command]}

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(line)[1:] for line in lines if line.startswith("anosov ")]
        assert len(examples) == 8
        for argv in examples:
            load_config(_parser().parse_args(argv))

    def test_config_file_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        out = tmp_path / "run"
        code = run("certify", "--config", str(cfg), "--construction", SCHOTTKY, "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: config file {str(cfg)!r} does not hold a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "scan-positivity", "limit-set"])
    @pytest.mark.parametrize("log_scale", [1e306, float("inf"), float("-inf"), float("nan")],
                             ids=["1e306", "Infinity", "-Infinity", "NaN"])
    def test_from_file_log_scale_out_of_range(self, tmp_path, capsys, command, log_scale):
        # adding 1e306 to each log singular value absorbs every gap to 0
        data = build_representation(json.loads(SCHOTTKY)).to_json_dict()
        for gen in data["generators"]:
            gen["log_scale"] = log_scale
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        code = run(command, "--construction", json.dumps({"kind": "from-file", "path": str(path)}),
                   "--radius", "4", "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: from-file path {str(path)!r} does not hold a representation "
                              f"(ValueError: log_scale {log_scale} is not within")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_ell_min_below_one(self, tmp_path, capsys, value):
        # a fit from length 0 would run through the identity, whose log gap is 0
        out = tmp_path / "run"
        code = run("certify", "--construction", SCHOTTKY, "--radius", "2", "--ell-min", value,
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: ell_min must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["deform", "limit-set"])
    def test_negative_seed(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        code = run(command, "--construction", SCHOTTKY, "--radius", "3", "--seed", "-1",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "desc, kind, unread",
        [
            ({"kind": "schottky", "dilaton": 5.0}, "schottky", "dilaton"),
            ({"kind": "tau2-schottky", "field": "complex"}, "tau2-schottky", "field"),
            # a real Schottky group has no twists, and no other field
            ({"kind": "schottky", "twists": [0.3, 0.7]}, "schottky", "twists"),
            ({"kind": "schottky", "field": "real"}, "schottky", "field"),
            ({"kind": "sym-power", "base": {"kind": "schottky", "rnak": 2}}, "schottky", "rnak"),
            ({"kind": "direct-sum", "summands": [{"kind": "schottky"},
                                                 {"kind": "fuchsian-surface", "rank": 2}]},
             "fuchsian-surface", "rank"),
        ],
        ids=["top-level", "field-of-tau2", "twists-of-schottky", "field-of-schottky",
             "nested-base", "nested-summand"],
    )
    def test_unread_construction_key(self, tmp_path, capsys, desc, kind, unread):
        out = tmp_path / "run"
        code = run("gap-profile", "--construction", json.dumps(desc), "--radius", "2",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: construction kind {kind!r} does not read {unread}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "desc, message",
        [
            ({"kind": "schottky", "rank": 0}, "rank must be at least 1"),
            ({"kind": "schottky", "angles": [0, 3.5]}, "axis angles must lie in [0, pi)"),
            ({"kind": "schottky", "angles": [0, 0.1]},
             "axis angles 0,1 separated by less than pi/(2*rank)"),
            ({"kind": "schottky", "angles": [0]}, "need one axis angle per generator"),
            ({"kind": "schottky", "trace_signs": [1, 2]}, "trace signs must be +1 or -1"),
            ({"kind": "schottky", "dilation": [3.0, 0.5]}, "dilation 0.5 must exceed 1"),
            ({"kind": "tau2-schottky", "twists": [0.3]}, "need one twist per generator"),
        ],
        ids=["rank-0", "angle-range", "angles-close", "angles-count", "trace-sign",
             "dilation-below-1", "twists-count"],
    )
    def test_invalid_schottky_descriptor(self, tmp_path, capsys, desc, message):
        out = tmp_path / "run"
        code = run("gap-profile", "--construction", json.dumps(desc), "--radius", "2",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestCertifyCommand:
    def test_schottky_certified_exit0(self, tmp_path):
        out = tmp_path / "run"
        code = run("certify", "--construction", SCHOTTKY, "--k", "1",
                   "--radius", "5", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["estimates"][0]["verdict"] == "Certified"
        assert summary["seed"] == 0
        assert "threads" not in summary["config"]
        csv_text = (out / "gap_profile.csv").read_text().splitlines()
        assert csv_text[0] == "word,length,log_gap_1,log_total_ratio"
        assert len(csv_text) == 1 + 1 + 4 * (1 + 3 + 9 + 27 + 81)

    def test_tau2_refuted_exit1(self, tmp_path):
        out = tmp_path / "run"
        code = run("certify", "--construction", TAU2, "--k", "1",
                   "--radius", "4", "--out", str(out))
        assert code == EXIT_REFUTED
        summary = json.loads((out / "summary.json").read_text())
        est = summary["estimates"][0]
        assert est["verdict"] == "Refuted"
        assert est["witness"] == "a"

    def test_multi_k_columns(self, tmp_path):
        out = tmp_path / "run"
        code = run("certify", "--construction", TAU2, "--k", "1", "2",
                   "--radius", "4", "--out", str(out))
        assert code == EXIT_REFUTED  # k=1 refutes even though k=2 certifies
        header = (out / "gap_profile.csv").read_text().splitlines()[0]
        assert header == "word,length,log_gap_1,log_gap_2,log_total_ratio"
        both = csv_columns(out / "gap_profile.csv")
        for i, k in enumerate(("1", "2")):
            single = tmp_path / f"k{k}"
            run("certify", "--construction", TAU2, "--k", k,
                "--radius", "4", "--out", str(single))
            alone = csv_columns(single / "gap_profile.csv")
            assert alone[:2] == both[:2]
            assert alone[2] == both[2 + i]
            assert alone[-1] == both[-1]

    def test_schottky_inconclusive_exit2(self, tmp_path):
        # the envelope slope is real but below an unreachable alpha_min
        out = tmp_path / "run"
        code = run("certify", "--construction", SCHOTTKY, "--radius", "4",
                   "--alpha-min", "10", "--out", str(out))
        assert code == EXIT_INCONCLUSIVE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "Inconclusive"
        assert summary["estimates"][0]["verdict"] == "Inconclusive"

    def test_gap_profile_command(self, tmp_path):
        out = tmp_path / "run"
        code = run("gap-profile", "--construction", SCHOTTKY, "--k", "1",
                   "--radius", "3", "--out", str(out))
        assert code == EXIT_OK
        assert (out / "gap_profile.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["construct"],
        ["certify", "--radius", "4"],
        ["gap-profile", "--radius", "3"],
        ["scan-positivity", "--radius", "2"],
        ["limit-set", "--radius", "3"],
        ["deform", "--radius", "2", "--steps", "3"],
        ["pingpong", "--g", "a", "--t", "b"],
    ],
    ids=lambda argv: argv[0],
)
def test_handlers_compute_and_main_puts_out(tmp_path, monkeypatch, capsys, argv):
    # a handler writes and prints nothing; main writes its reports and
    # summary.json and prints its lines
    argv = argv + ["--construction", SCHOTTKY, "--out", "run"]
    cfg = load_config(_parser().parse_args(argv))
    handler, _ = _commands()[argv[0]]
    monkeypatch.chdir(tmp_path)
    result = handler(cfg, build_representation(cfg.construction))
    assert capsys.readouterr().out == "" and not any(tmp_path.iterdir())
    assert main(argv) == result.code
    assert capsys.readouterr().out == "".join(line + "\n" for line in result.lines)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["command"] == argv[0] and summary.items() >= result.summary.items()
    # the config echo holds the construction, the seed and the settings the command reads
    assert set(summary["config"]) == {"construction", "seed", *READS[argv[0]]}
    out = tmp_path / "run"
    expected = {(out / name).resolve() for name in [*result.reports, "summary.json"]}
    assert {p.resolve() for p in out.iterdir()} == expected


class TestOtherCommands:
    def test_construct_and_from_file_round_trip(self, tmp_path):
        emitted = tmp_path / "rep.json"
        out1 = tmp_path / "c1"
        assert run("construct", "--construction", SCHOTTKY, "--emit", str(emitted),
                   "--out", str(out1)) == EXIT_OK
        out2 = tmp_path / "direct"
        out3 = tmp_path / "reloaded"
        run("certify", "--construction", SCHOTTKY, "--k", "1", "--radius", "4",
            "--out", str(out2))
        run("certify", "--construction",
            json.dumps({"kind": "from-file", "path": str(emitted)}),
            "--k", "1", "--radius", "4", "--out", str(out3))
        assert (out2 / "gap_profile.csv").read_bytes() == (out3 / "gap_profile.csv").read_bytes()

    def test_sym_power_over_from_file_base(self, tmp_path):
        emitted = tmp_path / "rep.json"
        assert run("construct", "--construction", SCHOTTKY, "--emit", str(emitted),
                   "--out", str(tmp_path / "c")) == EXIT_OK
        csvs = []
        for base in (json.loads(SCHOTTKY), {"kind": "from-file", "path": str(emitted)}):
            out = tmp_path / f"run{len(csvs)}"
            desc = json.dumps({"kind": "sym-power", "m": 3, "base": base})
            assert run("certify", "--construction", desc, "--k", "1", "--radius", "4",
                       "--out", str(out)) == EXIT_OK
            csvs.append((out / "gap_profile.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_sym_power_over_four_dimensional_base(self, tmp_path, capsys):
        desc = json.dumps({"kind": "sym-power", "m": 5, "base": json.loads(TAU2)})
        out = tmp_path / "run"
        assert run("certify", "--construction", desc, "--k", "1", "--radius", "2",
                   "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: base representation must be 2-dimensional\n"
        assert not out.exists()

    def test_scan_positivity_exit1(self, tmp_path):
        out = tmp_path / "run"
        desc = json.dumps(
            {"kind": "sym-power", "m": 5,
             "base": {"kind": "schottky", "rank": 2, "dilation": 3.0}}
        )
        code = run("scan-positivity", "--construction", desc, "--k", "3",
                   "--radius", "4", "--out", str(out))
        assert code == EXIT_REFUTED
        summary = json.loads((out / "summary.json").read_text())
        report = summary["reports"][0]
        assert report["verdict"] == "NotPositivelyProximal"
        assert report["witness"] == "abAB"
        assert report["witness_recheck"] is True
        assert (out / "positivity_k3.csv").exists()

    def test_scan_positivity_unconfirmed_witness_exit2(self, tmp_path, monkeypatch):
        # Sym^9 at k=5 is positively proximal at R=2 (AB: gap 3.3614, sign +1)
        desc = json.dumps(
            {"kind": "sym-power", "m": 9,
             "base": {"kind": "schottky", "rank": 2, "dilation": 3.0}}
        )
        args = ("scan-positivity", "--construction", desc, "--k", "5", "--radius", "2")
        assert run(*args, "--out", str(tmp_path / "true")) == EXIT_OK
        # a false negative sign planted in the class spectra of ab is found by
        # the ball scan, and the independent recheck does not confirm it
        kernel = cert.class_spectra

        def planted(letters, words):
            found = kernel(letters, words)
            row = len(words[0]) + np.flatnonzero((words[1] == [0, 2]).all(axis=1))[0]
            found.signs[row, 0] *= -1
            return found

        monkeypatch.setattr(cert, "class_spectra", planted)
        out = tmp_path / "run"
        assert run(*args, "--out", str(out)) == EXIT_INCONCLUSIVE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "Inconclusive"
        report = summary["reports"][0]
        assert report["verdict"] == "Inconclusive"
        assert report["witness"] == "ab"
        assert report["witness_recheck"] is False

    def test_limit_set_exit0(self, tmp_path):
        out = tmp_path / "run"
        code = run("limit-set", "--construction", SCHOTTKY, "--k", "1",
                   "--radius", "3", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["audit"]["transversality_failures"] == []
        assert summary["audit"]["span_rank"] == 2

    def test_limit_set_checks_k_before_the_ball(self, tmp_path, capsys):
        # the radius-12 ball is over the enumeration guard: k must fail first
        out = tmp_path / "run"
        assert run("limit-set", "--construction", SCHOTTKY, "--k", "2", "--radius", "12",
                   "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: k=2 out of range for dimension 2\n"
        assert not out.exists()

    def test_limit_set_without_proximal_element_exit2(self, tmp_path):
        out = tmp_path / "run"
        code = run("limit-set", "--construction", TAU2, "--k", "1",
                   "--radius", "3", "--out", str(out))
        assert code == EXIT_INCONCLUSIVE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "no P_1-proximal element in the radius-3 ball"
        assert not (out / "limit_samples.csv").exists()

    def test_limit_set_audit_failure_exit1(self, tmp_path):
        # no pair of planes has condition number below 1
        out = tmp_path / "run"
        code = run("limit-set", "--construction", SCHOTTKY, "--radius", "3",
                   "--cond-threshold", "1.0", "--out", str(out))
        assert code == EXIT_REFUTED
        audit = json.loads((out / "summary.json").read_text())["audit"]
        assert audit["n_pairs_checked"] == 240
        assert len(audit["transversality_failures"]) == 240

    def test_deform_sign_change_exit1(self, tmp_path):
        out = tmp_path / "run"
        code = run("deform", "--construction", SYM5, "--k", "2", "--radius", "2",
                   "--seed", "1", "--out", str(out))
        assert code == EXIT_REFUTED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"] == {"ConstantSign": 11, "SignChange": 5, "Inconclusive": 0}
        assert summary["first_non_constant"] == {"word": "B", "verdict": "SignChange", "step": 27}

    def test_deform_inconclusive_exit2(self, tmp_path):
        out = tmp_path / "run"
        code = run("deform", "--construction", SYM5, "--k", "2", "--radius", "4",
                   "--seed", "4", "--out", str(out))
        assert code == EXIT_INCONCLUSIVE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"] == {"ConstantSign": 154, "SignChange": 0, "Inconclusive": 6}
        assert summary["first_non_constant"] == {"word": "aBAb", "verdict": "Inconclusive", "step": 12}

    def test_deform_exit0(self, tmp_path):
        out = tmp_path / "run"
        code = run("deform", "--construction", SCHOTTKY, "--k", "1",
                   "--radius", "2", "--magnitude", "0.01", "--steps", "10",
                   "--out", str(out))
        assert code == EXIT_OK
        assert (out / "deform_traces.csv").exists()

    def test_deform_rejects_several_k(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("deform", "--construction", '{"kind":"schottky"}', "--k", "1", "7",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert "deform takes one k" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_limit_set_rejects_several_k(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("limit-set", "--construction", TAU2, "--k", "2", "1",
                   "--radius", "3", "--out", str(out))
        assert code == EXIT_USAGE
        assert "limit-set takes one k" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_deform_checks_k_against_dimension(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("deform", "--construction", '{"kind":"schottky"}', "--k", "2",
                   "--radius", "0", "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: k=2 out of range for dimension 2\n"
        assert not out.exists()

    def test_deform_magnitude_guard(self, tmp_path):
        code = run("deform", "--construction", SCHOTTKY, "--magnitude", "0.5",
                   "--out", str(tmp_path))
        assert code == EXIT_USAGE

    def test_deform_sign_table_guard_precedes_the_path(self, tmp_path, capsys, monkeypatch):
        def no_path(*args):
            raise AssertionError("perturb_path called")

        monkeypatch.setattr("anosov.cli.perturb_path", no_path)
        out = tmp_path / "run"
        code = run("deform", "--construction", SCHOTTKY, "--radius", "2",
                   "--steps", "100000000000", "--out", str(out))
        assert code == EXIT_USAGE
        entries = 100000000001 * 17  # the radius-2 ball of F2 has 17 words
        assert capsys.readouterr().err == (
            f"error: deform sign table of {entries} entries exceeds guard 1000000\n"
        )
        assert not out.exists()

    def test_deform_radius_zero_precedes_the_path(self, tmp_path, capsys, monkeypatch):
        # the radius-0 ball holds only the identity: no word to track, not an all-zero success
        def no_path(*args):
            raise AssertionError("perturb_path called")

        monkeypatch.setattr("anosov.cli.perturb_path", no_path)
        out = tmp_path / "run"
        code = run("deform", "--construction", SCHOTTKY, "--radius", "0", "--steps", "1",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: deform needs radius >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("steps, code", [("3", EXIT_OK), ("4", EXIT_USAGE)])
    def test_deform_sign_table_guard_counts_the_identity(self, tmp_path, monkeypatch, steps, code):
        monkeypatch.setattr("anosov.cli.BALL_GUARD", 4 * 17)
        out = tmp_path / "run"
        assert run("deform", "--construction", SCHOTTKY, "--radius", "2", "--steps", steps,
                   "--out", str(out)) == code
        assert out.exists() == (code == EXIT_OK)

    def test_pingpong_rotation_exit0(self, tmp_path):
        out = tmp_path / "run"
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a",
                   "--t-rotation", "1.5707963267948966", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 1

    @pytest.mark.parametrize("k, span", [("1", [6, 6]), ("3", [10, 20])], ids=["1", "3"])
    def test_sym5_limit_set_radius3_is_audited(self, tmp_path, k, span):
        # these runs exited 3 (computed plane is not invariant) while planes
        # came from ordered Schur forms of the formed products; 18 of the 240
        # pairs fail the 1e8 condition rule, as Sym^5 of the base planes do
        out = tmp_path / "run"
        code = run("limit-set", "--construction", SYM5, "--k", k, "--radius", "3",
                   "--out", str(out))
        assert code == EXIT_REFUTED
        audit = json.loads((out / "summary.json").read_text())["audit"]
        assert (audit["n_samples"], audit["n_pairs_checked"]) == (8, 240)
        assert len(audit["transversality_failures"]) == 18
        assert [audit["span_rank"], audit["span_dim"]] == span

    def test_pingpong_no_power_found_exit2(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("pingpong", "--construction", '{"kind":"schottky"}', "--g", "a", "--t", "b",
                   "--max-n", "2", "--out", str(out))
        assert code == EXIT_INCONCLUSIVE
        assert capsys.readouterr().out == "pingpong: no power up to 2 satisfies the criterion\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["found"] is False
        assert "n" not in summary and "delta" not in summary

    def test_per_generator_schottky_lists(self, tmp_path, capsys):
        desc = {"kind": "schottky", "rank": 3, "dilation": [3, 4, 5], "angles": [0, 1, 2],
                "trace_signs": [1, -1, 1]}
        code = run("gap-profile", "--construction", json.dumps(desc), "--radius", "2",
                   "--out", str(tmp_path / "run"))
        assert code == EXIT_OK
        assert capsys.readouterr().out == "gap-profile: 37 words, k = [1]\n"

    def test_pingpong_needs_conjugator(self, tmp_path):
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a",
                   "--out", str(tmp_path))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_pingpong_rejects_max_n_below_one(self, tmp_path, capsys, max_n):
        out = tmp_path / "run"
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a", "--t", "b",
                   "--max-n", max_n, "--out", str(out))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: max_n must be at least 1\n"
        assert captured.out == ""
        assert not out.exists()

    def test_pingpong_rejects_word_and_rotation(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a", "--t", "b",
                   "--t-rotation", "1.5", "--out", str(out))
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--t " in captured.err and "--t-rotation" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_failed_run_leaves_no_out(self, tmp_path, capsys):
        # Sym^5 at radius 4 exceeds the condition limit (ROADMAP item 1)
        out = tmp_path / "run"
        code = run("certify", "--construction", SYM5, "--k", "1", "--radius", "4",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_condition_message_prints_a_number_above_the_limit(self, tmp_path, capsys):
        # the first over-limit word's condition number is 1.00002e12: three
        # decimals would print 1.000e+12, which does not exceed 1e+12
        out = tmp_path / "run"
        code = run("certify", "--construction", '{"kind":"schottky","dilation":10.0}',
                   "--radius", "6", "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: condition number ([0-9.]+e\+[0-9]+) exceeds 1e\+12\n", err)
        assert match is not None, err
        assert float(match.group(1)) > 1e12
        assert not out.exists()

    def test_scan_positivity_several_k_match_separate_runs(self, tmp_path):
        both = tmp_path / "both"
        run("scan-positivity", "--construction", TAU2, "--k", "1", "2",
            "--radius", "4", "--out", str(both))
        for k in ("1", "2"):
            alone = tmp_path / f"k{k}"
            run("scan-positivity", "--construction", TAU2, "--k", k,
                "--radius", "4", "--out", str(alone))
            name = f"positivity_k{k}.csv"
            assert (alone / name).read_bytes() == (both / name).read_bytes()

    def test_fuchsian_positivity_scan(self, tmp_path):
        # this SL(2,R) lift is not positively proximal: some length-2 word
        # has negative trace, and the scan must find and re-verify it
        out = tmp_path / "run"
        code = run("scan-positivity", "--construction",
                   '{"kind":"fuchsian-surface","genus":2}',
                   "--k", "1", "--radius", "2", "--out", str(out))
        assert code == EXIT_REFUTED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reports"][0]["witness_recheck"] is True


class TestReproducibility:
    def test_limit_set_audit_does_not_depend_on_the_seed(self, seedless_outputs, tmp_path):
        # the gap of this plane, 1.1002, is just above the verifiable gap;
        # an audit from a random start once failed to converge at seed 7
        argv = ["limit-set", "--construction", '{"kind":"schottky","dilation":1.0489}',
                "--k", "1", "--radius", "3"]
        six, seven = (seedless_outputs(argv, seed, tmp_path / str(seed)) for seed in (6, 7))
        assert six == seven
        line = "limit-set: 8 samples, 240 pairs, 0 failures, span rank 2/2\n"
        assert six[:3] == (EXIT_OK, line, "")

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        runs = {}
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            assert run("certify", "--construction", SCHOTTKY, "--k", "1",
                       "--radius", "5", "--seed", "0", "--threads", threads,
                       "--out", str(out)) == EXIT_OK
            runs[threads] = (
                (out / "gap_profile.csv").read_bytes(),
                (out / "summary.json").read_bytes(),
            )
        assert runs["1"] == runs["3"]


def reference_deform_rows(desc, k, radius, seed, steps, magnitude=0.01):
    """deform_traces.csv rows from a word-by-word, step-by-step loop of
    evaluate -> compound_matrix -> spectrum."""
    rep = build_representation(json.loads(desc))
    path = perturb_path(rep, magnitude, seed, steps)
    rows = []
    for w in enumerate_ball(rep.presentation, radius).words():
        if len(w) == 0:
            continue
        per_step = []
        for step in path:
            image = evaluate(step, w)
            per_step.append(spectrum(compound_matrix(image, k) if k > 1 else image))
        proximal = [sp.is_proximal(1) for sp in per_step]
        signs = [sp.top_sign or 0 for sp in per_step]
        flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        if not all(proximal):
            verdict, step = "Inconclusive", proximal.index(False)
        elif flips:
            verdict, step = "SignChange", flips[0]
        else:
            verdict, step = "ConstantSign", ""
        text = "".join("+" if x > 0 else ("-" if x < 0 else "0") for x in signs)
        rows.append([str(w), verdict, str(step), text])
    return rows


#: The benchmark's stored outputs; deform's are kept per seed.
BENCHMARK_REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


class TestDeformBatchedWalk:
    @pytest.mark.parametrize("seed", range(16))
    def test_benchmark_references_at_every_seed(self, tmp_path, seed):
        # the benchmark's deform-sym5-k2-r4 experiment: its verdict counts move
        # with any change of eigenvalue arithmetic, so every stored seed is run
        stored = json.loads(BENCHMARK_REFERENCES.read_text())["deform-sym5-k2-r4"]["by_seed"]
        out = tmp_path / "run"
        code = run("deform", "--construction", SYM5, "--k", "2", "--radius", "4", "--steps", "50",
                   "--magnitude", "0.01", "--seed", str(seed), "--out", str(out))
        counts = json.loads((out / "summary.json").read_text())["counts"]
        assert {"exit": code, "counts": counts} == stored[str(seed)]

    @pytest.mark.parametrize("k", ["2", "3"])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_csv_matches_per_word_reference(self, tmp_path, k, seed):
        out = tmp_path / "run"
        run("deform", "--construction", SYM5, "--k", k, "--radius", "3", "--steps", "10",
            "--seed", seed, "--out", str(out))
        with open(out / "deform_traces.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["word", "verdict", "failing_step", "signs"]
        assert rows[1:] == reference_deform_rows(SYM5, int(k), 3, int(seed), 10)

    def test_first_failure_of_the_walk_propagates(self, tmp_path, capsys, monkeypatch):
        # failures planted at (word 5, step 30) and (word 40, step 2): the
        # walk goes path step by path step, so word 40 fails first, and its
        # error is the one raised, once
        rep = build_representation(json.loads(SYM5))
        path = perturb_path(rep, 0.01, 0, 50)
        words = [w for w in enumerate_ball(rep.presentation, 3).words() if len(w) > 0]
        planted = {}
        for w, step in ((5, 30), (40, 2)):
            image = compound_matrix(evaluate(path[step], words[w]), 2)
            planted[f"planted failure at word {w}, step {step}"] = image
        raised = []
        real_spectra = cert.spectra

        def spectra(batch, eps_gap):
            for entries, log_scale in zip(batch.entries, batch.log_scale):
                for message, image in planted.items():
                    if log_scale == image.log_scale and np.array_equal(entries, image.entries):
                        raised.append(message)
                        raise SingularInput(message)
            return real_spectra(batch, eps_gap=eps_gap)

        monkeypatch.setattr(cert, "spectra", spectra)
        out = tmp_path / "run"
        code = run("deform", "--construction", SYM5, "--k", "2", "--radius", "3",
                   "--seed", "0", "--out", str(out))
        assert code == EXIT_USAGE
        assert raised == ["planted failure at word 40, step 2"]
        assert capsys.readouterr().err == "error: planted failure at word 40, step 2\n"
        assert not (out / "summary.json").exists()


class TestPinnedOutputs:
    """Platform-stable report columns, recorded before the pair audit and the
    deform walk were batched; they must not move."""

    def test_limit_set_schottky_k1_r5(self, tmp_path):
        out = tmp_path / "run"
        assert run("limit-set", "--construction", SCHOTTKY, "--k", "1", "--radius", "5",
                   "--seed", "0", "--out", str(out)) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["audit"] == {
            "n_boundary_points": 82,
            "n_pairs_checked": 6642,
            "n_samples": 41,
            "span_dim": 2,
            "span_rank": 2,
            "spanning": True,
            "transversality_failures": [],
        }
        with open(out / "limit_samples.csv", newline="") as fh:
            columns = [row[:3] for row in csv.reader(fh)]
        with open(DATA / "limit_set_schottky_k1_r5_seed0.csv", newline="") as fh:
            assert columns == list(csv.reader(fh))

    def test_deform_sym5_k2_r3(self, tmp_path):
        out = tmp_path / "run"
        assert run("deform", "--construction", SYM5, "--k", "2", "--radius", "3",
                   "--steps", "10", "--seed", "1", "--out", str(out)) == EXIT_REFUTED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"] == {"ConstantSign": 38, "SignChange": 14, "Inconclusive": 0}
        assert summary["first_non_constant"] == {"word": "B", "verdict": "SignChange", "step": 6}
        expected = (DATA / "deform_sym5_k2_r3_steps10_seed1.csv").read_bytes()
        assert (out / "deform_traces.csv").read_bytes() == expected


def csv_module_bytes(header, rows):
    """The bytes ``csv.writer`` writes for a header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestCsvWriterOracle:
    """Every CSV the CLI writes equals ``csv.writer`` output, with ``repr`` of
    floats, rebuilt from the library's own return values."""

    def test_gap_profile_two_k(self, tmp_path):
        assert run("gap-profile", "--construction", TAU2, "--k", "1", "2", "--radius", "5",
                   "--out", str(tmp_path)) == EXIT_OK
        p1, p2 = cert.gap_profiles(build_representation(json.loads(TAU2)), [1, 2], 5)
        expected = csv_module_bytes(
            ["word", "length", "log_gap_1", "log_gap_2", "log_total_ratio"],
            [[a.word, a.length, repr(a.log_gap), repr(b.log_gap), repr(a.log_total)]
             for a, b in zip(p1.rows, p2.rows)],
        )
        assert (tmp_path / "gap_profile.csv").read_bytes() == expected

    @pytest.mark.parametrize("construction, radius", [
        (SCHOTTKY, 6),
        ('{"kind":"fuchsian-surface","genus":2}', 3),
    ], ids=["schottky-r6", "surface-g2-r3"])
    def test_gap_profile_d2(self, tmp_path, construction, radius):
        # at d = 2 log_gap_1 and log_total_ratio are the same array bits, so
        # the writer formats the column once and writes its text twice
        assert run("gap-profile", "--construction", construction, "--k", "1",
                   "--radius", str(radius), "--out", str(tmp_path)) == EXIT_OK
        p, = cert.gap_profiles(build_representation(json.loads(construction)), [1], radius)
        assert p.log_gap.tobytes() == p.log_total.tobytes()
        expected = csv_module_bytes(
            ["word", "length", "log_gap_1", "log_total_ratio"],
            [[a.word, a.length, repr(a.log_gap), repr(a.log_total)] for a in p.rows],
        )
        assert (tmp_path / "gap_profile.csv").read_bytes() == expected

    def test_positivity_k3(self, tmp_path):
        assert run("scan-positivity", "--construction", SYM5, "--k", "3", "--radius", "4",
                   "--out", str(tmp_path)) == EXIT_REFUTED
        r = cert.scan_positivity(build_representation(json.loads(SYM5)), 3, 4)
        expected = csv_module_bytes(
            ["word", "length", "proximal", "ell1_sign", "semiproximal_positive", "log_gap"],
            [[w, n, int(p), s, int(sp), repr(g)] for w, n, p, s, sp, g in zip(
                r.words, r.lengths.tolist(), r.proximal.tolist(), r.ell1_sign.tolist(),
                r.semiproximal_positive.tolist(), r.log_gap.tolist())],
        )
        assert (tmp_path / "positivity_k3.csv").read_bytes() == expected

    def test_limit_samples(self, tmp_path):
        assert run("limit-set", "--construction", TAU2, "--k", "2", "--radius", "4",
                   "--seed", "3", "--out", str(tmp_path)) == EXIT_OK
        samples = cert.limit_map_sample(build_representation(json.loads(TAU2)), 2, 4)
        expected = csv_module_bytes(
            ["word", "inverse_word", "dynamics_preserving", "log_gap"],
            [[s.word, s.inverse_word, int(s.report.is_proximal), repr(s.report.log_gap)]
             for s in samples],
        )
        assert (tmp_path / "limit_samples.csv").read_bytes() == expected

    def test_deform_traces(self, tmp_path):
        assert run("deform", "--construction", SYM5, "--k", "2", "--radius", "3",
                   "--steps", "10", "--seed", "1", "--out", str(tmp_path)) == EXIT_REFUTED
        rep = build_representation(json.loads(SYM5))
        path = perturb_path(rep, 0.01, 1, 10)
        traces = cert.track_ball_along_path(path, enumerate_ball(rep.presentation, 3), 2)
        expected = csv_module_bytes(
            ["word", "verdict", "failing_step", "signs"],
            [[t.word, t.verdict, "" if t.failing_step is None else t.failing_step,
              "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in t.signs)]
             for t in traces],
        )
        assert (tmp_path / "deform_traces.csv").read_bytes() == expected


class TestWriteCsv:
    """``_write_csv`` on hand-made columns equals ``csv.writer`` output with
    ``repr`` of floats, including columns whose chunks repeat another's."""

    @staticmethod
    def written(tmp_path, header, columns):
        _write_csv(tmp_path / "t.csv", header, columns)
        return (tmp_path / "t.csv").read_bytes()

    @staticmethod
    def oracle(header, columns):
        return csv_module_bytes(header, zip(*(
            [repr(v) if isinstance(v, float) else v for v in
             (c.tolist() if isinstance(c, np.ndarray) else c)]
            for c in columns)))

    @pytest.mark.parametrize("columns", [
        # equal as values, not as bits: their reprs differ
        [np.zeros(3), -np.zeros(3)],
        [np.array([0.0, -0.0, 1.5]), np.array([-0.0, 0.0, 1.5])],
        # unequal as values, equal as bits
        [np.full(3, np.nan), np.full(3, np.nan), np.array([np.nan, np.inf, -np.inf])],
        # same bytes, different dtypes
        [np.arange(3, dtype=np.int64), np.arange(3, dtype=np.int64).view(np.float64)],
        [np.array([True, False, True]), np.array([1, 0, 1]), np.array([1, 0, 1])],
        [["a", "bB", ""], np.array([1, 2, 3]), ["", 4, ""], np.array([0.1, 0.2, 0.3])],
        # integer chunks go through a table of their distinct values
        [np.array([-3, 0, 5, -3, -128, 127], dtype=np.int8)],
        # a table over the value range would need 2**62 entries
        [np.array([0, 2**62, 0, 2**62], dtype=np.int64)],
        [np.array([0, 7, 255, 7], dtype=np.uint8), np.array([2**64 - 1, 0, 1, 0], dtype=np.uint64)],
        [np.array([False, True, True, False])],
        # the second chunk holds none of the first chunk's values
        [np.append(np.arange(SPELL_ROWS) % 5, -9).astype(np.int16)],
    ], ids=["zeros", "signed-zeros", "nan", "dtypes", "bool-int", "lists", "int8",
            "int64-wide", "uint", "bool", "int-chunks"])
    def test_matches_oracle(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        assert self.written(tmp_path, header, columns) == self.oracle(header, columns)

    def test_columns_equal_in_first_chunk_only(self, tmp_path):
        n = SPELL_ROWS + 1
        x = np.linspace(0.0, 1.0, n)
        y = x.copy()
        y[-1] = -2.5
        columns = [np.arange(n), x, y, x]
        text = self.written(tmp_path, ["i", "x", "y", "x2"], columns)
        assert text == self.oracle(["i", "x", "y", "x2"], columns)
        assert text.endswith(f"{n - 1},1.0,-2.5,1.0\n".encode())

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            _write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(3), [1, 2]])
        assert not (tmp_path / "t.csv").exists()


def test_gap_csv_memory_is_bounded(tmp_path):
    # the radius-10 Schottky profile writes a 5.7 MiB file; formatting it
    # whole, or converting whole columns with tolist(), peaks far above 4 MiB
    cfg = ExperimentConfig(construction=json.loads(SCHOTTKY), radius=10)
    result = cmd_certify(cfg, build_representation(cfg.construction), profile_only=True)
    tracemalloc.start()
    try:
        write_run(tmp_path, result.summary, result.reports)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "gap_profile.csv").stat().st_size > 5 * 2**20
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "construction, radius, bound_mib",
    [({"kind": "fuchsian-surface", "genus": 2}, 6, 6), ({"kind": "schottky"}, 10, 5.25)],
    ids=["genus2-r6", "free2-r10"],
)
def test_certify_memory_is_bounded(tmp_path, construction, radius, bound_mib):
    # genus 2 at R=6 has 155,577 words and F2 at R=10 118,097.  Held as a
    # whole-ball image stack and (n, d) singular-value table, with int64
    # parent, letter and length arrays, the peaks read 12.5 and 9.6 MiB.
    # The images are walked in chunks and the word column is a view that
    # spells one chunk at a time: 5.34 and 5.06 MiB.  A walk that gathers a
    # whole chunk's parent and letter images at once, not a block's, reads
    # 7.56 and 6.87 MiB.
    cfg = ExperimentConfig(construction=construction, radius=radius)
    rep = build_representation(cfg.construction)
    tracemalloc.start()
    try:
        result = cmd_certify(cfg, rep, profile_only=False)
        write_run(tmp_path, result.summary, result.reports)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


@pytest.mark.parametrize("radius, bound_mib", [(6, 8), (5, 2.5)], ids=["genus2-r6", "genus2-r5"])
def test_scan_memory_is_bounded(tmp_path, radius, bound_mib):
    # genus 2 at R=6 has 155,577 words.  With whole-ball (n, d) moduli and
    # int64 sign tables, an int64 copy of each bool column for the writer and
    # the 75,536 semi-proximality failures spelled into the report, the peaks
    # read 21.44 MiB at R=6 and 3.08 MiB at R=5; reading the class tables in
    # row slices and keeping only the report columns, 6.18 and 1.67 MiB.  A
    # first run at R=2 imports what the witness recheck loads, which is no
    # part of the scan's memory.
    cfg = ExperimentConfig(construction={"kind": "fuchsian-surface", "genus": 2}, radius=radius)
    rep = build_representation(cfg.construction)
    warm = cmd_scan_positivity(ExperimentConfig(construction=cfg.construction, radius=2), rep)
    write_run(tmp_path / "warm", warm.summary, warm.reports)
    tracemalloc.start()
    try:
        result = cmd_scan_positivity(cfg, rep)
        write_run(tmp_path, result.summary, result.reports)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_one_class_pass_and_one_walk_per_step(tmp_path, monkeypatch):
    # scan-positivity and limit-set run the class pass once each; deform
    # enumerates its ball once, for the guard and the walk, and walks the
    # ball's images once per path step, and only then
    from anosov import cli

    passes, walks, paths, balls = [], [], [], []
    real_classes, real_walk, real_path = cert.cyclic_classes, cert.ball_image_chunks, cli.perturb_path
    real_ball = cli.enumerate_ball
    for module in (cli, cert):
        monkeypatch.setattr(module, "enumerate_ball",
                            lambda *a: balls.append(a) or real_ball(*a))
    monkeypatch.setattr(cert, "cyclic_classes", lambda ball: passes.append(ball) or real_classes(ball))
    monkeypatch.setattr(cert, "ball_image_chunks",
                        lambda rep, ball: walks.append(rep) or real_walk(rep, ball))
    monkeypatch.setattr(cli, "perturb_path", lambda *a: paths.append(real_path(*a)) or paths[-1])
    surface = '{"kind":"fuchsian-surface","genus":2}'
    assert run("scan-positivity", "--construction", SYM5, "--k", "1", "2", "3", "--radius", "4",
               "--out", str(tmp_path / "scan")) == EXIT_REFUTED  # abAB at k = 3
    assert run("limit-set", "--construction", surface, "--k", "1", "--radius", "3",
               "--out", str(tmp_path / "limits")) == EXIT_OK
    assert len(passes) == 2 and walks == []
    balls.clear()
    assert run("deform", "--construction", SYM5, "--k", "2", "--radius", "3", "--steps", "10",
               "--seed", "3", "--out", str(tmp_path / "deform")) == EXIT_REFUTED
    assert len(passes) == 2 and len(paths) == 1 and len(paths[0]) == 11
    assert walks == paths[0]
    assert len(balls) == 1


#: Runs commands in one fresh interpreter and prints, per command, its exit
#: code and whether ``scipy.linalg`` and SciPy's LAPACK extension module were
#: imported by then.
SCIPY_PROBE = """
import json, sys, tempfile
from anosov import cli
out = tempfile.mkdtemp()
for argv in json.loads(sys.argv[1]):
    code = cli.main([*argv, "--out", out])
    print(json.dumps([argv[0], json.loads(argv[2])["kind"], code,
                      "scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules]))
"""


def probe_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_no_command_imports_scipy_linalg():
    kinds = [
        {"kind": "schottky"},
        {"kind": "fuchsian-surface", "genus": 2},
        {"kind": "tau2-schottky", "twists": [0.3, 0.7]},
        {"kind": "sym-power", "m": 3},
        {"kind": "direct-sum", "summands": [{"kind": "schottky"}, {"kind": "sym-power", "m": 3}]},
    ]
    commands = [["construct"], ["gap-profile", "--radius", "4"], ["certify", "--radius", "4"]]
    runs = [[c[0], "--construction", json.dumps(d), *c[1:]] for d in kinds for c in commands]
    # a scan, limit-set and pingpong read class spectra and take no Schur form ...
    runs += [
        ["scan-positivity", "--construction", '{"kind":"sym-power","m":3}', "--k", "3", "--radius", "2"],
        ["limit-set", "--construction", SCHOTTKY, "--k", "1", "--radius", "3"],
        ["limit-set", "--construction", SYM5, "--k", "3", "--radius", "3"],
        ["pingpong", "--construction", SCHOTTKY, "--g", "a", "--t", "b"],
    ]
    no_schur = len(runs)
    # ... until a negative witness is rechecked; these take Schur forms
    runs += [
        ["scan-positivity", "--construction", '{"kind":"sym-power","m":5}', "--k", "3", "--radius", "4"],
        ["deform", "--construction", SYM5, "--k", "2", "--radius", "2", "--steps", "3"],
    ]
    result = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)],
                            env=probe_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines() if line.startswith("[")]
    assert len(rows) == len(runs)
    for i, (command, kind, code, linalg_loaded, flapack_loaded) in enumerate(rows):
        assert code in (EXIT_OK, EXIT_REFUTED), (command, kind, code)
        assert not linalg_loaded, (command, kind)
        # SciPy's LAPACK extension arrives with the first Schur form
        assert flapack_loaded == (i >= no_schur), (command, kind)
    assert rows[no_schur][:3] == ["scan-positivity", "sym-power", EXIT_REFUTED]


#: Runs a Schur-taking command with ``scipy.linalg`` imported after (order 1)
#: or before (order 2) it, then prints whether the ``gees`` handle is the one
#: ``get_lapack_funcs`` returns, and the columns of ``spectra`` of one fixed
#: batch of 15 x 15 matrices.
SCHUR_ORDER_PROBE = """
import json, sys, tempfile
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from anosov import ScaledBatch, cli, linalg
code = cli.main(["deform", "--construction", '{"kind":"schottky"}', "--radius", "2", "--steps", "3",
                 "--out", tempfile.mkdtemp()])
import scipy.linalg
gees = scipy.linalg.get_lapack_funcs(("gees",), (np.empty((1, 1)),))[0]
batch = ScaledBatch(np.random.default_rng(7).standard_normal((4, 15, 15)), np.zeros(4))
columns = [c.tolist() for c in linalg.spectra(batch)]
print(json.dumps([code, linalg._GEES is gees, columns]))
"""


def test_schur_handle_is_scipys_in_either_import_order():
    outputs = {}
    for order in ("after", "before"):
        result = subprocess.run([sys.executable, "-c", SCHUR_ORDER_PROBE, order],
                                env=probe_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        code, same_handle, columns = json.loads(result.stdout.splitlines()[-1])
        assert (code, same_handle) == (EXIT_OK, True), order
        outputs[order] = columns
    assert outputs["after"] == outputs["before"]


@pytest.mark.parametrize("m", [68, 100])
def test_sym_power_past_int64_binomials_is_constructed(tmp_path, m):
    # C(68, 34) > 2**63 once ended in a TypeError traceback, exit 1
    desc = json.dumps({"kind": "sym-power", "m": m})
    assert run("construct", "--construction", desc, "--out", str(tmp_path)) == EXIT_OK
    assert json.loads((tmp_path / "representation.json").read_text())["dimension"] == m + 1


def test_sym_power_past_double_binomials_exits_3(tmp_path, capsys):
    desc = '{"kind":"sym-power","m":1030}'
    assert run("construct", "--construction", desc, "--out", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err == "error: symmetric power degree 1030 has binomials beyond double range\n"
