import csv
import dataclasses
import io
import json
import re
import shlex
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
    build_representation,
    cmd_certify,
    load_config,
    main,
    write_run,
)

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
        ],
        ids=["genus-str", "dilation-str", "dilation-digit-str", "rank-bool", "m-str",
             "base-int", "summands-str", "path-int"],
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
            ({"kind": "sym-power", "base": {"kind": "schottky", "rnak": 2}}, "schottky", "rnak"),
            ({"kind": "direct-sum", "summands": [{"kind": "schottky"},
                                                 {"kind": "fuchsian-surface", "rank": 2}]},
             "fuchsian-surface", "rank"),
        ],
        ids=["top-level", "field-of-tau2", "nested-base", "nested-summand"],
    )
    def test_unread_construction_key(self, tmp_path, capsys, desc, kind, unread):
        out = tmp_path / "run"
        code = run("gap-profile", "--construction", json.dumps(desc), "--radius", "2",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: construction kind {kind!r} does not read {unread}\n"
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

    def test_scan_positivity_unconfirmed_witness_exit2(self, tmp_path):
        # Sym^9 at k=5: the ball scan finds a negative top eigenvalue at AB
        # that the independent recheck does not confirm, so no refutation
        out = tmp_path / "run"
        desc = json.dumps(
            {"kind": "sym-power", "m": 9,
             "base": {"kind": "schottky", "rank": 2, "dilation": 3.0}}
        )
        code = run("scan-positivity", "--construction", desc, "--k", "5",
                   "--radius", "2", "--out", str(out))
        assert code == EXIT_INCONCLUSIVE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "Inconclusive"
        report = summary["reports"][0]
        assert report["verdict"] == "Inconclusive"
        assert report["witness"] == "AB"
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

    def test_pingpong_inverse_without_gap_exit3(self, tmp_path, capsys, monkeypatch):
        # the base element is biproximal but its inverse's own report is not
        # proximal: a numerical failure, not a traceback
        real = cert.proximality_report
        calls = []

        def inverse_loses_its_gap(g, k, **kwargs):
            calls.append(g)
            report = real(g, k, **kwargs)
            if len(calls) == 2:
                report = dataclasses.replace(report, is_proximal=False, is_biproximal=False,
                                             attracting_plane=None, repelling_plane=None)
            return report

        monkeypatch.setattr(cert, "proximality_report", inverse_loses_its_gap)
        out = tmp_path / "run"
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a",
                   "--t-rotation", "1.5707963", "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: inverse of the base element is not proximal at k = 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1", "3"])
    def test_sym5_limit_set_plane_failure_exit3(self, tmp_path, capsys, k):
        out = tmp_path / "run"
        code = run("limit-set", "--construction", SYM5, "--k", k, "--radius", "3",
                   "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: computed plane is not invariant\n"
        assert not out.exists()

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


class TestDeformBatchedWalk:
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

    def test_error_of_first_failing_word_propagates(self, tmp_path, capsys, monkeypatch):
        # failures planted at (word 5, step 30) and (word 40, step 2): the
        # step-major walk meets word 40 first, but the word-major error wins
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
        assert raised == ["planted failure at word 40, step 2", "planted failure at word 5, step 30"]
        assert capsys.readouterr().err == "error: planted failure at word 5, step 30\n"
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
        samples = cert.limit_map_sample(build_representation(json.loads(TAU2)), 2, 4, seed=3)
        expected = csv_module_bytes(
            ["word", "inverse_word", "dynamics_preserving", "log_gap"],
            [[s.word, s.inverse_word, int(s.dynamics_preserving), repr(s.log_gap)]
             for s in samples],
        )
        assert (tmp_path / "limit_samples.csv").read_bytes() == expected

    def test_deform_traces(self, tmp_path):
        assert run("deform", "--construction", SYM5, "--k", "2", "--radius", "3",
                   "--steps", "10", "--seed", "1", "--out", str(tmp_path)) == EXIT_REFUTED
        path = perturb_path(build_representation(json.loads(SYM5)), 0.01, 1, 10)
        traces = cert.track_ball_along_path(path, 3, 2)
        expected = csv_module_bytes(
            ["word", "verdict", "failing_step", "signs"],
            [[t.word, t.verdict, "" if t.failing_step is None else t.failing_step,
              "".join("+" if s > 0 else ("-" if s < 0 else "0") for s in t.signs)]
             for t in traces],
        )
        assert (tmp_path / "deform_traces.csv").read_bytes() == expected


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
