import json

import pytest

from anosov.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    build_representation,
    main,
)

SCHOTTKY = '{"kind":"schottky","rank":2,"dilation":3.0}'
TAU2 = '{"kind":"tau2-schottky","rank":2,"dilation":3.0,"twists":[0.3,0.7]}'
SYM5 = '{"kind":"sym-power","m":5,"base":{"kind":"schottky","rank":2,"dilation":3.0}}'


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

    def test_limit_set_exit0(self, tmp_path):
        out = tmp_path / "run"
        code = run("limit-set", "--construction", SCHOTTKY, "--k", "1",
                   "--radius", "3", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["audit"]["transversality_failures"] == []
        assert summary["audit"]["span_rank"] == 2

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

    def test_deform_magnitude_guard(self, tmp_path):
        code = run("deform", "--construction", SCHOTTKY, "--magnitude", "0.5",
                   "--out", str(tmp_path))
        assert code == EXIT_USAGE

    def test_pingpong_rotation_exit0(self, tmp_path):
        out = tmp_path / "run"
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a",
                   "--t-rotation", "1.5707963267948966", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 1

    def test_pingpong_needs_conjugator(self, tmp_path):
        code = run("pingpong", "--construction", SCHOTTKY, "--g", "a",
                   "--out", str(tmp_path))
        assert code == EXIT_USAGE

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
