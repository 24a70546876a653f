import hashlib
import json
from fractions import Fraction as F
from itertools import islice

import pytest

from csneighborly import block_rows, build, save_hadamard, sylvester
from csneighborly.cli import main
from literal import parse_ext, parse_vertices_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_ext_d4(self, capsys, tmp_path):
        path = tmp_path / "v.ext"
        code, _, _ = run(capsys, "generate", "--d", "4", "--out", str(path))
        assert code == 0
        text = path.read_text()
        points = parse_ext(text)
        assert len(points) == 16
        con = build(sylvester(2))
        expected = [con.vertex_representative(i, 1) for i in range(8)]
        expected += [con.vertex_representative(i, -1) for i in range(8)]
        assert points == expected

    def test_ext_header_shape(self, capsys):
        code, out, _ = run(capsys, "generate", "--d", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "V-representation"
        assert lines[1] == "begin"
        assert lines[2].split() == ["16", "5", "rational"]
        assert lines[-1] == "end"
        assert all(ln.split()[0] == "1" for ln in lines[3:-1])

    def test_json_d16(self, capsys):
        code, out, _ = run(capsys, "generate", "--d", "16", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["d"] == 16 and doc["k"] == 2
        assert len(doc["points"]) == 64
        points = parse_vertices_json(out)
        assert points[0] == tuple(F(1) if j == 0 else F(0) for j in range(16))

    def test_round_trip_exact(self, capsys):
        for fmt, parse in (("ext", parse_ext), ("json", parse_vertices_json)):
            code, out, _ = run(capsys, "generate", "--d", "8", "--format", fmt)
            assert code == 0
            con = build(sylvester(3))
            expected = [con.vertex_representative(i, 1) for i in range(16)]
            expected += [con.vertex_representative(i, -1) for i in range(16)]
            assert parse(out) == expected

    @pytest.mark.parametrize("parse,text", [
        (parse_ext, ""),
        (parse_ext, "V-representation"),
        (parse_ext, "V-representation\nbegin"),
        (parse_ext, "V-representation\nbegin\n 1 3\nend"),
        (parse_ext, "V-representation\nbegin\n x 3 rational\n 1 0 0\nend"),
        (parse_ext, "V-representation\nbegin\n 1 3 rational\n 1 0 0"),
        (parse_ext, "V-representation\nbegin\n 1 3 rational\n 1 0 1/0\nend"),
        (parse_ext, "V-representation\nbegin\n 1 3 rational\n 2 0 0\nend"),
        (parse_vertices_json, "[]"),
        (parse_vertices_json, "not json"),
        (parse_vertices_json, '{"schema": 1, "kind": "vertices"}'),
        (parse_vertices_json, '{"schema": 1, "kind": "vertices", "points": 5}'),
        (parse_vertices_json,
         '{"schema": 1, "kind": "vertices", "points": [[0.5]]}'),
        (parse_vertices_json,
         '{"schema": 1, "kind": "vertices", "points": [["1/0"]]}'),
    ])
    def test_malformed_vertex_text_raises_value_error(self, parse, text):
        # the readers the tests use on generate's output refuse what is not
        # a whole, exact vertex file
        with pytest.raises(ValueError, match=r"\w"):
            parse(text)

    def test_no_hadamard_source(self, capsys):
        code, _, err = run(capsys, "generate", "--d", "6")
        assert code == 2
        assert "no Hadamard source for order 6" in err

    def test_import_source(self, capsys, tmp_path):
        path = tmp_path / "h4.txt"
        save_hadamard(sylvester(2), path)
        code, out, _ = run(capsys, "generate", "--hadamard", str(path))
        assert code == 0
        assert len(parse_ext(out)) == 16

    def test_small_d_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "--d", "2")
        assert code == 2


class TestCertify:
    def test_d4_report(self, capsys):
        code, out, _ = run(capsys, "certify", "--d", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["alpha"] == "1/2" and doc["beta"] == "1/2"
        assert doc["counts"]["condition_a"]
        assert doc["counts"]["condition_b"]
        assert doc["counts"]["condition_c"]
        assert doc["counts"]["rows_checked"] == 16
        assert doc["counts"]["max_abs_entry"] == "1/2"
        assert doc["failures"] == []

    def test_deterministic_modulo_duration(self, capsys):
        code1, out1, _ = run(capsys, "certify", "--d", "8")
        code2, out2, _ = run(capsys, "certify", "--d", "8")
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("duration_seconds")
        d2.pop("duration_seconds")
        assert d1 == d2

    def test_emit_certificates(self, capsys, tmp_path):
        path = tmp_path / "certs.json"
        code, _, _ = run(
            capsys, "certify", "--d", "4", "--emit-certificates", str(path),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "certificates"
        assert len(doc["items"]) == 16
        item = doc["items"][0]
        assert item["eps"] == "0"
        assert sum(F(t["mu"]) for t in item["mu_terms"]) == F(1, 2)

    def test_emit_certificates_dumps_checked_rows(self, capsys, tmp_path):
        path = tmp_path / "certs.json"
        code, out, _ = run(
            capsys, "certify", "--d", "16", "--sample", "5", "--seed", "1",
            "--emit-certificates", str(path),
        )
        assert code == 0
        blocks = json.loads(out)["counts"]["blocks"]
        items = json.loads(path.read_text())["items"]
        for block in blocks:
            rows = [it["row"] for it in items if it["block"] == block["l"]]
            # the sweep checks the first and the last row, then the draws
            assert len(rows) == block["rows_checked"] == 7
            assert rows[:2] == [0, block["rows_total"] - 1]

    def test_emit_certificates_targets_are_the_named_rows(self, capsys,
                                                           tmp_path):
        # each item's (block, row) names the row that block_rows streams at
        # that index, and its target is (1, e | f) of that row
        path = tmp_path / "certs.json"
        code, _, _ = run(
            capsys, "certify", "--d", "16", "--sample", "5", "--seed", "3",
            "--emit-certificates", str(path),
        )
        assert code == 0
        items = json.loads(path.read_text())["items"]
        assert len(items) == 21
        for item in items:
            e, f = next(islice(block_rows(16, 2, item["block"]), item["row"],
                               None))
            assert [F(v) for v in item["target"]] == [1, *e.dense(),
                                                      *f.dense()]

    def test_sampled_run(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--d", "16", "--sample", "50", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "sample"
        assert all(b["sampled"] for b in doc["counts"]["blocks"])


class TestVerify:
    def test_faces_d4(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "4", "--check", "faces",
            "--mode", "exhaustive",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["checked"] == 16
        assert doc["counts"]["failed"] == 0
        assert doc["min_margin"] == "1/2"

    def test_dominant_d4(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "4", "--check", "dominant")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["dominant_found"] == 0
        assert doc["min_margin"] == "1/6"

    def test_containment_d4(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "4", "--check", "containment")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["vertices_checked"] == 16
        assert doc["min_margin"] == "1/6"

    def test_beyond_guarantee_is_reporting_only(self, capsys):
        # k = 3 exceeds the guaranteed neighborliness at d = 4, so even a
        # failed sweep exits 0
        code, out, _ = run(
            capsys, "verify", "--d", "4", "--check", "containment", "--k", "3"
        )
        assert code == 0

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NEIGHBORLY_MAX_ROWS", "4")
        code, _, err = run(capsys, "verify", "--d", "4", "--check", "faces")
        assert code == 2
        assert "cap" in err

    def test_explicit_cap_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NEIGHBORLY_MAX_ROWS", "4")
        code, out, _ = run(
            capsys, "verify", "--d", "4", "--check", "faces", "--cap", "100"
        )
        assert code == 0
        assert json.loads(out)["command"].endswith("--cap 100")

    def test_sample_seed_in_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "16", "--check", "containment",
            "--mode", "sample", "--samples", "5", "--seed", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 9
        assert doc["counts"]["vertices_checked"] == 15

    @pytest.mark.parametrize("check,k", [
        ("faces", 2), ("dominant", 2), ("containment", 5),
    ])
    def test_report_k_is_the_swept_k(self, capsys, check, k):
        # the construction's k is 1 at d = 4; the report gives the size or
        # weight that was swept
        code, out, _ = run(capsys, "verify", "--d", "4", "--check", check,
                           "--k", str(k))
        assert code == 0
        assert json.loads(out)["k"] == k

    def test_sampled_sweep_skips_empty_blocks(self, capsys):
        # k = 5 > d = 4 empties blocks l = 0 (k - l > d) and l = 5 (l > d),
        # as exhaustive mode does; l = 1..4 get 3 vertices each
        code, out, _ = run(
            capsys, "verify", "--d", "4", "--check", "containment", "--k", "5",
            "--mode", "sample", "--samples", "3",
        )
        assert code == 0
        assert json.loads(out)["counts"]["vertices_checked"] == 4 * 3


class TestHadamard:
    def test_order_profile(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--order", "4", "--profile")
        assert code == 0
        assert "valid Hadamard matrix of order 4" in out
        assert "row 0: +1 entries 4, sum 4" in out
        assert "regular: no" in out

    def test_import(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        save_hadamard(sylvester(1), path)
        code, out, _ = run(capsys, "hadamard", "--import", str(path))
        assert code == 0
        assert "order 2" in out

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "hadamard", "--order", "6")
        assert code == 2

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 1 1\n1 1 1\n1 1 1\n")
        code, _, err = run(capsys, "hadamard", "--import", str(path))
        assert code == 2
        assert "columns" in err

    def test_missing_source(self, capsys):
        code, _, _ = run(capsys, "hadamard")
        assert code == 2


class TestReportReproducibility:
    def test_embedded_command_reproduces_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "8", "--check", "dominant",
            "--mode", "exhaustive",
        )
        assert code == 0
        doc = json.loads(out)
        argv = doc["command"].split()[1:]  # drop the program name
        code2, out2, _ = run(capsys, *argv)
        assert code2 == 0
        doc2 = json.loads(out2)
        doc.pop("duration_seconds")
        doc2.pop("duration_seconds")
        assert doc == doc2

    @pytest.mark.parametrize("argv, env_cap, rerun_env_cap", [
        (["certify", "--d", "4", "--cap", "4"], None, None),
        (["certify", "--d", "4"], "4", None),
        (["certify", "--d", "4", "--cap", "1000000"], "4", "4"),
        (["certify", "--d", "8", "--sample", "20", "--seed", "3"], None, None),
        (["certify", "--d", "8", "--alpha", "1/3"], None, None),
        (["verify", "--d", "4", "--check", "dominant", "--cap", "100"], None,
         None),
        (["verify", "--d", "4", "--check", "faces"], "100", None),
        (["verify", "--d", "4", "--check", "faces", "--cap", "1000000"], "4",
         "4"),
        (["verify", "--d", "4", "--check", "containment", "--k", "2"], None,
         None),
        (["verify", "--d", "16", "--check", "containment", "--mode",
          "sample", "--samples", "3", "--seed", "9"], None, None),
        (["verify", "--d", "8", "--check", "faces", "--alpha", "1/3"], None,
         None),
    ])
    def test_embedded_command_keeps_each_flag(self, capsys, monkeypatch,
                                              argv, env_cap, rerun_env_cap):
        if env_cap is not None:
            monkeypatch.setenv("NEIGHBORLY_MAX_ROWS", env_cap)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        if rerun_env_cap is None:
            monkeypatch.delenv("NEIGHBORLY_MAX_ROWS", raising=False)
        else:
            monkeypatch.setenv("NEIGHBORLY_MAX_ROWS", rerun_env_cap)
        code2, out2, _ = run(capsys, *doc["command"].split()[1:])
        assert code2 == 0
        doc2 = json.loads(out2)
        doc.pop("duration_seconds")
        doc2.pop("duration_seconds")
        assert doc == doc2

    def test_jobs_flag_does_not_change_report(self, capsys):
        sampled = ("--d", "16", "--mode", "sample", "--samples", "12",
                   "--seed", "5")
        for argv in (("--d", "8", "--check", "faces"),
                     ("--check", "containment") + sampled,
                     ("--check", "dominant") + sampled):
            code1, out1, _ = run(capsys, "verify", *argv)
            code2, out2, _ = run(capsys, "verify", *argv, "--jobs", "2")
            assert code1 == code2 == 0
            d1, d2 = json.loads(out1), json.loads(out2)
            d1.pop("duration_seconds")
            d2.pop("duration_seconds")
            assert d1 == d2


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["verify", "--d", "4"]) == 2  # --check is required

    def test_zero_k_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--d", "4", "--check", "faces",
                           "--k", "0")
        assert code == 2
        assert "--k: must be at least 1" in err

    def test_zero_sample_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "--d", "4", "--sample", "0")
        assert code == 2
        assert "--sample: must be at least 1" in err

    @pytest.mark.parametrize("check", ["faces", "containment"])
    def test_zero_samples_exits_2(self, capsys, check):
        code, _, err = run(capsys, "verify", "--d", "4", "--check", check,
                           "--mode", "sample", "--samples", "0")
        assert code == 2
        assert "--samples: must be at least 1" in err

    @pytest.mark.parametrize("command", [
        ["certify", "--d", "4"], ["verify", "--d", "4", "--check", "faces"],
    ])
    def test_zero_jobs_exits_2(self, capsys, command):
        code, _, err = run(capsys, *command, "--jobs", "0")
        assert code == 2
        assert "--jobs: must be at least 1" in err

    @pytest.mark.parametrize("command", [
        ["certify", "--d", "4"], ["verify", "--d", "4", "--check", "faces"],
    ])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_2(self, capsys, command, cap):
        code, _, err = run(capsys, *command, "--cap", cap)
        assert code == 2
        assert "--cap: must be at least 1" in err

    @pytest.mark.parametrize("command", [
        ["certify", "--d", "4"], ["verify", "--d", "4", "--check", "faces"],
    ])
    @pytest.mark.parametrize("env", ["abc", "0", "-5", "1.5", ""])
    def test_bad_cap_variable_exits_2(self, capsys, monkeypatch, command,
                                      env):
        monkeypatch.setenv("NEIGHBORLY_MAX_ROWS", env)
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert "NEIGHBORLY_MAX_ROWS must be an integer of at least 1" in err
        assert repr(env) in err

    def test_cap_flag_wins_over_bad_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("NEIGHBORLY_MAX_ROWS", "abc")
        code, out, _ = run(capsys, "certify", "--d", "4", "--cap", "100")
        assert code == 0
        assert json.loads(out)["command"].endswith("--cap 100")

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", [
        ["generate", "--d", "8"], ["certify", "--d", "8"],
        ["verify", "--d", "8", "--check", "faces"],
    ])
    @pytest.mark.parametrize("alpha,message", [
        ("0", "alpha must be positive"),
        ("1/0", "--alpha 1/0: zero denominator"),
    ])
    def test_degenerate_alpha_exits_2(self, capsys, command, alpha, message):
        code, out, err = run(capsys, *command, "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("command", [
        ["generate", "--d", "8"], ["certify", "--d", "8"],
        ["verify", "--d", "8", "--check", "faces"],
    ])
    @pytest.mark.parametrize("alpha", [["--alpha", "-1/3"], ["--alpha=-1/3"]])
    def test_negative_alpha_exits_2(self, capsys, command, alpha):
        # as two tokens too, the value reaches the parameter check
        code, out, err = run(capsys, *command, *alpha)
        assert code == 2
        assert out == ""
        assert "alpha must be positive, got -1/3" in err

    @pytest.mark.parametrize("command", [
        ["certify", "--hadamard"],
        ["verify", "--check", "faces", "--hadamard"],
        ["hadamard", "--import"],
    ])
    def test_missing_input_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "absent.txt"
        code, out, err = run(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("command", [
        ["generate", "--d", "8", "--hadamard"],
        ["certify", "--d", "8", "--hadamard"],
        ["verify", "--check", "faces", "--d", "8", "--hadamard"],
        ["hadamard", "--order", "8", "--import"],
    ])
    def test_conflicting_sources_exit_2(self, capsys, tmp_path, command):
        # a file of another order, so that neither source may win silently
        path = tmp_path / "h4.txt"
        save_hadamard(sylvester(2), path)
        code, out, err = run(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("command", [
        ["generate"], ["certify"], ["verify", "--check", "faces"],
    ])
    def test_missing_source_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        assert "is required" in err

    def test_verification_failure_exits_3(self, capsys, monkeypatch):
        # the shipped constructions always pass, so force a failing sweep to
        # pin the exit-code contract
        from csneighborly import cli
        from csneighborly.oracle import NeighborlinessReport

        def failing_sweep(con, **kwargs):
            return NeighborlinessReport(
                d=con.d, k=kwargs["k"], mode=kwargs["mode"], enumerated=1,
                checked=2, passed=0, failed=2, min_margin=None,
                failures=((((0, 1),), "not-face", None),),
            )

        monkeypatch.setattr(cli.oracle, "verify_k_neighborly", failing_sweep)
        monkeypatch.setattr(
            cli, "_report_doc",
            lambda **kw: {"schema": 1, "stub": True},
        )
        code = main(["verify", "--d", "4", "--check", "faces",
                     "--out", "/dev/null"])
        assert code == 3
        # beyond the guaranteed k the same failure is reporting-only
        code = main(["verify", "--d", "4", "--check", "faces", "--k", "2",
                     "--out", "/dev/null"])
        assert code == 0

    def test_certify_failure_exits_3(self, capsys, monkeypatch, tmp_path):
        from csneighborly import certificate, cli

        real = certificate.verify_conditions

        def failing(con, **kwargs):
            rep = real(con, **kwargs)
            bad_block = rep.blocks[0].__class__(
                **{**rep.blocks[0].__dict__, "equation_ok": False,
                   "first_failure": (0, "matrix equation failed")},
            )
            return rep.__class__(
                **{**{f: getattr(rep, f) for f in (
                    "d", "k", "alpha", "beta", "mode", "seed", "sample_rows",
                    "structural")},
                   "blocks": (bad_block,) + rep.blocks[1:]},
            )

        monkeypatch.setattr(cli.certificate, "verify_conditions", failing)
        code = main(["certify", "--d", "4", "--out", str(tmp_path / "r.json")])
        assert code == 3


class TestPinnedReports:
    """Reports pinned byte for byte: the sha256 of the report with its
    duration_seconds line dropped (grep -v duration_seconds | sha256sum)."""

    @pytest.mark.parametrize("argv, digest", [
        ("verify --d 16 --check faces --mode sample --samples 40 --seed 3",
         "a5253b8798e9b053b86956f5859cfd1e4c6a9429d651a2bd9fb05556106d6d85"),
        ("verify --d 16 --check dominant --mode sample --samples 25 --seed 4",
         "57ac5efd27aa9912c3119bffff1baad8bd2fe4983231b554e6ddf8ec0249a312"),
        ("verify --d 16 --check containment --mode sample --samples 30 "
         "--seed 5",
         "58f287004e372f81f7d2bd4ebbafd96aced5caf35a8054437ab6f0e5e8240f87"),
        ("verify --d 8 --check dominant",
         "1fc9a8f1e6bf4588dbf1e5b9297eecbaa89c2cf1398ca2d780e2ab786c96cb5c"),
        ("verify --d 8 --check containment",
         "c4476a3ef2fb2ec815d21638619a625ff347155f347048086bb21458efc4e856"),
        ("certify --d 8 --sample 50 --seed 9",
         "9798c6fea299efccd3e0a1faf3a3042dc31d8c3c4ee8a623b6ccecf08a9e85b7"),
        # alpha = p/q with p != 1, where the LPs' bounds carry p
        ("verify --d 32 --alpha 3/16 --check faces --mode sample --samples 20 "
         "--seed 6",
         "54d9f1e41eb2c55fb8053924e8bdce586dffe39f60a29210c91ae6dc1711b19c"),
        ("verify --d 32 --alpha 3/16 --check containment --mode sample "
         "--samples 10 --seed 7",
         "867276fb2114d5a16bd387eb73617362c296b5bfa64dd858f2594c1183baad82"),
        ("verify --d 8 --alpha 2/5 --check dominant",
         "1b85b8942b6ffe2e8a6cf6e11d6852e6981a6e279ce6f815050a4f91499b5a20"),
        ("generate --d 8 --alpha 2/5 --format json",
         "f049f89399507db12920ba13739ec9e8fc277c9d758f91fcfbdbb6c1a3daf744"),
        # the face LPs at d = 64 (20 samples) and every face LP at d = 16,
        # pinned under Bland's rule before pricing by the largest cost
        ("verify --d 64 --check faces --mode sample --samples 20 --seed 1",
         "f1368262d8a776569c328f05430dae4e9a4ca1f6516e21a3db4b138d4ec75026"),
        ("verify --d 16 --check faces",
         "8d062508be9eced4b5ca813d84cf80cd4567345847cdc640c87639e70481fd46"),
        # containment sweeps pinned with every membership LP solved to its
        # optimum: many ties at the minimum, the minimum in the last block,
        # and a failing sweep (sigma* < 2)
        ("verify --d 16 --check containment",
         "4cddce70c16afeed540eeebd22314eea600fb90bee3f95cc3f3af9832aa720e5"),
        ("verify --d 32 --check containment --mode sample --samples 34 "
         "--seed 1",
         "489114daef99020cd3c950fd4ffacc366747bd9093fc37a8290d86bb192cdd0f"),
        ("verify --d 8 --check containment --k 3",
         "1d7896dec8a27dba1931a1957c2b25d263a0a803bfcc131f3d1c2f77f95c7ca1"),
    ])
    def test_report_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("NEIGHBORLY_MAX_ROWS", raising=False)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        kept = "".join(line for line in out.splitlines(keepends=True)
                       if "duration_seconds" not in line)
        assert hashlib.sha256(kept.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        ("certify --d 16 --sample 5 --seed 1",
         "1e34189dc89be4b246d26af693b7ad6ee529a664fcf047735b93a6f5964fd664"),
        ("certify --d 8 --alpha 2/5",
         "ece7c97ea43bfa32e914336c5dc016dc49638bb2b68c1ade3ad3a501ffdf46ac"),
    ])
    def test_certificate_dump_digest(self, capsys, monkeypatch, tmp_path,
                                     argv, digest):
        # the whole --emit-certificates file, which has no timing field
        monkeypatch.delenv("NEIGHBORLY_MAX_ROWS", raising=False)
        path = tmp_path / "certificates.json"
        code, _, _ = run(capsys, *argv.split(),
                         "--emit-certificates", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
