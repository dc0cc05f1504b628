from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cctsim import checks, cli, gates
from cctsim.hilbert import Operator

ROOT_HALF = 1.0 / math.sqrt(2.0)

GENERAL_DOC = {
    "mode": "general",
    "alpha": [0.6, 0.0],
    "beta": [0.0, 0.8],
    "gamma": [0.8, 0.0],
    "delta": [0.0, 0.6],
    "angles": {"phi": 0.25, "theta": 1.25, "varphi": 2.5},
    "M": 6,
    "N": 7,
    "K": 8,
    "trials": 64,
    "seed": 5,
}

# The example config of the README.
README_DOC = {
    "mode": "general",
    "alpha": [0.6, 0.0],
    "beta": [0.0, 0.8],
    "gamma": [0.7071067811865476, 0.0],
    "delta": [0.7071067811865476, 0.0],
    "angles": {"phi": 0.3, "theta": 1.5707963267948966, "varphi": 0.7},
    "M": 25,
    "N": 25,
    "K": 25,
    "trials": 100000,
    "seed": 7,
}

# SHA-256 of `cctsim run` standard output for README_DOC and bell_doc():
# same-input reports are byte-identical, fidelities and zero signs included.
RUN_DIGESTS = {
    "general": "7702923ca6fd93a95570c96cfb467e1277e1b66775ba83f4c6d12ad01be76e93",
    "bell": "c8d257ada4b511d0e5680bffc03f4596fa6412ac83554ed824785d6d911b29cb",
}

# The same for README_DOC and bell_doc() at EDGE_TRIPLE, where v1, tilde_v1
# and the Euler product hold exact zeros whose sign depends on how their
# entries are multiplied out, and the reports print exact zeros too.  Recorded
# while rotation_z . rotation_y was still a matmul, so a zero-sign change
# inside the gates that reaches a report shows up here.
EDGE_TRIPLE = {"phi": -math.pi, "theta": 0.0, "varphi": 2 * math.pi}
EDGE_RUN_DIGESTS = {
    "general": "cad35abbb330f813ac872f3879eaf3732d777666c948b1f063ba97c4aa08ad11",
    "bell": "85c64dc228ccdc000f4c9b21751700466ac52053ef9b2724a0d9d605850333af",
}

# Schema-stable golden rows: column order and 17-significant-digit floats.
GOLDEN_SWEEP = """\
axis,value,lambda2,lambda3,lambda4,lambda5,zeta0,zeta1
diag,5,0.67354905475526805,0.72127311781217252,0.69651496110899691,0.29672068821864589,0.66162409788893528,0.89959686944899975
diag,10,0.70995804083018454,0.72263377240724735,0.7375724873848486,0.32652907091201311,0.62159606384113752,0.87644011429659796
"""

# SHA-256 of `cctsim sweep --format csv --values 1,2,5,12,40` standard output
# along each axis, for GENERAL_DOC and bell_doc().  The values reach the
# single-cycle quarter turns (N = 1 makes sin^2(theta_N) exactly 1).
SWEEP_VALUES = "1,2,5,12,40"
SWEEP_DIGESTS = {
    ("general", "M"): "549840f132de0195eb20bdc31d182f4d2a827f8dc866ea30f4a8f2031121b57b",
    ("general", "N"): "41bc62011a6165d2af8fc958f4866ac5a5fb628ef49af90274cbd23a72befa16",
    ("general", "K"): "360fd903353c80f55ac32778bfb47bf817dbe75dd5e75b5aa67954b87bddffcf",
    ("general", "diag"): "ffd182fd063f35646b3511302ef600806d522de44750c68820164c92452bf014",
    ("bell", "M"): "f9bee139b956cbb17413ccdf418822df5ea431525dfabd8210604ee8c2966b52",
    ("bell", "N"): "90ef290c1b9b0a95c8b4babcac17a995f8e009cf5f7ce7d052c6553acdcfe8f4",
    ("bell", "K"): "20cf82ccea033491b4032bf0403cb6a12004cfd79780661548828ad2ba0a5b78",
    ("bell", "diag"): "db4d1df5bc8922c90931481f607e028cfbfc89c872185f4a6a2f0b98fe205a8a",
}


REPO_ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bell_doc() -> dict:
    return {
        "mode": "bell",
        "ell": 1,
        "sign": -1,
        "c0": [0.6, 0.0],
        "c1": [0.0, 0.8],
        "angles": {"phi": 0.4, "theta": 2.2, "varphi": 1.1},
        "M": 10,
        "N": 10,
        "K": 10,
        "seed": 3,
    }


# Passes the input constructors' 1e-12 norm check with a squared modulus above 1.
NEAR_UNIT = [math.sqrt(1.0 + 8e-13), 0.0]
NEAR_UNIT_DOCS = {
    "general": dict(GENERAL_DOC, alpha=NEAR_UNIT, beta=[0.0, 0.0], gamma=[0.0, 0.0], delta=NEAR_UNIT),
    "bell-0": dict(bell_doc(), ell=0, sign=1, c0=[0.0, 0.0], c1=NEAR_UNIT,
                   angles={"phi": 0.3, "theta": 0.0, "varphi": 0.7}),
    "bell-1": dict(bell_doc(), ell=1, sign=1, c0=NEAR_UNIT, c1=[0.0, 0.0],
                   angles={"phi": 0.3, "theta": 0.0, "varphi": 0.7}),
}


class TestConfigLoading:
    def test_valid_document(self, tmp_path):
        config = cli.load_config(write_config(tmp_path, GENERAL_DOC))
        assert config.mode == "general"
        assert config.cycles.M == 6
        assert config.seed == 5

    def test_unnormalized_amplitudes_are_diagnosed_by_field(self, tmp_path):
        doc = dict(GENERAL_DOC, alpha=[0.9, 0.0], beta=[0.6, 0.0])
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(write_config(tmp_path, doc))
        assert any("alpha/beta" in message for message in err.value.errors)

    def test_multiple_errors_all_reported(self, tmp_path):
        doc = dict(GENERAL_DOC, mode="both", M=0, alpha="nope")
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(write_config(tmp_path, doc))
        joined = "\n".join(err.value.errors)
        assert "mode" in joined and "M" in joined and "alpha" in joined

    @pytest.mark.parametrize("field", ["ell", "sign"])
    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0, -1.0])
    def test_bell_class_and_sign_must_be_integers(self, tmp_path, capsys, field, value):
        # JSON true is a Python bool, and 1.0 == 1: neither is an integer label.
        doc = dict(bell_doc(), **{field: value})
        code = cli.main(["run", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "expected 0 or 1" if field == "ell" else "expected 1 or -1"
        assert f"{field}: {expected}, got {value!r}" in captured.err

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config("/nonexistent/config.json")

    def test_overrides_apply(self, tmp_path):
        config = cli.load_config(write_config(tmp_path, GENERAL_DOC), {"seed": 99, "trials": 7})
        assert config.seed == 99
        assert config.trials == 7

    def test_every_non_finite_number_is_named_in_document_order(self, tmp_path):
        # NaN and infinities inside dicts in lists in dicts, beside bools,
        # ints and strings, and one passed as an override: each is named by
        # its full path, in the order the document lists them.
        doc = dict(
            GENERAL_DOC,
            note={
                "runs": [{"ok": True, "scale": math.nan, "n": 3}, "inf", [1.5, {"": [-math.inf]}], {"0": math.inf}],
                "flag": False,
                "tail": {"deep": [[0, math.nan]]},
            },
            last=-math.inf,
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(write_config(tmp_path, doc), {"seed": math.nan, "trials": None})
        assert [message for message in err.value.errors if "NaN and Infinity" in message] == [
            f"{path}: NaN and Infinity are not allowed"
            for path in ("seed", "note.runs[0].scale", "note.runs[2][1].[0]", "note.runs[3].0", "note.tail.deep[0][1]", "last")
        ]

    @pytest.mark.parametrize("key,value", [("phi", math.nan), ("varphi", -math.inf)])
    def test_a_non_finite_angle_is_named_once(self, tmp_path, capsys, key, value):
        doc = dict(GENERAL_DOC, angles=dict(GENERAL_DOC["angles"], **{key: value}))
        path = write_config(tmp_path, doc)
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path)
        assert err.value.errors == [f"angles.{key}: NaN and Infinity are not allowed"]
        assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: angles.{key}: NaN and Infinity are not allowed\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"mode": "general",}',
             "config: invalid JSON at line 1, column 20: Expecting property name enclosed in double quotes"),
            ("[1, 2]", "config: top level must be a JSON object"),
            (json.dumps(dict(GENERAL_DOC, M="ten")), "M: expected an integer, got 'ten'"),
            (json.dumps(dict(GENERAL_DOC, angles=[0, 1, 2])),
             "angles: expected an object with phi/theta/varphi, got [0, 1, 2]"),
            (json.dumps(dict(GENERAL_DOC, angles=dict(GENERAL_DOC["angles"], phi="x"))),
             "angles.phi: expected a finite number, got 'x'"),
            (json.dumps(dict(GENERAL_DOC, format="xml")), "format: expected 'json' or 'csv', got 'xml'"),
            (json.dumps(dict(GENERAL_DOC, output=5)), "output: expected a path string, got 5"),
            # json reads 1 followed by 400 zeros as an int, which float() cannot hold.
            (json.dumps(dict(GENERAL_DOC, angles=dict(GENERAL_DOC["angles"], phi=10**400))),
             "angles.phi: number too large for a float"),
            (json.dumps(dict(GENERAL_DOC, alpha=[10**400, 0.0])), "alpha: number too large for a float"),
        ],
        ids=["invalid-json", "top-level-array", "M-string", "angles-list", "angle-string", "format-xml", "output-number",
             "angle-too-large", "amplitude-too-large"],
    )
    def test_each_malformed_field_gets_one_exact_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestReadmeExample:
    def test_examples_json_is_the_readme_config(self):
        text = (REPO_ROOT / "examples.json").read_text(encoding="utf-8")
        assert f"```json\n{text}```" in (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert json.loads(text) == README_DOC


class TestNearUnitConfigs:
    @pytest.mark.parametrize("name", sorted(NEAR_UNIT_DOCS))
    def test_every_command_accepts_what_the_loader_accepts(self, tmp_path, capsys, name):
        config = write_config(tmp_path, NEAR_UNIT_DOCS[name])
        for argv in (["run"], ["sweep", "--axis", "diag", "--values", "1,5"], ["montecarlo", "--trials", "500"]):
            assert cli.main([*argv, "--config", config]) == cli.EXIT_OK, (name, argv, capsys.readouterr().err)


class TestRunCommand:
    def test_general_run_passes(self, tmp_path, capsys):
        code = cli.main(["run", "--config", write_config(tmp_path, GENERAL_DOC)])
        assert code == cli.EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"config", "results", "seed", "version"}
        results = document["results"]
        assert results["passed"] is True
        assert results["outcome"] in (0, 1)
        assert results["outcome_probability"] == pytest.approx(0.5, abs=1e-12)
        assert len(results["output_amplitudes"]) == 4

    @pytest.mark.parametrize("mode", ["general", "bell"])
    def test_report_bytes_are_pinned(self, tmp_path, capsys, mode):
        doc = README_DOC if mode == "general" else bell_doc()
        assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == RUN_DIGESTS[mode]

    @pytest.mark.parametrize("mode", ["general", "bell"])
    def test_report_bytes_are_pinned_at_an_edge_triple(self, tmp_path, capsys, mode):
        doc = dict(README_DOC if mode == "general" else bell_doc(), angles=EDGE_TRIPLE)
        assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == EDGE_RUN_DIGESTS[mode]

    def test_teleportation_flags_separable_output(self, tmp_path, capsys):
        doc = dict(GENERAL_DOC, gamma=[0.0, 0.0], delta=[1.0, 0.0])
        code = cli.main(["run", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["separable_output"] is True
        assert results["schmidt_rank"] == 1

    def test_bell_run_passes(self, tmp_path, capsys):
        code = cli.main(["run", "--config", write_config(tmp_path, bell_doc())])
        assert code == cli.EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["outcome"] is None
        assert results["passed"] is True

    def test_corrupted_config_exits_2_with_diagnostic(self, tmp_path, capsys):
        doc = dict(GENERAL_DOC, alpha=[0.9, 0.0], beta=[0.6, 0.0])
        code = cli.main(["run", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_CONFIG_ERROR
        assert "alpha/beta" in capsys.readouterr().err

    def test_nan_amplitude_exits_2_without_output(self, tmp_path, capsys):
        doc = dict(GENERAL_DOC, alpha=[math.nan, 0.0])
        code = cli.main(["run", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha/beta" in captured.err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_anywhere_is_named(self, tmp_path, capsys, value):
        # Reports echo the document, so even a field the loader never reads
        # must be finite for the output to be valid JSON.
        doc = dict(GENERAL_DOC, note={"scale": [1.0, value]})
        code = cli.main(["run", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "note.scale[1]: NaN and Infinity are not allowed" in captured.err

    def test_a_config_sweep_key_is_echoed_and_ignored(self, tmp_path, capsys):
        # Only --axis/--values request a sweep, so the loader reads no "sweep"
        # key: a malformed one is echoed like any other unread field.
        doc = dict(GENERAL_DOC, sweep={"axis": "Q", "values": "many"})
        assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["config"]["sweep"] == {"axis": "Q", "values": "many"}

    def test_verification_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        from cctsim.protocol import VerificationReport

        def failing(transcript, inp):
            return VerificationReport((("psi1", 0.5),), 0.5, False)

        monkeypatch.setattr(cli.protocol, "verify_general", failing)
        code = cli.main(["run", "--config", write_config(tmp_path, GENERAL_DOC)])
        assert code == cli.EXIT_VERIFY_FAILED

    def test_output_file_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "nested" / "report.json"
        code = cli.main(["run", "--config", write_config(tmp_path, GENERAL_DOC), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["results"]["passed"] is True
        assert capsys.readouterr().out == ""
        assert not list(out.parent.glob(".*"))  # no temp litter

    def test_atomic_write_uses_a_private_temp_file_and_cleans_up(self, tmp_path, monkeypatch):
        out = tmp_path / "report.csv"
        out.write_text("old\n", encoding="utf-8")
        seen = []
        real_replace = cli.os.replace

        def replace(src, dst):
            # The temp file sits beside the target, readable by its owner only.
            seen.append((Path(src).parent, Path(src).name, Path(src).stat().st_mode & 0o777, Path(src).read_text()))
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        cli._atomic_write(out, "new\n")
        assert seen == [(tmp_path, seen[0][1], 0o600, "new\n")]
        assert seen[0][1].startswith(".report.csv.")
        assert out.read_text() == "new\n"

        def failing(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(cli.os, "replace", failing)
        with pytest.raises(OSError, match="rename failed"):
            cli._atomic_write(out, "lost\n")
        assert out.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

    def test_atomic_write_finishes_short_writes(self, tmp_path, monkeypatch):
        # os.write may take fewer bytes than it is given; the rest follows,
        # so the file holds exactly the UTF-8 bytes of the text.
        real_write = cli.os.write
        monkeypatch.setattr(cli.os, "write", lambda fd, data: real_write(fd, data[:3]))
        out = tmp_path / "report.csv"
        text = "axis,value,\u03b6\nM,5,0.5 \u2014 \u00bd\n"
        cli._atomic_write(out, text)
        assert out.read_bytes() == text.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

    def test_atomic_write_failure_keeps_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "report.csv"
        out.write_text("old\n", encoding="utf-8")

        def failing(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "write", failing)
        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(out, "new\n")
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

    def test_atomic_write_creates_missing_parents(self, tmp_path):
        out = tmp_path / "a" / "b" / "report.csv"
        cli._atomic_write(out, "x\n")
        assert out.read_text() == "x\n"
        assert sorted(p.name for p in out.parent.iterdir()) == ["report.csv"]

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["parent", "grandparent"])
    def test_atomic_write_under_a_regular_file_raises(self, tmp_path, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(OSError):
            cli._atomic_write(blocker.joinpath(*below, "report.csv"), "x\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert blocker.read_text() == ""


class TestSweepCommand:
    def test_golden_csv(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, GENERAL_DOC), "--axis", "diag", "--values", "5,10", "--format", "csv"]
        )
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == GOLDEN_SWEEP

    @pytest.mark.parametrize("mode,axis", sorted(SWEEP_DIGESTS))
    def test_sweep_bytes_are_pinned(self, tmp_path, capsys, mode, axis):
        doc = GENERAL_DOC if mode == "general" else bell_doc()
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, doc), "--axis", axis, "--values", SWEEP_VALUES, "--format", "csv"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 + len(SWEEP_VALUES.split(","))
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[mode, axis]

    def test_golden_cells_match_a_50_digit_oracle(self):
        # Each golden cell lies within 2 ulp of the printed products taken at
        # 50 digits.  The stage weights are formed in double precision as the
        # protocol forms them, so the bound measures the products alone.
        mp = pytest.importorskip("mpmath")
        a2, b2, g2, d2 = (abs(complex(*GENERAL_DOC[key])) ** 2 for key in ("alpha", "beta", "gamma", "delta"))
        half = GENERAL_DOC["angles"]["theta"] / 2.0
        c2, s2 = math.cos(half) ** 2, math.sin(half) ** 2
        for line in GOLDEN_SWEEP.splitlines()[1:]:
            _, value, *cells = line.split(",")
            d = int(value)
            with mp.workdps(50):
                step = mp.pi / (2 * d)

                def chained(w_out, w_in, cycles):
                    product = (1 - mp.mpf(w_out) * mp.sin(step) ** 2) ** cycles
                    for i in range(1, cycles + 1):
                        product *= (1 - mp.mpf(w_in) * mp.sin(i * step) ** 2 * mp.sin(step) ** 2) ** d
                    return product

                w3 = mp.mpf(d2 * s2)
                lam2 = chained(a2 * d2, b2 * d2, d)
                lam3 = ((1 - w3 * mp.cos(step) ** 2 * mp.sin(step) ** 2) ** d * (1 - w3 * mp.sin(step) ** 2)) ** d
                lam4 = chained(d2 * a2 * c2 + d2 * b2 * s2, d2 * b2 * c2 + d2 * a2 * s2, d)
                lam5 = chained(a2 * g2, b2 * g2, 2 * d)
                references = (lam2, lam3, lam4, lam5, 1 - lam2 * lam3 * lam4, 1 - lam2 * lam3 * lam4 * lam5)
                for column, cell, reference in zip(cli.SWEEP_COLUMNS_GENERAL[2:], cells, references):
                    ulps = abs(mp.mpf(cell) - reference) / math.ulp(float(reference))
                    assert ulps <= 2, (value, column, cell, float(ulps))

    def test_bell_columns(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, bell_doc()), "--axis", "M", "--values", "5", "--format", "csv"]
        )
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "axis,value,lambda6,lambda7,zeta"
        assert len(lines) == 2  # header plus the single data row

    def test_diag_sweep_zeta_strictly_decreasing(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, GENERAL_DOC), "--axis", "diag", "--values", "5,10,20,40", "--format", "csv"]
        )
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        zeta0 = [float(row[6]) for row in rows]
        zeta1 = [float(row[7]) for row in rows]
        assert all(b < a for a, b in zip(zeta0, zeta0[1:]))
        assert all(b < a for a, b in zip(zeta1, zeta1[1:]))

    def test_m_sweep_lambda2_nondecreasing_below_crossover(self, tmp_path, capsys):
        # The outer-cycle gain dominates while M stays below
        # sqrt((w_out/w_in) * 2N); for these weights that is M ~ 5.
        doc = dict(GENERAL_DOC, N=25)
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, doc), "--axis", "M", "--values", "2,3,4,5", "--format", "csv"]
        )
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        lambda2 = [float(row[2]) for row in rows]
        assert all(b >= a for a, b in zip(lambda2, lambda2[1:]))

    def test_json_format(self, tmp_path, capsys):
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, GENERAL_DOC), "--axis", "K", "--values", "4,8", "--format", "json"]
        )
        assert code == cli.EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["results"]["columns"] == list(cli.SWEEP_COLUMNS_GENERAL)
        assert len(document["results"]["rows"]) == 2

    @pytest.mark.parametrize("axis", ["M", "N", "K", "diag"])
    @pytest.mark.parametrize("mode", ["general", "bell"])
    def test_rows_follow_the_values_order(self, tmp_path, capsys, mode, axis):
        # One sweep shares its closed-form passes between rows; its data
        # lines are those of one single-value sweep per value, in the order
        # --values gives, duplicates included.
        config = write_config(tmp_path, GENERAL_DOC if mode == "general" else bell_doc())

        def data_lines(values: str) -> list[str]:
            assert cli.main(["sweep", "--config", config, "--axis", axis, "--values", values, "--format", "csv"]) == cli.EXIT_OK
            return capsys.readouterr().out.splitlines()[1:]

        for values in ("2400,5,5,600", "5,5", "1,2400,1"):
            assert data_lines(values) == [line for value in values.split(",") for line in data_lines(value)]

    def test_missing_axis_is_config_error(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", write_config(tmp_path, GENERAL_DOC), "--values", "4,8"])
        assert code == cli.EXIT_CONFIG_ERROR
        assert "axis" in capsys.readouterr().err

    def test_bad_values_rejected(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", write_config(tmp_path, GENERAL_DOC), "--axis", "M", "--values", "3,zero"])
        assert code == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--axis", "M"], "values: a nonempty list of cycle counts is required"),
            (["--axis", "M", "--values", "0,3"], "values: expected positive integers, got '0,3'"),
        ],
        ids=["no-values", "zero-value"],
    )
    def test_sweep_flag_errors_are_exact(self, tmp_path, capsys, flags, message):
        assert cli.main(["sweep", "--config", write_config(tmp_path, GENERAL_DOC), *flags]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_a_config_sweep_key_does_not_drive_a_sweep(self, tmp_path, capsys):
        doc = dict(GENERAL_DOC, sweep={"axis": "M", "values": [5, 10]})
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: axis: expected one of ('M', 'N', 'K', 'diag'), got None\n"
            "config error: values: a nonempty list of cycle counts is required\n"
        )

    def test_parser_reused_after_a_usage_error(self, tmp_path, capsys):
        # The parser is built once per process; a rejected command line must
        # leave nothing behind for the next call.
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--config", "unused.json", "--axis", "Q"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        code = cli.main(
            ["sweep", "--config", write_config(tmp_path, GENERAL_DOC), "--axis", "diag", "--values", "5,10", "--format", "csv"]
        )
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == GOLDEN_SWEEP


# Command lines a subcommand's parser takes whole, without the full parser.
DISPATCHED_ARGV = [
    ["run", "--config", "c.json"],
    ["run", "--config", "c.json", "--seed", "-3", "--trials", "5", "--out", "o.json", "--format", "csv"],
    ["sweep", "--config", "c.json", "--axis", "M", "--values", "5,10"],
    ["sweep", "--config=c.json", "--axis=diag", "--values=5"],
    ["sweep", "--conf", "c.json", "--ax", "K"],
    ["montecarlo", "--config", "a.json", "--config", "b.json"],
    ["verify"],
    ["verify", "--sabotage", "q1", "--out", "v.json"],
]

# Command lines that end in help, the version or a usage error, by case.
USAGE_ARGV = {
    "help": ["-h"],
    "version": ["--version"],
    "empty": [],
    "unknown-command": ["bogus"],
    "option-before-command": ["--config", "c.json", "run"],
    "unknown-option": ["sweep", "--config", "c.json", "--axis", "M", "--values", "5", "--bogus"],
    "top-level-option-after-command": ["run", "--config", "c.json", "--version"],
    "bad-choice": ["sweep", "--config", "c.json", "--axis", "Q"],
    "missing-required-flag": ["run"],
    "missing-flag-value": ["verify", "--out"],
    "trailing-extras": ["run", "--config", "c.json", "extra"],
    "double-dash": ["sweep", "--config", "c.json", "--"],
    "subcommand-help": ["montecarlo", "--config", "c.json", "-h"],
}


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCHED_ARGV, ids=" ".join)
    def test_the_subparser_gives_the_full_parsers_namespace(self, argv):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", USAGE_ARGV.values(), ids=USAGE_ARGV.keys())
    def test_usage_errors_match_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as dispatched:
            cli.main(argv)
        seen = capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        assert (dispatched.value.code, seen.out, seen.err) == (full.value.code, *capsys.readouterr())


class TestMonteCarloCommand:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, dict(GENERAL_DOC, trials=2_000, M=8, N=8, K=8))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["montecarlo", "--config", config, "--out", str(first)]) == cli.EXIT_OK
        assert cli.main(["montecarlo", "--config", config, "--out", str(second)]) == cli.EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_report_schema(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(GENERAL_DOC, trials=500, M=4, N=4, K=4))
        assert cli.main(["montecarlo", "--config", config]) == cli.EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"config", "results", "seed", "version"}
        report = document["results"]["report"]
        assert set(report) == {
            "trials",
            "successes",
            "absorbed",
            "discarded",
            "abort_rate_estimate",
            "standard_error",
            "conditional_fidelity",
            "seed",
        }
        assert document["results"]["analytic"].keys() == {"zeta0", "zeta1"}
        assert report["seed"] == document["seed"] == 5

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(GENERAL_DOC, trials=0))
        assert cli.main(["montecarlo", "--config", config]) == cli.EXIT_CONFIG_ERROR
        assert "trials" in capsys.readouterr().err

    def test_seed_override_threads_through(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(GENERAL_DOC, trials=200, M=3, N=3, K=3))
        assert cli.main(["montecarlo", "--config", config, "--seed", "77"]) == cli.EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["seed"] == 77
        assert document["results"]["report"]["seed"] == 77


COMMAND_ARGV = {
    "run": ["run"],
    "sweep": ["sweep", "--axis", "M", "--values", "5"],
    "montecarlo": ["montecarlo", "--trials", "100"],
    "verify": ["verify"],
}


class TestOneErrorPath:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_out_onto_an_existing_directory_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # Refused before any work: one named line and exit 2, no traceback,
        # no temp file left beside the target, the directory as it was.
        def forbidden(*args, **kwargs):
            raise AssertionError("work done for an output that cannot be written")

        for module, name in ((checks, "run_all"), (cli.zeno, "simulate_cct"), (cli.zeno, "stage_rows"),
                             (cli.protocol, "run_general")):
            monkeypatch.setattr(module, name, forbidden)
        config = write_config(tmp_path, GENERAL_DOC)
        target = tmp_path / "taken"
        target.mkdir()
        (target / "kept.txt").write_text("kept\n", encoding="utf-8")
        flags = [] if command == "verify" else ["--config", config]
        assert cli.main([*COMMAND_ARGV[command], *flags, "--out", str(target)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        # The OS reason alone, so the line does not name the random temp file.
        assert captured.err == f"config error: out: cannot write {target}: Is a directory\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
        assert [(p.name, p.read_text(encoding="utf-8")) for p in target.iterdir()] == [("kept.txt", "kept\n")]

    def test_the_rename_onto_a_directory_fails_with_the_same_line(self, tmp_path):
        # The early refusal only repeats the line of the write it spares.
        with pytest.raises(cli.ConfigError) as excinfo:
            cli._emit("report\n", str(tmp_path))
        assert excinfo.value.errors == [f"out: cannot write {tmp_path}: Is a directory"]
        assert list(tmp_path.iterdir()) == []

    def test_out_under_a_regular_file_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "report.json"
        assert cli.main(["run", "--config", write_config(tmp_path, GENERAL_DOC), "--out", str(target)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: out: cannot write {target}: Not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    @pytest.mark.parametrize("command", ["run", "sweep", "montecarlo"])
    @pytest.mark.parametrize("mode", ["general", "bell"])
    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_a_negative_seed_is_a_config_error(self, tmp_path, capsys, command, mode, source):
        doc = GENERAL_DOC if mode == "general" else bell_doc()
        doc = dict(doc, seed=-3) if source == "config" else doc
        flags = ["--seed", "-3"] if source == "flag" else []
        argv = [*COMMAND_ARGV[command], "--config", write_config(tmp_path, doc), *flags]
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: seed: must be >= 0, got -3\n"


# Every gates constructor the gates check's table calls.  v11 to v14 and
# euler_unitary are among them because the table calls them itself: v1 and
# tilde_v1 are built without them.
TABLE_GATES = (
    "rotation_y", "rotation_z", "euler_unitary", "u_m", "controlled_unitary", "v11", "v12", "v13", "v14", "v1", "q1",
    "q2", "v2", "q3", "toffoli", "hadamard_on_qutrit", "cnot", "cnot_qutrit", "tilde_v1", "tilde_q1", "tilde_q2",
)


class TestVerifyCommand:
    @pytest.fixture
    def fast_checks(self, monkeypatch):
        fast = tuple(entry for entry in checks.CHECKS if entry[0] in ("gates", "probability-pins"))
        monkeypatch.setattr(checks, "CHECKS", fast)
        return fast

    def test_clean_subset_exits_zero(self, fast_checks, capsys, tmp_path):
        out = tmp_path / "verify.json"
        code = cli.main(["verify", "--out", str(out)])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "gates" in text and "PASS" in text and "result: OK" in text
        # Per-check timing is part of the output contract.
        assert "s  " in text
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert {c["name"] for c in payload["checks"]} == {"gates", "probability-pins"}

    def test_expected_failure_prints_xfail_and_exits_zero(self, capsys, monkeypatch, tmp_path):
        halving = tuple(entry for entry in checks.CHECKS if entry[0] == "asymptotics-halving")
        monkeypatch.setattr(checks, "CHECKS", halving)
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("asymptotics-halving  XFAIL  ")
        assert lines[1] == "result: OK"
        (entry,) = json.loads(out.read_text())["checks"]
        assert sorted(entry) == ["detail", "duration", "expected_failure", "name", "passed"]
        assert (entry["name"], entry["passed"], entry["expected_failure"]) == ("asymptotics-halving", False, True)

    def test_a_check_over_its_budget_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "CHECKS", (("instant", lambda: "fine", 0.0, False),))
        assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
        line, result = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"instant  FAIL  +\d+\.\d{3}s  runtime \d+\.\d{2}s exceeded the 0s budget \(fine\)", line)
        assert result == "result: FAILED"

    def test_importing_the_cli_leaves_the_checklist_unloaded(self):
        # run, sweep and montecarlo never use the checklist; only verify
        # imports it.  A fresh interpreter, since this one has loaded it.
        code = "import sys, cctsim.cli; print('cctsim.checks' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_sabotaged_gate_is_caught(self, fast_checks, capsys):
        code = cli.main(["verify", "--sabotage", "q1"])
        assert code == cli.EXIT_VERIFY_FAILED
        text = capsys.readouterr().out
        assert "FAIL" in text
        assert "q1" in text  # the failed invariant names the broken gate

    def test_unitary_fault_in_a_factor_of_v1_is_caught(self, fast_checks, capsys, monkeypatch):
        # Negating v11's C=1 rows keeps it unitary, and runs never call v11:
        # only the comparison of v1 with its factor product sees the fault.
        healthy = gates.v11

        def negated_rows(angles):
            entries = healthy(angles).entries.copy()
            entries[[1, 4]] *= -1
            return Operator((2, 3), entries)

        monkeypatch.setattr(gates, "v11", negated_rows)
        assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED
        assert "v1 differs from v14 . v13 . v12 . v11" in capsys.readouterr().out

    def test_table_reaches_every_sabotage_target(self):
        reached = set()
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in list(vars(gates).items()):
                if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) != gates.__name__:
                    continue

                def recorded(*args, _attr=attr, _value=value, **kwargs):
                    reached.add(_attr)
                    return _value(*args, **kwargs)

                mp.setattr(gates, attr, recorded)
            for _, factory in checks.GATE_CONSTRUCTORS:
                factory()
        assert reached == set(TABLE_GATES)

    @pytest.mark.parametrize("gate", TABLE_GATES)
    def test_every_table_gate_sabotaged_fails_verify(self, fast_checks, capsys, gate):
        assert cli.main(["verify", "--sabotage", gate]) == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_sabotage_target_rejected(self, fast_checks, capsys):
        code = cli.main(["verify", "--sabotage", "not_a_gate"])
        assert code == cli.EXIT_CONFIG_ERROR
        # Only a public function of gates is a constructor: sabotage would
        # crash on a class or a private helper, and an import corrupts no gate.
        for name in ("EulerAngles", "_ry", "lru_cache"):
            assert cli.main(["verify", "--sabotage", name]) == cli.EXIT_CONFIG_ERROR
            assert f"unknown gate constructor {name!r}" in capsys.readouterr().err
