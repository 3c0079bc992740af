"""The profiling surface of the tool suite.

Covers the ``repro.tools.profile`` CLI (report, ``--check`` coverage
gate, ``--json``, the ``meta`` provenance block), the ``--profile``
pass-through on ``defend``, and ``observe --format prometheus``.
"""

import json

import pytest

from repro.obs.prof import PROFILE_SCHEMA
from repro.tools import defend, observe, profile


@pytest.fixture(scope="module")
def profile_report(tmp_path_factory):
    """One short golden profile run shared by the CLI assertions."""
    path = tmp_path_factory.mktemp("profile") / "profile.json"
    code = profile.main(["--duration", "5", "--check", "--out", str(path)])
    assert code == 0, "--check must pass: coverage below the floor"
    return json.loads(path.read_text(encoding="utf-8"))


class TestProfileCli:
    def test_report_schema_and_coverage(self, profile_report):
        assert profile_report["schema"] == PROFILE_SCHEMA
        assert (profile_report["coverage"]["fraction_of_wall"]
                >= profile.COVERAGE_FLOOR)
        assert profile_report["context"]["scenario"].startswith("golden")

    def test_device_path_layers_named(self, profile_report):
        top = profile_report["device_path"]["top_layers"]
        assert len(top) >= 1
        layer_names = {row["layer"] for row in profile_report["layers"]}
        assert set(top) <= layer_names
        # The hot loop must be visible at the expected taxonomy names.
        assert "ssd.submit" in layer_names
        assert "detector.observe" in layer_names

    def test_overhead_self_quantified(self, profile_report):
        """The overhead is measured: armed wall vs an unarmed replay."""
        overhead = profile_report["overhead"]
        assert overhead["unarmed_wall_s"] > 0
        assert overhead["fraction_of_wall"] == pytest.approx(
            profile_report["wall_time_s"] / overhead["unarmed_wall_s"] - 1,
            abs=1e-3,
        )

    def test_rendered_text_output(self, capsys, tmp_path):
        code = profile.main(["--duration", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "layer" in out
        assert "device path" in out
        assert "overhead" in out

    def test_json_stdout(self, capsys):
        code = profile.main(["--duration", "2", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["schema"] == PROFILE_SCHEMA

    def test_list_scenarios(self, capsys):
        code = profile.main(["--list"])
        out = capsys.readouterr().out
        assert code == 0
        assert profile.GOLDEN in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            profile.main(["--scenario", "no-such-scenario"])
        assert excinfo.value.code == 2

    def test_help_renders(self, capsys):
        """Regression: the ``--check`` help held a bare ``%`` and
        ``--help`` crashed with ``ValueError: incomplete format``."""
        with pytest.raises(SystemExit) as excinfo:
            profile.main(["--help"])
        assert excinfo.value.code == 0
        assert "coverage >= 95%" in capsys.readouterr().out


class TestReportMeta:
    def test_meta_has_provenance_fields(self):
        meta = profile.report_meta({"requests": 10, "seed": 1})
        assert set(meta) == {"git_sha", "config_hash", "created_unix"}
        assert len(meta["config_hash"]) == 12

    def test_config_hash_is_order_insensitive(self):
        first = profile.report_meta({"a": 1, "b": 2})
        second = profile.report_meta({"b": 2, "a": 1})
        assert first["config_hash"] == second["config_hash"]

    def test_config_hash_tracks_content(self):
        assert (profile.report_meta({"a": 1})["config_hash"]
                != profile.report_meta({"a": 2})["config_hash"])


class TestObservePrometheus:
    def test_prometheus_summary(self, capsys):
        code = observe.main(["--scenario", "test-ransom-only",
                             "--duration", "5", "--format", "prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE" in out
        assert "_bucket{" in out  # log histograms render as le-buckets

    def test_snapshot_interval_records(self, capsys):
        code = observe.main(["--scenario", "test-ransom-only",
                             "--duration", "6", "--no-summary",
                             "--snapshot-interval", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "registry snapshots recorded:" in out
        count = int(out.split("registry snapshots recorded:")[1]
                    .splitlines()[0])
        assert count >= 2


class TestDefendProfile:
    def test_defend_profile_writes_report(self, tmp_path, capsys):
        path = tmp_path / "defend_profile.json"
        code = defend.main(["--sample", "wannacry", "--seed", "3",
                            "--profile", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile:" in out
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["schema"] == PROFILE_SCHEMA
        assert report["context"]["ransomware"] == "wannacry"
        assert report["context"]["alarm_raised"] is True
        assert report["context"]["nand_busy"]["total_s"] >= 0
