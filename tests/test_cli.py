"""End-to-end command-line behavior against the bundled corpus."""

from __future__ import annotations

import json
import shutil

import pytest

from reviewlens.cli import CREDENTIAL_ENV_VAR, main
from reviewlens.evaluation import REFERENCE_CATEGORY_SCORES
from reviewlens.gateway import fingerprint
from reviewlens.extraction import build_extraction_prompt
from reviewlens.testing import FakeChatSession

from conftest import TESTDATA, golden

DATASET = str(TESTDATA / "dataset.json")
FIXTURES = str(TESTDATA / "fixtures")


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestRunReplay:
    @pytest.mark.parametrize("mode", ["full", "baseline", "ablated"])
    def test_reports_match_goldens(self, tmp_path, capsys, mode):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", mode,
            "--out", str(out),
        )
        assert code == 0
        for product_id in ("app-mixer-001", "bty-serum-002", "ele-buds-003"):
            for name in ("report.json", "report.md"):
                written = (out / product_id / name).read_bytes()
                assert written == golden(mode, product_id, name)
        stdout = capsys.readouterr().out
        assert f"app-mixer-001: mode={mode}" in stdout

    def test_manifest_and_extractions_written(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "app-mixer-001" / "manifest.json").read_text())
        assert manifest["mode"] == "full"
        assert manifest["backend"] == "replay"
        assert manifest["call_stats"]["extraction_calls"] == 8
        assert manifest["failed_units"] == []
        extractions = json.loads((out / "app-mixer-001" / "extractions.json").read_text())
        assert set(extractions["extractions"]) == {f"mix-r{i}" for i in range(1, 9)}

    def test_baseline_writes_no_extractions(self, tmp_path):
        out = tmp_path / "out"
        run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "baseline",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert not (out / "app-mixer-001" / "extractions.json").exists()

    def test_format_selection(self, tmp_path):
        out = tmp_path / "out"
        run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
            "--format", "json",
        )
        assert (out / "app-mixer-001" / "report.json").exists()
        assert not (out / "app-mixer-001" / "report.md").exists()

    def test_parallel_products_same_bytes(self, tmp_path):
        sequential = tmp_path / "seq"
        parallel = tmp_path / "par"
        for out, extra in ((sequential, []), (parallel, ["--parallel-products", "3"])):
            code = run_cli(
                "run",
                "--dataset", DATASET,
                "--fixtures", FIXTURES,
                "--mode", "full",
                "--out", str(out),
                *extra,
            )
            assert code == 0
        for product_id in ("app-mixer-001", "bty-serum-002", "ele-buds-003"):
            assert (sequential / product_id / "report.json").read_bytes() == (
                parallel / product_id / "report.json"
            ).read_bytes()


class TestRunErrors:
    def test_unknown_product(self, capsys):
        code = run_cli(
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--product", "nope-1"
        )
        assert code == 1
        assert "nope-1" in capsys.readouterr().err

    def test_replay_requires_fixtures_flag(self, capsys):
        code = run_cli("run", "--dataset", DATASET)
        assert code == 1
        assert "--fixtures" in capsys.readouterr().err

    def test_replay_requires_fixtures_dir(self, tmp_path, capsys):
        code = run_cli(
            "run", "--dataset", DATASET, "--fixtures", str(tmp_path / "missing")
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--workers", "--parallel-products"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_count_flags_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, flag, value)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected a positive integer, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config",
        [
            {"retry": {"max_attempts": 0}},
            {"retry": {"max_attempts": None}},
            {"workers": 0},
            {"mode": "bogus"},
            {"worker": 1},
            {"retry": 3},
            {"workers": 2.9},
            {"retry": {"max_attempts": True}},
            {"extraction_model": None},
            {"extraction_temperature": 5},
            {"retry": {"retryable_errors": "transport"}},
        ],
    )
    def test_invalid_config_values_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = run_cli("run", "--dataset", DATASET, "--fixtures", FIXTURES, "--config", str(path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert "Traceback" not in err

    def test_empty_cache_dir_flag_means_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--dataset", DATASET, "--fixtures", FIXTURES, "--product", "app-mixer-001",
            "--cache-dir", "", "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert [path.name for path in tmp_path.iterdir()] == ["out"]

    def test_live_requires_credential(self, monkeypatch, capsys):
        monkeypatch.delenv(CREDENTIAL_ENV_VAR, raising=False)
        code = run_cli("run", "--dataset", DATASET, "--backend", "live")
        assert code == 1
        assert CREDENTIAL_ENV_VAR in capsys.readouterr().err

    def test_missing_fixture_fails_unit_with_exit_2(self, tmp_path, products_by_id, capsys):
        fixtures_copy = tmp_path / "fixtures"
        shutil.copytree(TESTDATA / "fixtures", fixtures_copy)
        mixer = products_by_id["app-mixer-001"]
        review = next(r for r in mixer.reviews if r.review_id == "mix-r3")
        request = build_extraction_prompt(review, mixer.title, model="gemini-2.0-flash")
        (fixtures_copy / f"{fingerprint(request)}.json").unlink()

        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures_copy),
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "failed_units=['mix-r3']" in captured.out
        manifest = json.loads((out / "app-mixer-001" / "manifest.json").read_text())
        assert manifest["failed_units"] == ["mix-r3"]
        report = json.loads((out / "app-mixer-001" / "report.json").read_text())
        cited = {
            rid
            for section in report["sections"]
            for group in section["categories"]
            for insight in group["insights"]
            for rid in insight["evidence"]
        }
        assert "mix-r3" not in cited


class TestRecordFixtures:
    def test_record_then_replay_matches_golden(self, tmp_path, monkeypatch, canned_model, capsys):
        session = FakeChatSession(backend=canned_model, expected_key="test-key-123")
        monkeypatch.setattr("reviewlens.gateway._default_session", lambda: session)

        fixtures = tmp_path / "recorded"
        code = run_cli(
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--api-key", "test-key-123",
            "--mode", "full",
            "--product", "app-mixer-001",
        )
        assert code == 0
        assert "recorded" in capsys.readouterr().out
        assert list(fixtures.glob("*.json"))
        assert session.closed

        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", str(fixtures),
            "--mode", "full",
            "--product", "app-mixer-001",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "app-mixer-001" / "report.json").read_bytes() == golden(
            "full", "app-mixer-001", "report.json"
        )

    def test_record_requires_credential(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv(CREDENTIAL_ENV_VAR, raising=False)
        code = run_cli(
            "record-fixtures",
            "--dataset", DATASET,
            "--fixtures", str(tmp_path / "f"),
        )
        assert code == 1
        assert CREDENTIAL_ENV_VAR in capsys.readouterr().err


@pytest.fixture()
def run_dirs(tmp_path):
    """Replay all three modes over the corpus into separate run directories."""
    dirs = {}
    for mode in ("full", "baseline", "ablated"):
        out = tmp_path / mode
        code = run_cli(
            "run",
            "--dataset", DATASET,
            "--fixtures", FIXTURES,
            "--mode", mode,
            "--out", str(out),
        )
        assert code == 0
        dirs[mode] = out
    return dirs


class TestEval:
    def test_scores_table_computes_f1(self, tmp_path, capsys):
        rows = [
            {"category": category, "precision": precision, "recall": recall}
            for category, precision, recall, _ in REFERENCE_CATEGORY_SCORES
        ]
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps(rows))
        code = run_cli("eval", "--scores", str(scores))
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["Category", "Precision", "Recall", "F1"]
        cell = {line.split()[0]: line.split()[-1] for line in lines[2:] if line.strip()}
        assert cell["Appliances"] == "0.55"
        # Computed honestly from its own precision and recall columns.
        assert any("0.67" in line and "0.56" in line for line in lines)

    def test_gold_pooled_metrics(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]),
            "--gold", str(TESTDATA / "gold.json"),
            "--dataset", DATASET,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Attribute selection" in out
        assert "mode=full" in out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if line and line.split()[0] in {"Appliances", "Beauty", "Electronics"}
        }
        assert rows["Appliances"][-1] == "0.86"
        assert rows["Beauty"][-1] == "0.94"
        assert rows["Electronics"][-1] == "0.90"

    def test_gold_requires_runs(self, capsys):
        code = run_cli("eval", "--gold", str(TESTDATA / "gold.json"))
        assert code == 1

    def test_annotation_tally(self, capsys):
        code = run_cli("eval", "--annotations", str(TESTDATA / "annotations.jsonl"))
        assert code == 0
        out = capsys.readouterr().out
        assert "Error tallies:" in out
        assert any(
            "omitted_attribute" in line and line.rstrip().endswith("2")
            for line in out.splitlines()
        )

    def test_mode_comparison(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]), str(run_dirs["baseline"]), str(run_dirs["ablated"]),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
            "--product", "app-mixer-001",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Mode comparison for app-mixer-001:" in out
        retention = next(line for line in out.splitlines() if "detail_retention" in line)
        assert retention.split()[-3:] == ["0", "2", "1"]

    def test_mode_comparison_requires_three_runs(self, run_dirs, capsys):
        code = run_cli(
            "eval",
            "--runs", str(run_dirs["full"]),
            "--criteria", str(TESTDATA / "criteria.jsonl"),
        )
        assert code == 1

    def test_nothing_requested(self, capsys):
        code = run_cli("eval")
        assert code == 1
        assert "nothing to evaluate" in capsys.readouterr().err
