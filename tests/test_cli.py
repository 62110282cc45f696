import bz2
import gzip
import json
import logging
import os
from collections import Counter
from xml.etree import ElementTree as ET

import pytest

from conftest import GOLDEN, crisp_valuation
from nonmono import argumentation, evaluation, expert, fuzzy
from nonmono.cli import main
from nonmono.evaluation import MODEL_REGISTRY, read_results_csv, read_trust_csv
from nonmono.ingest import FEATURE_COLUMNS, read_features_csv
from nonmono.kb import load_builtin


@pytest.fixture()
def features_csv(fixture_dump_path, tmp_path):
    out = tmp_path / "features.csv"
    rc = main(["extract", "--dump", str(fixture_dump_path), "--out", str(out),
               "--dump-date", "2021-01-15T00:00:00Z"])
    assert rc == 0
    return out


def test_extract_writes_12_rows(features_csv):
    lines = features_csv.read_text().splitlines()
    assert len(lines) == 13
    assert lines[0] == ("editor_id,anonymous,pages,activity,not_minor,comments,"
                        "presence,frequency,regularity,bytes")


def test_extract_reports_editors_revisions_and_skips(fixture_dump_path, tmp_path, capsys):
    rc = main(["extract", "--dump", str(fixture_dump_path), "--out", str(tmp_path / "f.csv"),
               "--dump-date", "2021-01-15T00:00:00Z"])
    assert rc == 0
    assert capsys.readouterr().out == "12 editors, 176 revisions, 0 skipped\n"
    dump = tmp_path / "skips.xml"
    dump.write_text("<mediawiki><page><id>1</id>"
                    "<revision><id>1</id><contributor><ip>10.0.0.1</ip></contributor></revision>"
                    "<revision><id>2</id><timestamp>2019-01-01T00:00:00Z</timestamp>"
                    "<contributor><ip>10.0.0.1</ip></contributor></revision>"
                    "</page></mediawiki>")
    rc = main(["extract", "--dump", str(dump), "--out", str(tmp_path / "g.csv"),
               "--dump-date", "2021-01-15T00:00:00Z"])
    assert rc == 0
    assert capsys.readouterr().out == "1 editors, 1 revisions, 1 skipped\n"


def test_extract_skips_revisions_with_an_empty_contributor(tmp_path, capsys, caplog):
    dump = tmp_path / "empty.xml"
    dump.write_text("<mediawiki><page><id>1</id>"
                    "<revision><id>1</id><timestamp>2019-01-01T00:00:00Z</timestamp>"
                    "<contributor><username></username><id>5</id></contributor></revision>"
                    "<revision><id>2</id><timestamp>2019-01-02T00:00:00Z</timestamp>"
                    "<contributor><ip/></contributor></revision>"
                    "<revision><id>3</id><timestamp>2019-01-03T00:00:00Z</timestamp>"
                    "<contributor><ip>10.0.0.1</ip></contributor></revision>"
                    "</page></mediawiki>")
    out = tmp_path / "f.csv"
    assert main(["extract", "--dump", str(dump), "--out", str(out),
                 "--dump-date", "2021-01-15T00:00:00Z"]) == 0
    assert capsys.readouterr().out == "1 editors, 1 revisions, 2 skipped\n"
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["10.0.0.1"]
    skips = [r.getMessage() for r in caplog.records if "missing timestamp or contributor" in r.getMessage()]
    assert len(skips) == 2


@pytest.mark.parametrize("suffix, compress", [(".gz", gzip.compress), (".bz2", bz2.compress)])
def test_extract_reads_compressed_dumps(fixture_dump_path, tmp_path, features_csv, capsys,
                                        suffix, compress):
    packed = compress(fixture_dump_path.read_bytes())
    dump = tmp_path / f"dump.xml{suffix}"
    dump.write_bytes(packed)
    out = tmp_path / "packed.csv"
    capsys.readouterr()
    assert main(["extract", "--dump", str(dump), "--out", str(out),
                 "--dump-date", "2021-01-15T00:00:00Z"]) == 0
    assert out.read_bytes() == features_csv.read_bytes()
    assert capsys.readouterr().out == "12 editors, 176 revisions, 0 skipped\n"
    # a truncated archive is the input's fault
    dump.write_bytes(packed[:len(packed) // 2])
    assert main(["extract", "--dump", str(dump), "--out", str(tmp_path / "cut.csv"),
                 "--dump-date", "2021-01-15T00:00:00Z"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "cut.csv").exists()


def test_extract_writes_the_features_golden(features_csv):
    assert features_csv.read_bytes() == (GOLDEN / "features_fixture.csv").read_bytes()


def test_extract_window_days_default_is_30(fixture_dump_path, tmp_path, features_csv):
    explicit = tmp_path / "w30.csv"
    rc = main(["extract", "--dump", str(fixture_dump_path), "--out", str(explicit),
               "--dump-date", "2021-01-15T00:00:00Z", "--window-days", "30"])
    assert rc == 0
    assert explicit.read_bytes() == features_csv.read_bytes()


def test_extract_missing_file(tmp_path):
    rc = main(["extract", "--dump", str(tmp_path / "nope.xml"),
               "--out", str(tmp_path / "o.csv"), "--dump-date", "2021-01-15T00:00:00Z"])
    assert rc == 1


@pytest.mark.parametrize("extra", [["--wiki-start", "2021-01-15T00:00:00Z"],
                                   ["--wiki-start", "2022-01-01T00:00:00Z"],
                                   ["--window-days", "0"]])
def test_extract_bad_dates_or_window_exit_1(fixture_dump_path, tmp_path, capsys, extra):
    out = tmp_path / "o.csv"
    rc = main(["extract", "--dump", str(fixture_dump_path), "--out", str(out),
               "--dump-date", "2021-01-15T00:00:00Z", *extra])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --")
    assert not out.exists()


def test_infer_kb1_model_has_no_empty_trust(features_csv, tmp_path):
    out = tmp_path / "trust.csv"
    rc = main(["infer", "--model", "E3", "--features", str(features_csv),
               "--out", str(out)])
    assert rc == 0
    trust = read_trust_csv(str(out))
    assert len(trust) == 12
    assert all(v is not None for v in trust.values())


def test_infer_grounded_kb2_has_empty_trust(features_csv, tmp_path):
    out = tmp_path / "trust.csv"
    rc = main(["infer", "--model", "A9", "--features", str(features_csv),
               "--out", str(out)])
    assert rc == 0
    trust = read_trust_csv(str(out))
    assert any(v is None for v in trust.values())
    assert any(v is not None for v in trust.values())


def test_infer_unknown_model(features_csv, tmp_path):
    rc = main(["infer", "--model", "Z9", "--features", str(features_csv),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1


def test_infer_explain(features_csv, tmp_path, capsys):
    rc = main(["infer", "--model", "A7", "--features", str(features_csv),
               "--out", str(tmp_path / "t.csv"), "--explain", "10.1.2.3"])
    assert rc == 0
    stdout = capsys.readouterr().out
    trace = json.loads(stdout[stdout.index("{"):stdout.rindex("}") + 1])
    assert trace["editor_id"] == "10.1.2.3"
    assert trace["labellings"]
    assert trace["kept_attacks"]


def _explained(stdout: str) -> dict:
    return json.loads(stdout[stdout.index("{"):stdout.rindex("}") + 1])


def _explain_keys(config) -> list[str]:
    """Each engine's keys of ``--explain``, in order, before ``trust``."""
    if config.engine == "expert":
        return ["activated_rules", "retracted", "surviving"]
    if config.engine == "fuzzy":
        return ["grades", "necessities", "level_truths"]
    acceptance = "scores" if config.semantics == "categoriser" else "labellings"
    return ["activated_arguments", "kept_attacks", "forecast_values", acceptance]


@pytest.mark.parametrize("model", list(MODEL_REGISTRY))
def test_infer_explain_trust_matches_csv(model, features_csv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["infer", "--model", model, "--features", str(features_csv),
               "--out", str(out), "--explain", "10.1.2.3"])
    assert rc == 0
    trace = _explained(capsys.readouterr().out)
    config = MODEL_REGISTRY[model]
    assert list(trace) == ["editor_id", "model_id", *_explain_keys(config), "trust"]
    assert trace["model_id"] == model
    trust = trace["trust"]  # None where the model abstains, as A9 does for this editor
    assert (trust if trust is None else float(format(trust, ".10g"))) == \
        read_trust_csv(str(out))["10.1.2.3"]
    if "scores" in trace:
        # the explained scores are the full categoriser's, also where an
        # unattacked forecast argument gave the trust without them
        kb = load_builtin(config.kb_id)
        features = next(f for f in read_features_csv(str(features_csv))
                        if f.editor_id == "10.1.2.3")
        subaf, _values = argumentation.elicit(
            kb, crisp_valuation(kb, features.as_dict()), config.use_strength)
        scores = argumentation.categoriser(subaf)
        assert trace["scores"] == {a: scores[a] for a in sorted(scores)}


class StageFailure(RuntimeError):
    pass


@pytest.mark.parametrize("model, module, stage, shown", [
    ("E1", expert, "resolve_contradictions", ["activated_rules"]),
    ("FL13", fuzzy, "defuzzify", ["grades", "necessities", "level_truths"]),
    ("A8", argumentation, "label_and_accrue",
     ["activated_arguments", "kept_attacks", "forecast_values"]),
    ("A7", expert, "valuation", []),
    # the rule activation is a stage of its own, before the premise valuation
    ("E5", expert, "valuation", ["activated_rules"]),
])
def test_infer_explain_shows_the_failed_stage(model, module, stage, shown, features_csv,
                                              tmp_path, capsys, monkeypatch):
    def fail(*_args):
        raise StageFailure("injected")

    monkeypatch.setattr(module, stage, fail)
    out = tmp_path / "t.csv"
    rc = main(["infer", "--model", model, "--features", str(features_csv),
               "--out", str(out), "--explain", "10.1.2.3"])
    assert rc == 0
    trace = _explained(capsys.readouterr().out)
    assert list(trace) == ["editor_id", "model_id", *shown, "error", "trust"]
    assert trace["error"] == "StageFailure" and trace["trust"] is None
    assert read_trust_csv(str(out))["10.1.2.3"] is None


@pytest.mark.parametrize("model, module, stage", [
    ("FL13", fuzzy, "defuzzify"),
    ("A7", argumentation, "label_and_accrue"),
])
def test_infer_explain_logs_one_error_per_editor(model, module, stage, features_csv, tmp_path,
                                                 caplog, monkeypatch):
    # the explanation comes from the walk that writes the trust file, so the
    # explained editor's failure is logged once, as every other editor's is
    def fail(*_args):
        raise StageFailure("injected")

    monkeypatch.setattr(module, stage, fail)
    with caplog.at_level(logging.ERROR):
        rc = main(["infer", "--model", model, "--features", str(features_csv),
                   "--out", str(tmp_path / "t.csv"), "--explain", "10.1.2.3"])
    assert rc == 0
    errors = Counter(r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR)
    editors = [f.editor_id for f in read_features_csv(str(features_csv))]
    assert len(editors) == 12 and "10.1.2.3" in editors
    assert errors == Counter(f"model {model} failed for editor {e}; recording NA"
                             for e in editors)


def test_evaluate_command(features_csv, barnstars_path, tmp_path, capsys):
    trust_csv = tmp_path / "trust.csv"
    assert main(["infer", "--model", "E3", "--features", str(features_csv),
                 "--out", str(trust_csv)]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--trust", str(trust_csv), "--barnstars", str(barnstars_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank=" in out and "spread=" in out and "na_pct=0.0000" in out


def test_run_matrix_filter(features_csv, barnstars_path, tmp_path):
    out = tmp_path / "results.csv"
    rc = main(["run-matrix", "--features", str(features_csv),
               "--barnstars", str(barnstars_path), "--out", str(out),
               "--models", "A7,A8", "--jobs", "1"])
    assert rc == 0
    rows = read_results_csv(str(out))
    assert [r[0] for r in rows] == ["A7", "A8"]


def test_run_matrix_missing_barnstars(features_csv, tmp_path):
    rc = main(["run-matrix", "--features", str(features_csv),
               "--barnstars", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "r.csv"), "--jobs", "1"])
    assert rc == 1


def test_run_matrix_plots(features_csv, barnstars_path, tmp_path):
    out = tmp_path / "results.csv"
    rc = main(["run-matrix", "--features", str(features_csv),
               "--barnstars", str(barnstars_path), "--out", str(out),
               "--models", "E1,E3,A3,FL1", "--jobs", "1",
               "--plots", "--plot-dir", str(tmp_path / "charts")])
    assert rc == 0
    for name in ("rank.svg", "spread.svg", "na_pct.svg"):
        svg = (tmp_path / "charts" / name).read_text()
        root = ET.fromstring(svg)  # valid XML
        assert root.tag.endswith("svg")
        assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_run_matrix_jobs_independent(features_csv, barnstars_path, tmp_path):
    outs = []
    for jobs, name in (("1", "a.csv"), ("2", "b.csv")):
        out = tmp_path / name
        rc = main(["run-matrix", "--features", str(features_csv),
                   "--barnstars", str(barnstars_path), "--out", str(out),
                   "--models", "E1,E5,FL1,FC13,A3,A9", "--jobs", jobs])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_matrix_negative_jobs_rejected(features_csv, barnstars_path, tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["run-matrix", "--features", str(features_csv),
               "--barnstars", str(barnstars_path), "--out", str(out), "--jobs", "-3"])
    assert rc == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("affinity, cpu_count, want", [
    pytest.param({3, 5}, 64, 2, id="affinity-mask"),
    pytest.param(None, 3, 3, id="no-affinity-api"),
    pytest.param(None, None, 1, id="cpu-count-unknown"),
])
def test_run_matrix_jobs_0_uses_usable_cpus(features_csv, barnstars_path, tmp_path,
                                            monkeypatch, affinity, cpu_count, want):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    seen = []
    real_run_matrix = evaluation.run_matrix

    def run_matrix(*args, jobs):
        seen.append(jobs)
        return real_run_matrix(*args, jobs=1)

    monkeypatch.setattr(evaluation, "run_matrix", run_matrix)
    rc = main(["run-matrix", "--features", str(features_csv),
               "--barnstars", str(barnstars_path), "--out", str(tmp_path / "r.csv"),
               "--models", "E1", "--jobs", "0"])
    assert rc == 0
    assert seen == [want]


@pytest.mark.parametrize("kb_id", ["KB1", "KB2"])
def test_kb_validate_builtin_file(tmp_path, kb_id):
    from importlib import resources

    text = resources.files("nonmono.kb").joinpath(f"data/{kb_id.lower()}.kb").read_text("utf-8")
    path = tmp_path / f"{kb_id}.kb"
    path.write_text(text)
    assert main(["kb", "validate", str(path)]) == 0


def test_kb_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.kb"
    path.write_text("rule R: IF f is low THEN trust is low\n")
    assert main(["kb", "validate", str(path)]) == 1
    assert "error" in capsys.readouterr().out


def test_report_command(features_csv, barnstars_path, tmp_path):
    results = tmp_path / "results.csv"
    assert main(["run-matrix", "--features", str(features_csv),
                 "--barnstars", str(barnstars_path), "--out", str(results),
                 "--models", "E1,E3", "--jobs", "1"]) == 0
    rc = main(["report", "--results", str(results), "--out-dir", str(tmp_path / "rep"),
               "--features", str(features_csv), "--barnstars", str(barnstars_path)])
    assert rc == 0
    assert (tmp_path / "rep" / "rank.svg").exists()


@pytest.mark.parametrize("given, missing", [("--features", "--barnstars"),
                                             ("--barnstars", "--features")])
def test_report_baseline_needs_both_files(tmp_path, capsys, given, missing):
    # the named file is never opened: the missing flag is reported first
    out_dir = tmp_path / "rep"
    rc = main(["report", "--results", str(GOLDEN / "results_fixture.csv"),
               "--out-dir", str(out_dir), given, str(tmp_path / "does-not-exist.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{missing} is missing" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, header, row", [
    ("evaluate", "editor_id,model_id,trust", "a,E1,nan"),
    ("report", "model_id,dataset,rank,spread,na_pct", "E1,d,nan,inf,250"),
])
def test_invalid_trust_or_results_row_exits_1(barnstars_path, tmp_path, capsys, command,
                                              header, row):
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{row}\n")
    out_dir = tmp_path / "rep"
    args = (["--trust", str(path), "--barnstars", str(barnstars_path)] if command == "evaluate"
            else ["--results", str(path), "--out-dir", str(out_dir)])
    assert main([command, *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 2: ")
    assert not out_dir.exists()


def test_run_matrix_rejects_bad_feature_row(barnstars_path, tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text(",".join(FEATURE_COLUMNS) + "\n"
                        + "a,0,3,5,0.5,0.5,0.5,0.5,0.5,-20\n"
                        + "b,0,3.9,5,0.5,0.5,0.5,0.5,0.5,-20\n")
    rc = main(["run-matrix", "--features", str(features), "--barnstars", str(barnstars_path),
               "--out", str(tmp_path / "results.csv"), "--models", "E1", "--jobs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "pages" in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("command", [["run-matrix", "--jobs", "1"], ["infer", "--model", "E1"]],
                         ids=["run-matrix", "infer"])
def test_run_matrix_header_only_features_exit_1(command, barnstars_path, tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text(",".join(FEATURE_COLUMNS) + "\n")
    rc = main([*command, "--features", str(features), "--out", str(tmp_path / "out.csv"),
               *(["--barnstars", str(barnstars_path)] if command[0] == "run-matrix" else [])])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {features}: no editors\n"
    assert not (tmp_path / "out.csv").exists()


def test_run_matrix_duplicate_editor_exit_1(features_csv, barnstars_path, tmp_path, capsys):
    lines = features_csv.read_text().splitlines()
    features_csv.write_text("\n".join(lines + [lines[1]]) + "\n")
    rc = main(["run-matrix", "--features", str(features_csv), "--barnstars",
               str(barnstars_path), "--out", str(tmp_path / "results.csv"), "--models", "E1",
               "--jobs", "1"])
    assert rc == 1
    editor = lines[1].split(",")[0]
    assert capsys.readouterr().err == (f"error: {features_csv}: line {len(lines) + 1}: "
                                       f"duplicate editor_id {editor!r}\n")
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("dataset", ["wiki\n2021", "wiki\r2021"])
def test_run_matrix_dataset_separator_exit_1(features_csv, barnstars_path, tmp_path, capsys,
                                             dataset):
    rc = main(["run-matrix", "--features", str(features_csv), "--barnstars",
               str(barnstars_path), "--out", str(tmp_path / "results.csv"), "--models", "E1",
               "--dataset", dataset, "--jobs", "1"])
    assert rc == 1
    assert "--dataset must not contain a line break" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_run_matrix_dataset_with_comma_reads_back(features_csv, barnstars_path, tmp_path):
    results = tmp_path / "results.csv"
    assert main(["run-matrix", "--features", str(features_csv), "--barnstars",
                 str(barnstars_path), "--out", str(results), "--models", "E1,A9",
                 "--dataset", "wiki,2021", "--jobs", "1"]) == 0
    assert [row[:2] for row in read_results_csv(str(results))] == [("E1", "wiki,2021"),
                                                                    ("A9", "wiki,2021")]
    assert main(["report", "--results", str(results), "--out-dir", str(tmp_path / "rep")]) == 0
    assert all((tmp_path / "rep" / f"{key}.svg").exists() for key in ("rank", "spread", "na_pct"))


def test_bad_arguments_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_run_matrix_internal_error_exits_2(features_csv, barnstars_path, tmp_path, monkeypatch,
                                           capsys):
    from nonmono import argumentation, evaluation, expert

    def broken(trust, barnstars):
        raise ValueError("metric bug")

    monkeypatch.setattr(evaluation, "metric_triple", broken)
    rc = main(["run-matrix", "--features", str(features_csv), "--barnstars",
               str(barnstars_path), "--out", str(tmp_path / "r.csv"), "--models", "E1",
               "--jobs", "1"])
    assert rc == 2
    assert not (tmp_path / "r.csv").exists()


def test_run_matrix_unknown_model_id_exits_1(features_csv, barnstars_path, tmp_path, capsys):
    rc = main(["run-matrix", "--features", str(features_csv), "--barnstars",
               str(barnstars_path), "--out", str(tmp_path / "r.csv"), "--models", "E1,E99"])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown model id(s): E99\n"
