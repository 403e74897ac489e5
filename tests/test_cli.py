"""CLI surface tests: subcommands, exit statuses, pipes, determinism."""

import gc
import hashlib
import io
import json
import subprocess
import sys

import pytest

from conftest import duplicating_tree
from spgraphs import (
    FacetSet, Spg, SymbolTable, TransformConfig, build_exponential_spindle,
    build_spindle_template, build_star_template, parse, restrict, serialize)
from spgraphs import cli, core, document
from spgraphs.cli import main


def fs(*elements):
    return FacetSet(elements)


SHARED_STAR_DOC = serialize(build_star_template(
    SymbolTable.alphabetic(5), fs(0, 1), [fs(2, 3), fs(2, 4)]))
NON_SINGLETON_DOC = serialize(Spg.build(
    SymbolTable.alphabetic(3), 2, [[fs(0, 1), fs(1, 2)]]))
DUPLICATING_TREE_DOC = serialize(duplicating_tree())


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_template_doc(capsys, monkeypatch, dim=2):
    code, out, _ = run_cli(capsys, monkeypatch, ["build-spindle", "--dim", str(dim)])
    assert code == 0
    return out


def count_validate_calls(monkeypatch):
    """Record each validation computed, parse's included, in the returned
    list: a graph keeps its report, so later validate calls add nothing."""
    calls = []
    validate = core._validate

    def counting_validate(spg):
        calls.append(spg)
        return validate(spg)

    monkeypatch.setattr(core, "_validate", counting_validate)
    return calls


def count_joins(monkeypatch):
    """Record each run of the near-pair join in the returned list."""
    calls = []
    near_pairs = core.near_pairs
    monkeypatch.setattr(core, "near_pairs",
                        lambda spg: calls.append(spg) or near_pairs(spg))
    return calls


class TestBuildSpindle:
    def test_default_emits_template(self, capsys, monkeypatch):
        out = build_template_doc(capsys, monkeypatch)
        spindle = parse(out)
        assert spindle.spg.dimension == 2
        assert len(spindle.spg.vertices) == 6

    def test_raw_flag_is_rejected(self, capsys, monkeypatch):
        # the template is the default output; the no-op --raw flag is gone
        code, out, err = run_cli(
            capsys, monkeypatch, ["build-spindle", "--dim", "2", "--raw"])
        assert code == 2
        assert out == ""
        assert "--raw" in err

    def test_transform_requires_r_and_seed(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch, ["build-spindle", "--dim", "2", "--transform"])
        assert code == 2
        assert "requires" in err

    def test_transformed_spindle(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, [
            "build-spindle", "--dim", "1", "--transform",
            "--r", "4", "--seed", "11"])
        assert code == 0
        result = parse(out)
        assert result.spg.dimension == 4
        assert result.apices is not None
        assert "rounds used" in err


class TestVerify:
    def test_singleton_via_pipe(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch)
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verify", "--property", "singleton"], stdin=doc)
        assert code == 0
        assert "singleton: holds" in out

    def test_endpoint_count_violation(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch)
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verify", "--property", "endpoint-count"],
            stdin=doc)
        assert code == 1
        assert "endpoint-count: VIOLATED" in out
        assert "over-counted-face" in out

    def test_stray_annotation_is_a_usage_error(self, capsys, monkeypatch):
        doc = json.loads(build_template_doc(capsys, monkeypatch))
        doc["annotations"]["rounds_used"] = "x"
        code, out, err = run_cli(capsys, monkeypatch, ["verify"],
                                 stdin=json.dumps(doc))
        assert code == 2
        assert out == ""
        assert err == ("error: annotations.rounds_used: not an annotation "
                       "of a spg document\n")

    def test_dimension_reduction_refuses_lifted_spindle(self, capsys, monkeypatch,
                                                       tmp_path):
        # rd = 174: a single member has 2^174 faces, so the budget refuses
        # before any restriction is checked (the timeout guards a hang)
        code, doc, _ = run_cli(capsys, monkeypatch, [
            "build-spindle", "--dim", "2", "--transform", "--r", "87", "--seed", "7"])
        assert code == 0
        path = tmp_path / "spindle.json"
        path.write_text(doc, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "spgraphs", "verify", "--input", str(path),
             "--property", "dimension-reduction"],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "refusing rather than reporting a partial result" in done.stderr
        assert done.stdout == "validity: holds\n"

    def test_all_properties_print_before_refusal(self, capsys, monkeypatch):
        # on a lifted graph dimension reduction refuses (exit 2), but the
        # verdicts computed before it are still printed
        code, doc, _ = run_cli(capsys, monkeypatch, [
            "build-spindle", "--dim", "2", "--transform", "--r", "87", "--seed", "7"])
        assert code == 0
        code, out, err = run_cli(capsys, monkeypatch, ["verify"], stdin=doc)
        assert code == 2
        assert "refusing rather than reporting a partial result" in err
        assert out == ("validity: holds\nadjacency: holds\n"
                       "strong-adjacency: holds\nendpoint-count: holds\n"
                       "singleton: holds\n")

    def test_all_properties_default(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch, dim=2)
        code, out, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=doc)
        assert code == 1  # d=2 template violates endpoint count
        for name in ("validity", "adjacency", "strong-adjacency",
                     "endpoint-count", "singleton", "dimension-reduction"):
            assert name in out
        assert "endpoint-count: VIOLATED" in out

    @pytest.mark.parametrize("prop", ["adjacency", "all"])
    def test_validates_once(self, capsys, monkeypatch, prop):
        doc = build_template_doc(capsys, monkeypatch, dim=2)
        calls = count_validate_calls(monkeypatch)
        joins = count_joins(monkeypatch)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["verify", "--property", prop], stdin=doc)
        # the d=2 template violates adjacency and end-point count
        assert code == 1
        assert out.startswith("validity: holds\n")
        assert len(calls) == 1
        assert len(joins) == 1

    def test_all_properties_hold_for_edge_template(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch, dim=1)
        code, out, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=doc)
        assert code == 0
        assert "VIOLATED" not in out

    def test_witness_cap_and_override(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch, dim=4)
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verify", "--property", "endpoint-count"],
            stdin=doc)
        assert code == 1
        assert "more; use --all-witnesses" in out
        assert out.count("over-counted-face") == 20
        code, out_all, _ = run_cli(
            capsys, monkeypatch,
            ["verify", "--property", "endpoint-count", "--all-witnesses"],
            stdin=doc)
        assert "more; use --all-witnesses" not in out_all
        assert out_all.count("over-counted-face") > 20

    def test_file_input(self, capsys, monkeypatch, tmp_path):
        doc = build_template_doc(capsys, monkeypatch)
        path = tmp_path / "spindle.json"
        path.write_text(doc)
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["verify", "--input", str(path), "--property", "singleton"])
        assert code == 0

    def test_missing_file(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch,
            ["verify", "--input", "/nonexistent/x.json"])
        assert code == 2
        assert "error" in err

    def test_malformed_document(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["verify"], stdin="{bad")
        assert code == 2
        assert "malformed" in err


class TestTransform:
    def test_transform_and_verify(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, [
            "transform", "--r", "4", "--seed", "9"], stdin=SHARED_STAR_DOC)
        assert code == 0
        assert "rounds used" in err
        code, out2, _ = run_cli(
            capsys, monkeypatch, ["verify"], stdin=out)
        # transformed star passes everything except possibly
        # dimension-reduction, which is genuinely open for stars
        assert "validity: holds" in out2
        assert "strong-adjacency: holds" in out2
        assert "endpoint-count: holds" in out2

    def test_exhaustion_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, [
            "transform", "--r", "2", "--seed", "0", "--max-rounds", "0"],
            stdin=SHARED_STAR_DOC)
        assert code == 3
        assert "bad events" in err

    @pytest.mark.parametrize("r, failed", [
        ("2", "validity"), ("3", "adjacency, strong-adjacency")])
    def test_failed_verification_exit_code(self, capsys, monkeypatch, r,
                                           failed):
        code, out, err = run_cli(capsys, monkeypatch, [
            "transform", "--r", r, "--seed", "0"], stdin=DUPLICATING_TREE_DOC)
        assert (code, out) == (3, "")
        assert err == f"error: constructed graph failed verification: {failed}\n"

    def test_spindle_document_gets_the_built_spindle(self, capsys, monkeypatch):
        argv = ["--r", "4", "--seed", "3"]
        code, built, _ = run_cli(capsys, monkeypatch, [
            "build-spindle", "--dim", "2", "--transform", *argv])
        assert code == 0
        code, piped, _ = run_cli(capsys, monkeypatch, ["transform", *argv],
                                 stdin=build_template_doc(capsys, monkeypatch))
        assert code == 0
        assert piped == built
        assert parse(piped).apices is not None

    def test_rejects_result_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, [
            "transform", "--r", "4", "--seed", "9"], stdin=SHARED_STAR_DOC)
        assert code == 0
        code, _, err = run_cli(capsys, monkeypatch, [
            "transform", "--r", "4", "--seed", "9"], stdin=out)
        assert code == 2
        assert "already a transform result" in err

    def test_validates_once(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch, dim=2)
        calls = count_validate_calls(monkeypatch)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["transform", "--r", "8", "--seed", "1"], stdin=doc)
        assert code == 0
        # the template in parse, the result in the construction's verify_all
        assert len(calls) == 2
        assert len(parse(out).spg.vertices) > 6

    def test_rejects_non_singleton_template(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, [
            "transform", "--r", "4", "--seed", "1"], stdin=NON_SINGLETON_DOC)
        assert code == 2
        assert "non-singleton-vertex" in err


class TestRestrict:
    def test_restrict_to_connected_pair(self, capsys, monkeypatch):
        doc = serialize(parse(SHARED_STAR_DOC))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["restrict", "--facet", "c"], stdin=doc)
        assert code == 0
        restricted = parse(out)
        assert restricted.is_restriction
        assert restricted.dimension == 1

    def test_empty_restriction(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["restrict", "--facet", "a,c"],
            stdin=SHARED_STAR_DOC)
        assert code == 0
        assert out.strip() == "restriction: empty"

    def test_validates_once(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch, dim=2)
        calls = count_validate_calls(monkeypatch)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["restrict", "--facet", "1.1"], stdin=doc)
        assert code == 0
        assert len(calls) == 1
        assert parse(out).is_restriction

    def test_face_larger_than_dimension(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch, ["restrict", "--facet", "1.1,1.2,2.1"],
            stdin=build_template_doc(capsys, monkeypatch, dim=2))
        assert code == 2
        assert "restriction face has 3 symbols, dimension is 2" in err

    def test_unknown_label(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys, monkeypatch, ["restrict", "--facet", "zz"],
            stdin=SHARED_STAR_DOC)
        assert code == 2
        assert out == ""
        # the message itself: str() of a KeyError would quote it once more
        assert err == "error: unknown symbol label 'zz'\n"


class TestStats:
    def test_template_stats(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch)
        code, out, _ = run_cli(capsys, monkeypatch, ["stats"], stdin=doc)
        assert code == 0
        assert "dimension: 2" in out
        assert "symbols: 4" in out
        assert "vertices: 6" in out
        assert "max-degree: 2" in out
        assert "diameter: 5" in out
        assert "spindle-length: 5" in out

    def test_disconnected_restriction_stats(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, [
            "restrict", "--facet", "1.1"],
            stdin=build_template_doc(capsys, monkeypatch))
        restricted_doc = out
        code, out, _ = run_cli(capsys, monkeypatch, ["stats"],
                               stdin=restricted_doc)
        assert code == 0
        assert "diameter: unreachable" in out


class TestSweepAndEstimate:
    def test_sweep_validates_once(self, capsys, monkeypatch):
        doc = build_template_doc(capsys, monkeypatch, dim=2)
        calls = count_validate_calls(monkeypatch)
        code, out, _ = run_cli(capsys, monkeypatch, [
            "sweep", "--r-list", "8", "--trials", "2", "--seed", "1"], stdin=doc)
        assert code == 0
        # the template in parse, each trial's result in its verify_all
        assert len(calls) == 3
        assert out.splitlines()[2].startswith("8\t2\t2\t")

    def test_sweep_rejects_non_singleton_template(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, [
            "sweep", "--r-list", "4", "--trials", "1", "--seed", "1"],
            stdin=NON_SINGLETON_DOC)
        assert code == 2
        assert "non-singleton-vertex" in err

    def test_sweep_counts_a_result_failing_validation(self, capsys,
                                                      monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, [
            "sweep", "--r-list", "2", "--trials", "1", "--seed", "0"],
            stdin=DUPLICATING_TREE_DOC)
        assert code == 0
        assert out.splitlines()[-1].startswith("2\t1\t0\t-\t")

    def test_sweep_table(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, [
            "sweep", "--r-list", "4,6", "--trials", "2", "--seed", "3"],
            stdin=SHARED_STAR_DOC)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("template:")
        assert lines[1].split("\t")[0] == "r"
        assert len(lines) == 4

    def test_sweep_json(self, capsys, monkeypatch):
        import json
        code, out, _ = run_cli(capsys, monkeypatch, [
            "sweep", "--r-list", "4", "--trials", "2", "--seed", "3", "--json"],
            stdin=SHARED_STAR_DOC)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["r"] == 4
        assert payload["rows"][0]["trials"] == 2

    def test_estimate_output(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, [
            "estimate-bad-event", "--dim", "2", "--r", "8",
            "--trials", "100", "--seed", "4"])
        assert code == 0
        assert "frequency:" in out
        assert "analytic-bound: 0.500000" in out

    def test_estimate_zero_trials(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, [
            "estimate-bad-event", "--dim", "2", "--r", "8",
            "--trials", "0", "--seed", "4"])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--r-list", ",", "--trials", "2", "--seed", "1"],
         "argument --r-list: expected comma-separated integers, got ','"),
        (["sweep", "--r-list", "4,x", "--trials", "2", "--seed", "1"],
         "argument --r-list: expected comma-separated integers, got '4,x'"),
        (["sweep", "--r-list", "4", "--trials", "0", "--seed", "1"],
         "argument --trials: must be positive, got 0"),
        (["estimate-bad-event", "--dim", "2", "--r", "8", "--trials", "0",
          "--seed", "4"],
         "argument --trials: must be positive, got 0"),
        (["sweep", "--r-list", "4", "--trials", "2", "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
        (["estimate-bad-event", "--dim", "2", "--r", "8", "--trials", "5",
          "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
        (["transform", "--r", "4", "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
        (["build-spindle", "--dim", "2", "--transform", "--r", "4",
          "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
        (["sweep", "--r-list", "4", "--trials", "2", "--seed", "x"],
         "argument --seed: invalid int value: 'x'"),
        (["sweep", "--r-list", "4", "--trials", "2", "--seed", "1",
          "--max-rounds", "-1"],
         "argument --max-rounds: must be non-negative, got -1"),
        (["transform", "--r", "4", "--seed", "1", "--max-rounds", "-1"],
         "argument --max-rounds: must be non-negative, got -1"),
        (["build-spindle", "--dim", "2", "--transform", "--r", "4",
          "--seed", "1", "--max-rounds", "-1"],
         "argument --max-rounds: must be non-negative, got -1"),
        (["transform", "--r", "4", "--seed", "1", "--max-rounds", "x"],
         "argument --max-rounds: invalid int value: 'x'"),
        (["build-spindle", "--dim", "-1"],
         "argument --dim: must be positive, got -1"),
        (["estimate-bad-event", "--dim", "0", "--r", "8", "--trials", "5",
          "--seed", "4"],
         "argument --dim: must be positive, got 0"),
        (["transform", "--r", "1", "--seed", "0"],
         "argument --r: must be at least 2, got 1"),
        (["build-spindle", "--dim", "2", "--transform", "--r", "1",
          "--seed", "0"],
         "argument --r: must be at least 2, got 1"),
        (["estimate-bad-event", "--dim", "2", "--r", "1", "--trials", "5",
          "--seed", "4"],
         "argument --r: must be at least 2, got 1"),
        (["transform", "--r", "x", "--seed", "0"],
         "argument --r: invalid int value: 'x'"),
    ], ids=["empty-r-list", "non-int-r-list", "sweep-zero-trials",
            "estimate-zero-trials", "sweep-negative-seed",
            "estimate-negative-seed", "transform-negative-seed",
            "build-spindle-negative-seed", "non-int-seed",
            "sweep-negative-max-rounds", "transform-negative-max-rounds",
            "build-spindle-negative-max-rounds", "non-int-max-rounds",
            "build-spindle-negative-dim", "estimate-zero-dim",
            "transform-r-1", "build-spindle-r-1", "estimate-r-1",
            "non-int-r"])
    def test_argument_errors_name_the_flag(self, capsys, monkeypatch, argv,
                                           message):
        code, out, err = run_cli(capsys, monkeypatch, argv,
                                 stdin=SHARED_STAR_DOC)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(f"error: {message}")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, monkeypatch, ["frobnicate"])
        assert code == 2

    def test_help_exits_zero(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["--help"])
        assert code == 0
        assert "build-spindle" in out


def _raise_runtime_error(args):
    raise RuntimeError("unexpected")


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The cyclic collector switched on or off for the test, then put
    back as it was."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorState:
    """main pauses the cyclic collector around a command and leaves it as
    it found it; the suite calls main in-process, so a leak would carry
    into every later test."""

    @pytest.mark.parametrize("argv, stdin, code", [
        (["stats"], "template", 0),
        (["verify", "--property", "endpoint-count"], "template", 1),
        (["stats"], "{not json", 2),
        (["frobnicate"], "", 2),
        (["transform", "--r", "2", "--seed", "0", "--max-rounds", "0"],
         SHARED_STAR_DOC, 3),
    ], ids=["exit-0", "exit-1", "exit-2", "usage", "exit-3"])
    def test_state_restored(self, capsys, monkeypatch, collector, argv,
                            stdin, code):
        if stdin == "template":
            stdin = build_template_doc(capsys, monkeypatch)
        seen = []
        parse = document.parse

        def recording_parse(text):
            seen.append(gc.isenabled())
            return parse(text)

        monkeypatch.setattr(document, "parse", recording_parse)
        assert run_cli(capsys, monkeypatch, argv, stdin)[0] == code
        assert gc.isenabled() is collector
        assert seen == ([] if argv == ["frobnicate"] else [False])

    def test_state_restored_when_a_command_raises(self, monkeypatch,
                                                  collector):
        monkeypatch.setattr(cli, "cmd_stats", _raise_runtime_error)
        with pytest.raises(RuntimeError):
            main(["stats"])
        assert gc.isenabled() is collector


README_SPINDLE = ["build-spindle", "--dim", "2", "--transform", "--r", "87",
                  "--seed", "7"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


TEMPLATE_SHA256 = (
    "1e83271ca07c201128f77277632f0f7efb91494f818fcce26366dfd7b934ebc2")
README_SPINDLE_SHA256 = (
    "7655deba8df0c7eb0e0e279662533eec2777bad0789a81c43d2aa9e35e38b37e")
RESTRICTION_SHA256 = (
    "9170659a2f2ec99bad60c2f6873fcc4e9147ac0e3c81d2fdbfa14b761b178fb9")


class TestGoldenStdout:
    """Digests of stdout as the standard library's json.dumps(indent=2,
    sort_keys=True) wrote it: a drifting byte fails here."""

    def test_template(self, capsys, monkeypatch):
        assert sha256(build_template_doc(capsys, monkeypatch)) == TEMPLATE_SHA256

    def test_readme_spindle_and_restriction(self, capsys, monkeypatch):
        code, doc, _ = run_cli(capsys, monkeypatch, README_SPINDLE)
        assert code == 0
        assert sha256(doc) == README_SPINDLE_SHA256
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["restrict", "--facet", "1.1@1,1.1@2"], stdin=doc)
        assert code == 0
        assert sha256(out) == RESTRICTION_SHA256

    def test_library_writes_the_pinned_documents(self):
        # serialize and dump, without the CLI, on the pinned payloads
        spindle = build_exponential_spindle(2, TransformConfig(r=87, seed=7))
        face = FacetSet.from_labels(spindle.spg.symbols, ["1.1@1", "1.1@2"])
        for obj, digest in [
                (build_spindle_template(2).spindle, TEMPLATE_SHA256),
                (spindle, README_SPINDLE_SHA256),
                (restrict(spindle.spg, face), RESTRICTION_SHA256)]:
            stream = io.StringIO()
            assert document.dump(obj, stream) is None
            assert sha256(stream.getvalue()) == sha256(serialize(obj)) == digest

    def test_sweep_json(self, capsys, monkeypatch):
        # floats, a null mean (r = 2 never succeeds) and nested objects
        code, out, _ = run_cli(capsys, monkeypatch, [
            "sweep", "--r-list", "2,4,8", "--trials", "3", "--seed", "1",
            "--max-rounds", "2", "--json"],
            stdin=build_template_doc(capsys, monkeypatch))
        assert code == 0
        assert '"mean_rounds": null' in out
        assert sha256(out) == (
            "743b896168274ef7ad1b8b5d5c64d494d2bebff98b41689665a985d2eac5f06a")


@pytest.mark.parametrize("argv, stdin", [
    (["build-spindle", "--dim", "2"], ""),
    (["build-spindle", "--dim", "1", "--transform", "--r", "4", "--seed", "3"],
     ""),
    (["transform", "--r", "4", "--seed", "12"], SHARED_STAR_DOC),
    (["restrict", "--facet", "c"], SHARED_STAR_DOC),
], ids=["template", "transformed-spindle", "transform", "restrict"])
def test_documents_are_streamed_to_stdout(capsys, monkeypatch, argv, stdin):
    # no command builds the whole text: each writes through document.dump
    def whole_text(obj):
        raise AssertionError("serialize called")

    monkeypatch.setattr(document, "serialize", whole_text)
    code, out, _ = run_cli(capsys, monkeypatch, argv, stdin)
    assert code == 0
    monkeypatch.undo()
    assert out == serialize(parse(out))


# Run main as `python -m spgraphs` does, then report on stderr whether
# numpy was loaded and which spgraphs modules were.
_REPORT_MODULES = """\
import sys
from spgraphs.__main__ import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "spgraphs")
print("numpy" in sys.modules, *loaded, file=sys.stderr)
sys.exit(code)
"""

# Reading and checking a document takes core and document only.
_READER = {"spgraphs", "spgraphs.__main__", "spgraphs.cli", "spgraphs.core",
           "spgraphs.document"}
_BUILDER = _READER | {"spgraphs.spindle", "spgraphs.transform"}


def _command(argv, code, modules, loads_numpy):
    return pytest.param(argv, code, modules, loads_numpy, id=" ".join(argv))


class TestNumpyLoadedWhereUsed:
    def test_import_leaves_numpy_unloaded(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import spgraphs, sys; sys.exit('numpy' in sys.modules)"],
            timeout=60)
        assert done.returncode == 0

    @pytest.mark.parametrize("argv, code, loads_numpy", [
        (["stats"], 0, False),
        (["verify", "--property", "singleton"], 0, False),
        (["verify", "--property", "adjacency"], 1, False),
        (["verify"], 1, False),
        # draws permutations: the control that numpy does load
        (["estimate-bad-event", "--dim", "2", "--r", "4", "--trials", "3",
          "--seed", "1"], 0, True),
    ])
    def test_commands(self, capsys, monkeypatch, argv, code, loads_numpy):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "spgraphs", *argv],
            input=build_template_doc(capsys, monkeypatch),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert "spgraphs.cli" in done.stderr  # the import log is there
        assert ("numpy" in done.stderr) == loads_numpy

    def test_import_loads_no_submodule(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import spgraphs, sys; "
             "print(*sorted(m for m in sys.modules if 'spgraphs' in m))"],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout.split() == ["spgraphs"]

    @pytest.mark.parametrize("argv, code, modules, loads_numpy", [
        _command(["stats"], 0, _READER, False),
        *[_command(["verify", "--property", name], code, _READER, False)
          for name, code in [
              ("adjacency", 1), ("strong-adjacency", 1),
              ("endpoint-count", 1), ("singleton", 0),
              ("dimension-reduction", 1), ("all", 1)]],
        _command(["restrict", "--facet", "1.1"], 0, _READER, False),
        _command(["build-spindle", "--dim", "2"], 0, _BUILDER, False),
        _command(["build-spindle", "--dim", "2", "--transform", "--r", "4",
                  "--seed", "1"], 0, _BUILDER, True),
        _command(["transform", "--r", "4", "--seed", "1"], 0,
                 _READER | {"spgraphs.transform"}, True),
        _command(["sweep", "--r-list", "4", "--trials", "1", "--seed", "1"],
                 0, _BUILDER | {"spgraphs.experiments"}, True),
        _command(["estimate-bad-event", "--dim", "2", "--r", "4",
                  "--trials", "3", "--seed", "1"], 0,
                 _READER | {"spgraphs.transform"}, True),
    ])
    def test_modules_loaded(self, capsys, monkeypatch, argv, code, modules,
                            loads_numpy):
        done = subprocess.run(
            [sys.executable, "-c", _REPORT_MODULES, *argv],
            input=build_template_doc(capsys, monkeypatch),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        numpy, *loaded = done.stderr.splitlines()[-1].split()
        assert set(loaded) == modules
        assert numpy == str(loads_numpy)


class TestDeterminism:
    def test_in_process_repeat_is_identical(self, capsys, monkeypatch):
        args = ["transform", "--r", "4", "--seed", "12"]
        code1, out1, _ = run_cli(capsys, monkeypatch, args, stdin=SHARED_STAR_DOC)
        code2, out2, _ = run_cli(capsys, monkeypatch, args, stdin=SHARED_STAR_DOC)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_subprocess_byte_identical(self):
        argv = [sys.executable, "-m", "spgraphs", "build-spindle",
                "--dim", "2", "--transform", "--r", "8", "--seed", "7"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout
