import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftlab
from liftlab.cli import main
from liftlab.syntax import parse

from conftest import PROGRAMS_DIR, forward_group_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prog(name):
    return str(PROGRAMS_DIR / f"{name}.stg")


class TestLiftCommand:
    def test_json_report_structure(self, capsys):
        code, out, _ = run_cli(capsys, "lift", prog("growth_shared"), "--report", "json")
        assert code == 0
        report = json.loads(out)
        assert report["input"].endswith("growth_shared.stg")
        assert report["config"]["max_arity_nonrec"] == 5
        sites = {d["site"]: d for d in report["decisions"]}
        assert sites["f"]["lifted"] and sites["f"]["predicted_net_words"] == -3
        assert sites["x"]["reason"] == "Updatable"
        assert report["eval"] is None

    def test_json_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "lift", prog("tally"), "--eval", "--report", "json")
        _, second, _ = run_cli(capsys, "lift", prog("tally"), "--eval", "--report", "json")
        assert first == second

    def test_infinite_prediction_serialised(self, capsys):
        _, out, _ = run_cli(capsys, "lift", prog("tally"), "--report", "json")
        report = json.loads(out)
        g = next(d for d in report["decisions"] if d["site"] == "g")
        assert g["reason"] == "ClosureGrowth" and g["predicted_net_words"] == "inf"

    def test_text_and_json_agree_on_decisions(self, capsys):
        _, text_out, _ = run_cli(capsys, "lift", prog("known_call"))
        _, json_out, _ = run_cli(capsys, "lift", prog("known_call"), "--report", "json")
        report = json.loads(json_out)
        for d in report["decisions"]:
            assert f"  {d['site']}: " in text_out
            assert ("lifted" if d["lifted"] else "kept") in text_out

    def test_eval_section(self, capsys):
        code, out, _ = run_cli(
            capsys, "lift", prog("countdown"), "--eval", "--report", "json"
        )
        assert code == 0
        ev = json.loads(out)["eval"]
        assert ev["agreement"] is True
        assert ev["before"]["value"] == ev["after"]["value"] == "500"
        assert ev["delta_words"] == -2000

    def test_no_closure_growth_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lift",
            prog("tally"),
            "--no-closure-growth",
            "--eval",
            "--report",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        g = next(d for d in report["decisions"] if d["site"] == "g")
        assert g["lifted"]
        assert report["eval"]["delta_words"] == 997
        assert report["eval"]["agreement"] is True

    def test_arity_flags_move_the_threshold(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "lift",
            prog("wide_args"),
            "--max-arity-nonrec",
            "6",
            "--max-arity-rec",
            "5",
            "--report",
            "json",
        )
        wide = next(d for d in json.loads(out)["decisions"] if d["site"] == "wide")
        assert wide["lifted"]


class TestDumpCommands:
    def test_dump_lifted_reparses(self, capsys):
        for name in ("countdown", "callweb", "mutual"):
            code, out, _ = run_cli(capsys, "dump-lifted", prog(name))
            assert code == 0
            parse(out)  # must be syntactically valid

    def test_dump_skeleton_one_line_per_body(self, capsys):
        code, out, _ = run_cli(capsys, "dump-skeleton", prog("callweb"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("f: (")
        assert lines[-1].startswith("main: ")

    def test_dump_skeleton_trivial(self, capsys):
        _, out, _ = run_cli(capsys, "dump-skeleton", prog("trivial"))
        assert out == "main: nil\n"


class TestOracleCommand:
    def test_table_and_minimum(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", prog("growth_balanced"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "subset\twords\tclosures\tvalue"
        assert lines[1].startswith("(none)\t")
        assert lines[-1].startswith("minimal: ")
        assert len(lines) == 1 + 16 + 1  # header, 2^4 subsets, footer

    def test_max_groups_limit(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", prog("growth_balanced"), "--max-groups", "2"
        )
        assert code == 1
        assert "liftable groups" in err


class TestErrorsAndExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "lift", "no_such_file.stg")
        assert code == 1 and "error" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.stg"
        bad.write_text("main = let ???")
        code, _, err = run_cli(capsys, "lift", str(bad))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "text",
        ["main = \u00b2", "main = 1\u00b2", "main = -\u00b2", "main = " + "7" * 5000],
        ids=["superscript", "digit-superscript", "sign-superscript", "5000-digits"],
    )
    def test_lexical_error_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "lexical.stg"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "lift", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("liftlab: error: 1:")
        assert "Traceback" not in err

    def test_too_deep_program_exit_1(self, tmp_path, capsys):
        depth = 500
        lets = "".join(f"let x{k} = thunk {k} in\n" for k in range(depth))
        deep = tmp_path / "deep.stg"
        deep.write_text(f"main =\n{lets}x0\n")
        code, out, err = run_cli(capsys, "lift", str(deep))
        assert code == 1 and out == ""
        assert err.startswith("liftlab: error: ") and "nests too deeply" in err
        assert "Traceback" not in err

    def test_flat_forward_group_lifts(self, tmp_path, capsys):
        # A 1,000-member group nests nothing, though its split is a chain.
        flat = tmp_path / "forward.stg"
        flat.write_text(forward_group_text(1000))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, err = run_cli(capsys, "lift", str(flat), "--eval")
        finally:
            sys.setrecursionlimit(old)
        assert code == 0 and err == ""
        assert "agreement: yes" in out

    def test_flat_forward_group_dumps_skeleton(self, tmp_path, capsys):
        # Its split is a 1,000-let chain, so the skeleton nests as deep.
        flat = tmp_path / "forward.stg"
        flat.write_text(forward_group_text(1000))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, err = run_cli(capsys, "dump-skeleton", str(flat))
        finally:
            sys.setrecursionlimit(old)
        assert code == 0 and err == ""
        assert out.startswith("main: (seq nil (seq (seq (closure y) ")
        assert out.count("(closure ") == 1000 and out.count("(scaled ") == 1000

    def test_non_utf8_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.stg"
        bad.write_bytes(b"main = \xff\n")
        code, out, err = run_cli(capsys, "lift", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("liftlab: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "unbound.stg"
        bad.write_text("main = g 5 x f")
        code, _, err = run_cli(capsys, "lift", str(bad))
        assert code == 1 and "unbound" in err.lower()

    @pytest.mark.parametrize(
        "text",
        ["main = let f = \\ x -> x and f = \\ y -> y in f 1", "f = 1; f = 2; main = f"],
        ids=["let-group", "top-level"],
    )
    def test_name_bound_twice_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "twice.stg"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "lift", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("liftlab: error: ") and err.count("\n") == 1
        assert "'f' is bound twice" in err

    def test_eval_error_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "lift", prog("countdown"), "--eval", "--fuel", "10"
        )
        assert code == 1 and "error" in err

    def test_arg_occurrence_refusal_exit_1(self, tmp_path, capsys):
        src = (
            "sink p q = p;\n"
            "main = let c = thunk 2 in let k = \\ kx -> *# c kx in\n"
            "  case k 3 of { default r -> sink r k }\n"
        )
        f = tmp_path / "argocc.stg"
        f.write_text(src)
        code, _, err = run_cli(capsys, "lift", str(f), "--allow-arg-occurrences")
        assert code == 1 and "argument position" in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lift"])  # missing file argument
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value", [("--fuel", "0"), ("--max-arity-nonrec", "0"), ("--fuel", "-3")]
    )
    def test_bad_flag_values_are_usage_errors(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["lift", prog("trivial"), flag, value])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        src = str(Path(liftlab.__file__).resolve().parent.parent)
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "liftlab", "lift", prog("trivial")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "no let bindings" in result.stdout


_EVERY_COMMAND = """
import sys
from liftlab.cli import main
for path in sys.argv[1:]:
    for argv in (
        ["lift", path, "--eval", "--report", "json"],
        ["lift", path, "--eval"],
        ["dump-lifted", path],
        ["dump-skeleton", path],
    ):
        print("==", *argv, "->", main(argv), flush=True)
"""


def test_output_independent_of_hash_seed():
    src = str(Path(liftlab.__file__).resolve().parent.parent)
    paths = sorted(str(f) for f in PROGRAMS_DIR.glob("*.stg"))
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _EVERY_COMMAND, *paths],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count(b"-> 0\n") == 4 * len(paths)
    assert outputs[0] == outputs[1]
