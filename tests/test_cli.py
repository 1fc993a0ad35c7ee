import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftlab
from liftlab import cli
from liftlab.cli import main
from liftlab.lifter import LiftConfig, lift_program
from liftlab.syntax import parse, print_program

from conftest import PROGRAMS_DIR, forward_group_text, load_inline


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


DUMP_SKELETON_DIGEST = "e78f4eee5be78c3c4794a56a8b5693d3b4e3d0dd88dce86f6b1939f123167501"


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

    def test_dump_skeleton_output_pinned(self, capsys):
        h = hashlib.sha256()
        for path in sorted(PROGRAMS_DIR.glob("*.stg")):
            code, out, _ = run_cli(capsys, "dump-skeleton", str(path))
            assert code == 0
            h.update(f"{path.name}\n{out}".encode())
        assert h.hexdigest() == DUMP_SKELETON_DIGEST


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


def test_values_past_the_int_digit_limit_render_exactly(tmp_path, capsys):
    # 10 squared 14 times is 10^16384: 16,385 digits, past the 4,300 that
    # str() of an int allows by default.  The value is printed in full,
    # and the process-wide limit is left as it was.
    src = tmp_path / "square.stg"
    src.write_text(
        "sq n k = case <# k 1 of { 1 -> n; default z -> case *# n n of {\n"
        "  default m -> case -# k 1 of { default j -> sq m j } } };\n"
        "main = sq 10 14\n"
    )
    limit = sys.get_int_max_str_digits()
    expected = "1" + "0" * 16_384
    code, out, _ = run_cli(capsys, "lift", str(src), "--eval", "--report", "json")
    assert code == 0
    report = json.loads(out)
    assert report["eval"]["before"]["value"] == report["eval"]["after"]["value"] == expected
    code, out, _ = run_cli(capsys, "oracle", str(src))
    assert code == 0
    assert out.splitlines()[1] == f"(none)\t0\t0\t{expected}"
    assert sys.get_int_max_str_digits() == limit


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

    def test_flat_forward_group_dumps_lifted(self, tmp_path, capsys):
        # No member lifts (C4 or, for the last, C3 rejects it), so what is
        # printed is the split chain, 1,000 lets deep.
        flat = tmp_path / "forward.stg"
        flat.write_text(forward_group_text(1000))
        argv = ("dump-lifted", str(flat), "--max-arity-nonrec", "1")
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, err = run_cli(capsys, *argv)
        finally:
            sys.setrecursionlimit(old)
        assert code == 0 and err == ""
        sys.setrecursionlimit(20000)
        try:
            lifted, _ = lift_program(load_inline(flat.read_text()), LiftConfig(max_arity_nonrec=1))
            assert out == print_program(lifted) and parse(out) == lifted
        finally:
            sys.setrecursionlimit(old)

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

    def test_blackhole_names_the_thunk(self, tmp_path, capsys):
        loop = tmp_path / "blackhole.stg"
        loop.write_text("main = let t = thunk t in t\n")
        code, out, err = run_cli(capsys, "lift", str(loop), "--eval")
        assert code == 1 and out == ""
        assert err.startswith("liftlab: error: ") and err.count("\n") == 1
        assert "thunk 't' was entered again while it was being evaluated" in err

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

    def test_calls_in_sequence_share_one_parser(self, capsys, monkeypatch):
        # main builds its parser once; each command line in a sequence,
        # a usage error among them, gives what it gives alone, and no
        # flag of one call carries over to the next.
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        sequence = [
            ["lift", prog("growth_shared"), "--max-arity-nonrec", "1", "--report", "json"],
            ["lift"],
            ["lift", prog("growth_shared"), "--report", "json"],
            ["--version"],
            ["dump-lifted", prog("countdown"), "--max-arity-rec", "1"],
            ["oracle", prog("one_shot"), "--max-groups", "2"],
            ["oracle", prog("one_shot")],
            ["lift", str(PROGRAMS_DIR / "missing.stg")],
            ["dump-lifted", prog("countdown")],
        ]
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        together = [call(argv) for argv in sequence]
        assert len(built) == 1
        alone = []
        for argv in sequence:
            cli._parser.cache_clear()
            alone.append(call(argv))
        assert together == alone and len(built) == 1 + len(sequence)
        assert [code for code, _, _ in together] == [0, 2, 0, 0, 0, 1, 0, 1, 0]
        assert "usage: liftlab" in together[1][2]
        assert together[3][1] == f"liftlab {liftlab.__version__}\n"
        configs = [json.loads(together[i][1])["config"]["max_arity_nonrec"] for i in (0, 2)]
        assert configs == [1, 5]
        assert together[4][1] != together[8][1]
        assert "exceed limit 2" in together[5][2]
        assert together[6][1].endswith("minimal: f,go,inner\n")

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
