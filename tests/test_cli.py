import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from minorbit import acceptance, bwb, quiveralg
from minorbit.cli import BundleParseError, main, parse_bundle_spec


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_bundle_spec():
    assert parse_bundle_spec("O(2)", 3) == bwb.line_bundle(3, 2)
    assert parse_bundle_spec("omega(1, 0)", 3) == bwb.omega(3, 1, 0)
    assert parse_bundle_spec("wedgeT(1,-1)", 3) == bwb.wedge_tangent(3, 1, -1)
    assert parse_bundle_spec("hom(2,1,0)", 3) == bwb.hom_bundle(2, 1, 0, 3)
    combo = parse_bundle_spec("O(1)+O(1)-omega(1,2)", 3)
    assert combo == (
        bwb.line_bundle(3, 1).scale(2) - bwb.omega(3, 1, 2)
    )
    # a sign is always the '-' character, read once: "--1" is no number,
    # and a '-' after a term starts a term
    assert parse_bundle_spec("O(- 1)", 3) == bwb.line_bundle(3, -1)
    for text, col, msg in (("O(--1)", 3, "expected int, found -"),
                           ("O(1)-2", 5, "expected name, found 2")):
        with pytest.raises(BundleParseError, match=msg) as e:
            parse_bundle_spec(text, 3)
        assert e.value.col == col, text


def test_parse_errors_carry_positions():
    with pytest.raises(BundleParseError) as e:
        parse_bundle_spec("omega(1;2)", 3)
    assert e.value.col == 7
    with pytest.raises(BundleParseError) as e:
        parse_bundle_spec("tangent(1,2)", 3)
    assert e.value.col == 0


def test_coh_subcommand(capsys):
    rc, out, _ = run(capsys, ["coh", "--n", "3", "--bundle", "omega(1,0)"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["cohomology"] == {"1": 1}
    assert "claim" in payload


def test_coh_csv(capsys):
    rc, out, _ = run(capsys, ["coh", "--n", "3", "--bundle", "O(2)", "--output", "csv"])
    assert rc == 0
    assert out.splitlines() == ["degree,dim", "0,6"]


def test_usage_error_exit_code(capsys):
    rc, _, _ = run(capsys, ["coh", "--n", "3", "--bundle", "omega(7,0)"])
    assert rc == 2
    rc, _, _ = run(capsys, ["coh", "--n", "1", "--bundle", "O(0)"])
    assert rc == 2
    assert main(["nonsense"]) == 2
    # kflop needs one of its modes
    assert main(["kflop", "--n", "3"]) == 2


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["coh", "--n", "3", "--bundle", "O(1)", "--seed", "5"],
        ["coh", "--n", "3", "--bundle", "O(1)", "--cap", "4"],
        ["quiver", "--dims", "--n", "2", "--cap", "4"],
        ["mutate", "--n", "3", "--max-len", "4"],
        ["mutate", "--n", "3", "--cap", "-1"],
        ["mutate", "--orbit", "--n", "3"],
        ["accept", "--output", "json"],
        ["kflop", "--matrix", "--n", "3", "--direction", "KN"],
        ["kflop", "--matrix", "--k", "0", "--n", "3"],
        ["kflop", "--ptwist-ledger", "--k", "1", "--n", "3"],
    ):
        assert run(capsys, argv)[0] == 2, argv


def test_out_of_range_parameters_report_range(capsys):
    # TPrime has no k, so any k but 0 is out of its range
    for family, k in (("Sk", "9"), ("TPrime", "7")):
        rc, out, err = run(capsys, ["tilting", "--family", family, "--k", k, "--n", "3"])
        assert rc == 2 and out == "", family
        assert "range" in err, family
    rc, _, err = run(capsys, ["hilbert", "--module", "M(7)", "--n", "3"])
    assert rc == 2
    assert "range" in err
    # L(k) names its own parameter, not that of the omega bundle it is
    # built from
    for k in ("-1", "3"):
        rc, out, err = run(capsys, ["hilbert", "--module", f"L({k})", "--n", "3"])
        assert (rc, out, err) == (2, "", f"error: k={k} out of range [0, 2]\n")
    # a negative length or degree cap has nothing to check, so it must
    # not pass vacuously
    for argv in (
        ["quiver", "--compare", "--n", "3", "--max-len", "-1"],
        ["quiver", "--dims", "--max-len", "-2"],
        ["hilbert", "--module", "M(0)", "--n", "3", "--cap", "-1"],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error: ") and "range" in err, argv


def test_quiver_compare(capsys):
    rc, out, _ = run(capsys, ["quiver", "--compare", "--n", "2", "--max-len", "6"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_quiver_uncertified_cell_is_a_check_failure(capsys, understate_target):
    understate_target((3, 1, 1, 6))
    rc, out, err = run(capsys, ["quiver", "--dims", "--n", "3", "--max-len", "6"])
    assert rc == 1 and out == ""
    assert err.startswith("error: cell (a=1, b=1, l=6)")
    assert len(err.splitlines()) == 1
    rc, out, _ = run(capsys, ["quiver", "--compare", "--n", "3", "--max-len", "6"])
    assert rc == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["mismatches"] == [
        {"a": 1, "b": 1, "length": 6, "dim": 64, "target": 63}]


def test_quiver_dims_csv(capsys):
    rc, out, _ = run(
        capsys,
        ["quiver", "--dims", "--n", "2", "--max-len", "2", "--output", "csv"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,l,paths,relations_rank,dim"
    assert "0,0,2,4,1,3" in lines


def test_kflop_ledger(capsys):
    rc, out, _ = run(capsys, ["kflop", "--ptwist-ledger", "--n", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any(s["step"] == "twisted-profile" for s in payload["steps"])


def test_rep_subcommand(capsys):
    rc, out, _ = run(capsys, ["rep", "--alpha", "0,0,1", "--beta", "1/2,0,0"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["simple"] is True
    assert payload["X"][2][0] == "1/2"
    rc, _, err = run(capsys, ["rep", "--alpha", "1,0", "--beta", "1,0"])
    assert rc == 2


def test_rep_reports_the_rational_pairing(capsys):
    # the pairing is tested on the integer lift, numerators (2, 0) and
    # (1, 0) over the common denominator 2, whose sum is 2; the message
    # prints the rational pairing
    rc, out, err = run(capsys, ["rep", "--alpha", "1,0", "--beta", "1/2,0"])
    assert (rc, out) == (2, "")
    assert "pairing <beta, alpha> = 1/2 must vanish" in err


def test_hilbert_subcommand(capsys):
    rc, out, _ = run(
        capsys, ["hilbert", "--module", "M(0)", "--n", "2", "--cap", "4", "--output", "csv"]
    )
    assert rc == 0
    assert out.splitlines()[1:] == ["0,1", "1,3", "2,5", "3,7", "4,9"]


def test_mutate_orbit(capsys):
    rc, out, _ = run(capsys, ["mutate", "--n", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["closed_after"] == 4


def test_tilting_subcommand(capsys):
    rc, out, _ = run(capsys, ["tilting", "--family", "Sk", "--k", "1", "--n", "3"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    rc, out, _ = run(capsys, ["tilting", "--family", "TPlus", "--n", "3"])
    assert rc == 0


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("n=2\ncap=3\n")
    rc, out, _ = run(capsys, ["--config", str(cfg), "hilbert", "--module", "M(0)"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and len(payload["dims"]) == 4
    rc, out, _ = run(
        capsys, ["--config", str(cfg), "hilbert", "--module", "M(0)", "--cap", "1"]
    )
    payload = json.loads(out)
    assert len(payload["dims"]) == 2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MINORBIT_OUTPUT_DIR", str(tmp_path))
    rc, out, _ = run(
        capsys, ["coh", "--n", "2", "--bundle", "O(1)", "--out", "table.json"]
    )
    assert rc == 0
    written = tmp_path / "table.json"
    assert written.exists()
    assert json.loads(written.read_text())["cohomology"] == {"0": 2}


def assert_usage_error(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == "", argv
    assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_out_stays_under_output_dir(tmp_path, capsys, monkeypatch):
    base = tmp_path / "base"
    base.mkdir()
    monkeypatch.setenv("MINORBIT_OUTPUT_DIR", str(base))
    for out in (str(tmp_path / "abs.json"), "../up.json", "sub/../../up.json"):
        assert_usage_error(capsys, ["coh", "--n", "2", "--bundle", "O(1)", "--out", out])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base"]
    assert not any(base.iterdir())
    rc, _, _ = run(capsys, ["coh", "--n", "2", "--bundle", "O(1)", "--out", "sub/../in.json"])
    assert rc == 0 and (base / "in.json").exists()


def test_config_rejects_unknown_keys_and_outputs(tmp_path, capsys):
    for text in ("output=xml\n", "n=2\nmax-len=2\n"):
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        assert_usage_error(
            capsys, ["--config", str(cfg), "quiver", "--dims", "--n", "2", "--max-len", "1"])


def test_config_rejects_a_non_integer_size_with_its_key_and_line(tmp_path, capsys):
    # checked as the file is read, like output, whether or not the
    # subcommand or the command line uses the key
    cfg = tmp_path / "cfg"
    for key in ("n", "cap", "max_len"):
        cfg.write_text(f"# sizes\noutput=json\n{key}=abc\n")
        for argv in (["hilbert", "--module", "M(0)"],
                     ["quiver", "--dims", "--n", "2", "--max-len", "1"]):
            rc, out, err = run(capsys, ["--config", str(cfg)] + argv)
            assert (rc, out) == (2, ""), (key, argv)
            assert err == f"error: config line 3: {key} must be an integer, not 'abc'\n"


def test_pretty_marks_each_list_item(capsys):
    rc, out, _ = run(capsys, ["quiver", "--dims", "--n", "2", "--max-len", "1",
                              "--output", "pretty"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[2:9] == ["cells:", "  - a: 0", "    b: 0", "    l: 0", "    paths: 1",
                          "    relations_rank: 0", "    dim: 1"]
    assert [line for line in lines if line.startswith("  - ")] == [
        "  - a: 0", "  - a: 1", "  - a: 0", "  - a: 1"]
    from minorbit.cli import _pretty

    # an empty list or dict prints inline, not as an empty line
    assert _pretty({"x": [{"a": 1, "b": [2, 3]}, [4], 5, {}], "y": []}).splitlines() == [
        "x:", "  - a: 1", "    b:", "      - 2", "      - 3", "  - - 4", "  - 5", "  - {}",
        "y: []"]


def test_csv_needs_a_table(capsys):
    for argv in (
        ["tilting", "--family", "Tk", "--n", "3"],
        ["quiver", "--compare", "--n", "2", "--max-len", "2"],
        ["rep", "--alpha", "0,0,1", "--beta", "1/2,0,0"],
        ["kflop", "--matrix", "--n", "3"],
        ["mutate", "--n", "3"],
    ):
        assert_usage_error(capsys, argv + ["--output", "csv"])


def test_csv_without_a_table_is_rejected_before_computing(tmp_path, capsys, monkeypatch):
    # the check runs when the arguments are parsed, also for output=csv
    # from a config file; none of these computations may start
    from minorbit import cli

    def never(*args, **kwargs):
        raise AssertionError("computed a report that --output csv cannot print")

    for mod, name in ((cli.cohengine, "tilting_check"), (quiveralg, "compare_with_nccr"),
                      (cli.repmoduli, "rep_from_triple"), (cli.kfunctor, "kn_matrix"),
                      (cli.mutation, "orbit_check")):
        monkeypatch.setattr(mod, name, never)
    cfg = tmp_path / "cfg"
    cfg.write_text("output=csv\n")
    for argv in (
        ["tilting", "--family", "Tk", "--n", "3"],
        ["quiver", "--compare", "--n", "6", "--max-len", "5"],
        ["rep", "--alpha", "0,0,1", "--beta", "1/2,0,0"],
        ["kflop", "--matrix", "--n", "3"],
        ["mutate", "--n", "3"],
    ):
        assert_usage_error(capsys, argv + ["--output", "csv"])
        assert_usage_error(capsys, ["--config", str(cfg)] + argv)


def test_missing_config_or_out_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from minorbit import cli

    def never(*args, **kwargs):
        raise AssertionError("computed a report that cannot be written")

    monkeypatch.setenv("MINORBIT_OUTPUT_DIR", str(tmp_path))
    assert_usage_error(capsys, ["--config", str(tmp_path / "nofile"),
                                "coh", "--n", "2", "--bundle", "O(1)"])
    monkeypatch.setattr(cli.bwb, "cohomology", never)
    assert_usage_error(capsys, ["coh", "--n", "2", "--bundle", "O(1)",
                                "--out", "nodir/x.json"])
    assert not any(tmp_path.iterdir())


def test_python_m_minorbit_runs_the_cli():
    src = str(Path(bwb.__file__).resolve().parents[1])
    for argv, code in ((["--help"], 0), (["nosuchcommand"], 2)):
        proc = subprocess.run([sys.executable, "-m", "minorbit", *argv],
                              capture_output=True, text=True, env={"PYTHONPATH": src})
        assert proc.returncode == code, (argv, proc.stderr)
        assert "usage: minorbit" in proc.stdout + proc.stderr


def test_commands_off_the_quiver_engine_load_no_numpy():
    # numpy is most of a CLI call's start-up, and only quiver and accept
    # run the engine that needs it
    src = str(Path(bwb.__file__).resolve().parents[1])
    code = ("import sys, minorbit.cli as c; "
            "c.main(['hilbert', '--n', '4', '--module', 'L(2)']); "
            "c.main(['mutate', '--n', '4']); "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
    assert '"pass": true' in proc.stdout


def test_reader_closing_the_pipe_early_exits_1_quietly():
    # the report (about 115 KiB) outgrows a 64 KiB pipe buffer, so the
    # write is still pending when the reader closes the pipe after 200
    # bytes; a report that fit would exit 0
    src = str(Path(bwb.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "minorbit.cli", "hilbert", "--n", "4",
         "--module", "M(2)", "--cap", "4000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": src},
    )
    head = proc.stdout.read(200)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert len(head) == 200
    # no traceback, and no "Exception ignored" from the exit flush
    assert err == ""


def test_accept_reports_a_criterion_that_raises(capsys, monkeypatch, fresh_engines):
    # without one off-diagonal mixed generator the set is not S_n-stable,
    # so the engine raises ValueError for every n >= 3; criterion 1 fails
    # with that message, criteria 2-10 still run, and the exit is a check
    # failure, not a usage error.  Criteria 1 and 10 are real, as they
    # share the engine registry the raise passes through; 2-9 are stubs
    # that record their run (test_acceptance runs the real ones)
    ran = []

    def stub(number):
        def criterion():
            ran.append(number)
            return acceptance.CriterionResult(number, f"stub {number}", True)
        return criterion

    criteria = acceptance.ALL_CRITERIA
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        [criteria[0], *map(stub, range(2, 10)), criteria[9]])
    real = quiveralg.relation_generators

    def one_mixed_dropped(n):
        gens = real(n)
        drop = next((g for g in gens if g.name == "mixed" and
                     g.terms[0][1][0][1] != g.terms[0][1][1][1]), None)
        return tuple(g for g in gens if g is not drop)

    monkeypatch.setattr(quiveralg, "relation_generators", one_mixed_dropped)
    rc, out, err = run(capsys, ["accept"])
    assert rc == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "FAIL criterion 1: raised ValueError"
    assert lines[1].strip().startswith("generator mixed (1 -> 1) is not S_n-stable")
    assert lines[2:-1] == [f"PASS criterion {c}: stub {c}" for c in range(2, 10)]
    assert lines[-1].startswith("PASS criterion 10: ") and len(lines) == 11
    assert ran == list(range(2, 10))


def test_determinism(capsys):
    rc1, out1, _ = run(capsys, ["coh", "--n", "4", "--bundle", "hom(2,3,1)"])
    rc2, out2, _ = run(capsys, ["coh", "--n", "4", "--bundle", "hom(2,3,1)"])
    assert (rc1, out1) == (rc2, out2)


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv[1:] for argv in lines if argv and argv[0] == "minorbit"]
    assert len(examples) >= 10
    for argv in examples:
        assert run(capsys, argv)[0] == 0, argv
