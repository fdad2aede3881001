import json
import os
import subprocess
import sys

import pytest

import hermhecke
from hermhecke import arthur
from hermhecke.cli import build_parser, main
from hermhecke.coefficients import CoefficientStore
from hermhecke.eisenstein import ideal_above
from hermhecke.fixtures import load_seed_sqrt3
from hermhecke.lattice import HermitianLattice
from hermhecke.neighbour import GenusEnumeration, enumerate_genus, save_genus


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip().startswith(("{", "[")) else out


def test_fixtures_check(capsys):
    rc, out = run(capsys, "fixtures", "check")
    assert rc == 0
    assert out["ok"] is True


def _data_copy(directory, monkeypatch, name, edit):
    """Copy the shipped data into directory with edit(doc) applied to the
    document `name`, and point HERMHECKE_DATA at the copy."""
    data = os.path.join(os.path.dirname(hermhecke.__file__), "data")
    for file in os.listdir(data):
        if file.endswith(".json"):
            with open(os.path.join(data, file)) as fh:
                doc = json.load(fh)
            if file == name:
                edit(doc)
            with open(directory / file, "w") as fh:
                json.dump(doc, fh)
    monkeypatch.setenv("HERMHECKE_DATA", str(directory))


def test_fixtures_check_reads_hermhecke_data(tmp_path, monkeypatch, capsys):
    # HERMHECKE_DATA is the one way to point the fixtures at another copy
    def bump(doc):
        doc["rows"][0][0] += 1
    _data_copy(tmp_path, monkeypatch, "t2_unimodular_20.json", bump)
    rc, out = run(capsys, "fixtures", "check")
    assert rc == 2
    assert out["failures"][0].startswith("t2_20x20: row 1 sums to")


@pytest.fixture
def f12_79(tmp_path, monkeypatch):
    """HERMHECKE_DATA at a copy of the data whose store has a_2(f12) = 79
    (78 shipped)."""
    def edit(doc):
        doc["forms"]["f12"]["coeffs"]["2"] = "79"
    _data_copy(tmp_path, monkeypatch, "coefficients.json", edit)
    return tmp_path


def test_arthur_verify_table_reads_hermhecke_data(f12_79, capsys):
    # the table is checked against the directory's store, not the shipped one
    rc, out = run(capsys, "arthur", "verify-table")
    assert rc == 2
    assert [lab for lab, st in out["t2"].items() if st == "mismatch"] == \
        ["3", "7", "15"]


def test_arthur_eval_reads_hermhecke_data(f12_79, capsys):
    store = CoefficientStore.load()
    assert str(store.a("f12", 2)) == "79"
    param = "3D11 + [10]"
    value = arthur.eigenvalue_at(arthur.parse_parameter(param),
                                 ideal_above(2), store)
    rc, out = run(capsys, "arthur", "eval", param, "--prime", "2")
    assert rc == 0
    assert out["value"] == str(value) != "1401453"


def test_seed_reads_hermhecke_data(f12_79):
    HermitianLattice.standard(4).save(f12_79 / "seed_sqrt3_rank4.json")
    assert load_seed_sqrt3() == HermitianLattice.standard(4)


# one valid command line per subcommand, and the flags their handlers read
COMMANDS = {
    "genus": ["genus", "l.json", "--prime", "2"],
    "neighbours": ["neighbours", "l.json", "--prime", "2"],
    "hecke direct": ["hecke", "direct", "--genus", "g", "--prime", "2"],
    "hecke intertwining": ["hecke", "intertwining", "--genus", "g",
                           "--prime", "2"],
    "hecke fixture": ["hecke", "fixture", "t2-5"],
    "eigen": ["eigen"],
    "congruences": ["congruences"],
    "arthur verify-table": ["arthur", "verify-table"],
    "arthur eval": ["arthur", "eval", "D11", "--prime", "2"],
    "arthur congruence": ["arthur", "congruence", "2", "1", "691"],
    "theta": ["theta", "l.json"],
    "fixtures": ["fixtures", "check"],
}
READERS = {"--allow-long": {"genus", "neighbours"},
           "--verbose": {"genus", "hecke direct", "hecke intertwining"}}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", READERS)
def test_flag_only_after_the_commands_that_read_it(capsys, flag, command):
    argv = COMMANDS[command]
    if command in READERS[flag]:
        args = build_parser().parse_args(argv + [flag])
        assert getattr(args, flag[2:].replace("-", "_")) is True
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([flag] + argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hecke", "fixture", "t2-5", "--prime", "2"],
    ["hecke", "fixture", "t2-5", "--genus", "g"],
    ["hecke", "fixture"],
    ["hecke", "direct", "--genus", "g", "--prime", "2", "--fixture", "t2-5"],
    ["hecke", "direct", "--genus", "g", "t2-5", "--prime", "2"],
    ["hecke", "direct", "--prime", "2"],
    ["hecke", "intertwining", "--genus", "g"],
    ["hecke", "--prime", "2", "direct", "--genus", "g"],
    ["hecke", "--method", "fixture"],
    ["hecke"],
], ids=["fixture-prime", "fixture-genus", "fixture-none", "direct-fixture",
        "direct-positional", "direct-no-genus", "intertwining-no-prime",
        "prime-before-method", "method-flag", "no-method"])
def test_hecke_flags_only_on_the_method_that_reads_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hermhecke") and "error: " in err


def test_hecke_unknown_fixture(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hecke", "fixture", "t5-20"])
    assert exc.value.code == 2
    assert "invalid choice: 't5-20'" in capsys.readouterr().err


def test_arthur_verify_table(capsys):
    rc, out = run(capsys, "arthur", "verify-table")
    assert rc == 0
    assert all(v == "match" for v in out["t2"].values())


def test_arthur_eval(capsys):
    rc, out = run(capsys, "arthur", "eval", "D11 + [10]", "--prime", "2")
    assert rc == 0
    assert out["value"] == "1395945"


def test_arthur_eval_dimension_error(capsys):
    rc = main(["arthur", "eval", "D11", "--prime", "2"])
    assert rc == 2


def test_arthur_eval_unsupported(capsys):
    rc = main(["arthur", "eval", "D11 + D9,1 + 3D5[3]", "--prime", "3"])
    assert rc == 3


def test_arthur_congruence(capsys):
    rc, out = run(capsys, "arthur", "congruence", "2", "1", "691")
    assert rc == 0


@pytest.mark.parametrize("q", [0, 1, 4, -691])
def test_arthur_congruence_needs_a_prime_modulus(capsys, q):
    rc = main(["arthur", "congruence", "2", "1", str(q)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"q = {q} is not a prime" in err


def test_arthur_congruence_unknown_label(capsys):
    rc = main(["arthur", "congruence", "21", "1", "691"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "unknown label 21" in err and "20]" in err


@pytest.mark.parametrize("q", [2, 3])
def test_arthur_congruence_reports_every_ideal(capsys, q):
    # labels 12 and 13 have quadratic eigenvalues; at the even prime 2 their
    # difference cannot be tested, which skips that ideal, not the call
    rc, out = run(capsys, "arthur", "congruence", "12", "13", str(q))
    assert rc == 0
    report = out[f"12 = 13 mod {q}"]
    assert list(report) == ["(2)", "(3)"]
    assert all(v is True or v.startswith("skipped (") for v in report.values())
    if q == 2:
        assert "even or ramified" in report["(2)"]


def test_congruences_deterministic(capsys):
    rc1, out1 = run(capsys, "congruences", "--qmin", "11")
    rc2, out2 = run(capsys, "congruences", "--qmin", "11")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert {(r["i"] if isinstance(r["i"], int) else tuple(r["i"]),
             r["j"] if isinstance(r["j"], int) else tuple(r["j"]),
             r["q"]) for r in out1} >= {(2, 1, 691), (16, 11, 11)}


def test_eigen(capsys):
    rc, out = run(capsys, "eigen")
    assert rc == 0
    assert len(out["rows"]) == 20


def test_hecke_fixture(capsys):
    rc, out = run(capsys, "hecke", "fixture", "t2-5")
    assert rc == 0
    assert len(out["rows"]) == 5


def test_theta_cmd(tmp_path, capsys):
    p = tmp_path / "l.json"
    HermitianLattice.standard(2).save(p)
    rc, out = run(capsys, "theta", str(p), "--precision", "3")
    assert rc == 0
    assert out["coefficients"][0] == 1


def test_neighbours_count(tmp_path, capsys):
    p = tmp_path / "l.json"
    HermitianLattice.standard(3).save(p)
    rc, out = run(capsys, "neighbours", str(p), "--prime", "2", "--count-only")
    assert rc == 0
    assert out["count"] == 18


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A rank-3 lattice file and the saved genus of <1, 1, 7> at (sqrt-3)."""
    d = tmp_path_factory.mktemp("inputs")
    HermitianLattice.standard(3).save(d / "l.json")
    L7 = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 7]])
    save_genus(enumerate_genus(L7, ideal_above(3)), d / "genus")
    return d


@pytest.mark.parametrize("argv", [
    ["neighbours", "{l}", "--prime", "2"],
    ["neighbours", "{l}", "--prime", "2", "--count-only"],
    ["hecke", "direct", "--genus", "{genus}", "--prime", "3"],
    ["hecke", "intertwining", "--genus", "{genus}", "--prime", "3"],
    ["hecke", "fixture", "t2-5"],
    ["eigen"],
    ["congruences"],
    ["arthur", "verify-table"],
    ["theta", "{l}"],
], ids=["neighbours", "neighbours --count-only", "hecke direct",
        "hecke intertwining", "hecke fixture", "eigen", "congruences",
        "arthur verify-table", "theta"])
def test_out_writes_what_is_printed(inputs, tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    argv = [a.format(l=inputs / "l.json", genus=inputs / "genus") for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(("{", "[")) and out.read_text() == printed


@pytest.mark.parametrize("argv", [["eigen"], ["hecke", "fixture", "t2-5"]],
                         ids=["eigen", "hecke fixture"])
def test_closed_stdout_exits_1_quietly(argv):
    # `hermhecke eigen | head -c 10`: a reader that stops early is no bad
    # input; the reader here closes the pipe before anything is written
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermhecke.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "hermhecke.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_neighbours_at_split_prime(tmp_path, capsys):
    p = tmp_path / "l.json"
    HermitianLattice.standard(3).save(p)
    rc, out = run(capsys, "neighbours", str(p), "--prime", "7")
    assert rc == 0
    assert out["count"] == len(out["neighbours"]) == 57


def test_genus_requires_allow_long(tmp_path, capsys):
    p = tmp_path / "l.json"
    HermitianLattice.standard(12).save(p)
    rc = main(["genus", str(p), "--prime", "2"])
    assert rc == 3


def test_neighbours_requires_allow_long(tmp_path, capsys):
    # a rank >= 8 neighbour set is built only with --allow-long; counting
    # builds no lattice and needs no flag
    p = tmp_path / "l.json"
    HermitianLattice.standard(8).save(p)
    rc = main(["neighbours", str(p), "--prime", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == "" and "needs --allow-long" in captured.err
    rc, out = run(capsys, "neighbours", str(p), "--prime", "2", "--count-only")
    assert rc == 0
    assert out == {"admissible_lines": 10965, "count": 21930}


def test_hecke_direct_on_incomplete_genus(tmp_path, capsys):
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 7]])
    g = enumerate_genus(L, ideal_above(3))
    save_genus(GenusEnumeration(g.representatives[:1], g.aut_orders[:1],
                                g.prime), tmp_path)
    rc = main(["hecke", "direct", "--genus", str(tmp_path), "--prime", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "matches no representative" in err


@pytest.mark.parametrize("manifest, key", [
    ({"class_count": 1}, "aut_orders"),
    ({"class_count": 1, "aut_orders": [1, 1]}, "aut_orders"),
    ({"class_count": 1, "aut_orders": [0]}, "aut_orders"),
    ({"class_count": 0, "aut_orders": []}, "class_count"),
    ({"class_count": "1", "aut_orders": [1]}, "class_count"),
    ([], "class_count"),
], ids=["no-aut-orders", "short", "zero-order", "no-class", "str-count",
        "not-an-object"])
def test_hecke_direct_on_malformed_manifest(tmp_path, capsys, manifest, key):
    HermitianLattice.standard(3).save(tmp_path / "class_000.json")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["hecke", "direct", "--genus", str(tmp_path), "--prime", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and key in err and "manifest.json" in err


def test_verbose_reports_progress_on_stderr(tmp_path, capsys):
    lattice, genus = tmp_path / "l.json", tmp_path / "genus"
    HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 7]]).save(lattice)
    # genus finds class 2 on row 1; the loaded genus knows all three; the
    # sublattice genus grows a class on each row
    runs = [(["genus", str(lattice), "--prime", "3", "--out", str(genus)],
             12, (2, 3, 3)),
            (["hecke", "direct", "--genus", str(genus), "--prime", "3"],
             12, (3, 3, 3)),
            (["hecke", "intertwining", "--genus", str(genus), "--prime", "3"],
             4, (1, 2, 3))]
    outs = []
    for argv, placed, known in runs:
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert main(argv + ["--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.err == ""
        # one report at the end of each class row
        assert loud.err.splitlines() == [
            f"class {i}: {placed} lattices placed, {h} classes known"
            for i, h in enumerate(known)]
        outs.append(json.loads(loud.out))
    assert outs[0]["discovery"] == [[0, 1], [1, 2]]
    assert outs[1]["rows"] == outs[2]["rows"] == [[0, 12, 0], [1, 8, 3], [0, 6, 6]]


@pytest.mark.parametrize("argv", [
    ["theta", "{missing}"],
    ["hecke", "direct", "--genus", "{missing}", "--prime", "2"],
], ids=["lattice", "genus"])
def test_missing_input_path(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing")
    rc = main([a.format(missing=missing) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and missing in err


def test_genus_out_is_an_existing_file(tmp_path, capsys):
    lattice, out = tmp_path / "l.json", tmp_path / "genus"
    HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 5]]).save(lattice)
    out.write_text("")
    rc = main(["genus", str(lattice), "--prime", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and str(out) in err


def _gram_with(entry, at):
    gram = [[[int(i == j), 0] for j in range(3)] for i in range(3)]
    i, j = at
    gram[i][j] = gram[j][i] = entry
    return gram


@pytest.mark.parametrize("argv, doc, where", [
    (["theta"], {"rank": 1, "gram": [[[1.5, 0]]]}, "row 0, column 0"),
    (["theta"], {"rank": 1, "gram": [["10"]]}, "row 0, column 0"),
    (["neighbours", "--prime", "2", "--count-only"],
     {"rank": 3, "gram": _gram_with([0.5, 0], (0, 1))}, "row 0, column 1"),
    (["theta"], {"gram": [[[1, 0]]]}, "keys rank and gram"),
    (["theta"], {"rank": 2, "gram": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]},
     "not Hermitian"),
], ids=["float", "str", "off-diagonal", "no-rank", "non-hermitian"])
def test_malformed_lattice_json(tmp_path, capsys, argv, doc, where):
    p = tmp_path / "l.json"
    p.write_text(json.dumps(doc))
    rc = main([argv[0], str(p)] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert captured.err.count("\n") == 1 and where in captured.err


def test_genus_script_requires_allow_long():
    # the rank-12 driver imports the library, then stops before any lattice
    # work without --allow-long
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermhecke.__file__)))
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "enumerate_sqrt3_genus.py")
    done = subprocess.run([sys.executable, script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert not done.stdout
    assert "rerun with --allow-long" in done.stderr
