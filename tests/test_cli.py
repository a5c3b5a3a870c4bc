import hashlib
import json

from treecuts import cli
from treecuts.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_gen_and_oracle_round(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    code, out, err = run(capsys, "gen", "--family", "star", "--r", "3", "-o", gpath)
    assert code == 0
    code, out, err = run(capsys, "oracle", gpath, "--variant", "stcw")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 1
    assert set(obj) == {"variant", "value", "decomposition"}
    # the oracle is exhaustive and has no empty-bag setting to pass
    code, _, err = run(capsys, "oracle", gpath, "--variant", "tcw", "--empty-budget", "3")
    assert code == 2
    assert "unrecognized arguments" in err


def test_widths_verify_witness_pipeline(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "windmill", "--r", "2", "-o", gpath)

    code, out, _ = run(capsys, "oracle", gpath, "--variant", "tcw")
    assert code == 0
    # oracle output embeds the decomposition; extract it for the next steps
    dpath = str(tmp_path / "d.json")
    with open(dpath, "w") as fh:
        json.dump(json.loads(out)["decomposition"], fh, indent=2)
        fh.write("\n")

    code, out, _ = run(capsys, "verify-decomp", gpath, "--decomp", dpath)
    assert code == 0 and out.strip() == "OK"

    code, out, _ = run(capsys, "widths", gpath, "--decomp", dpath)
    assert code == 0
    rep = json.loads(out)
    assert rep["width"] == 2

    code, out, _ = run(capsys, "to-witness", gpath, "--decomp", dpath)
    assert code == 0
    wpath = str(tmp_path / "w.json")
    with open(wpath, "w") as fh:
        fh.write(out)
    code, out, _ = run(capsys, "verify-witness", wpath)
    assert code == 0 and out.strip() == "OK"

    code, out, _ = run(capsys, "to-decomp", wpath)
    assert code == 0
    json.loads(out)


def test_ecw_exact_and_budget_exit(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "ladder", "--r", "3", "-o", gpath)
    code, out, _ = run(capsys, "ecw-exact", gpath)
    assert code == 0
    obj = json.loads(out)
    assert obj["ecw"] >= 1
    code, _, err = run(capsys, "ecw-exact", gpath, "--budget", "1")
    assert code == 3


def test_oracle_size_limit_exit(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "wall", "--r", "3", "-o", gpath)
    code, _, err = run(capsys, "oracle", gpath, "--variant", "tcw")
    assert code == 3


def test_oracle_past_index_width_exits_3(tmp_path, capsys):
    # 64 vertices pass --max-vertices 64, but a table of 2^64 cut sizes
    # cannot be indexed: refused before anything is allocated
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "ladder", "--r", "32", "-o", gpath)
    code, out, err = run(capsys, "oracle", gpath, "--variant", "tcw", "--max-vertices", "64")
    assert code == 3 and out == ""
    assert err.startswith("error: 64 vertices") and err.count("\n") == 1


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "exact_width", exhausted)
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "star", "--r", "3", "-o", gpath)
    code, out, err = run(capsys, "oracle", gpath, "--variant", "tcw")
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


def test_failed_normalization_exits_3(tmp_path, capsys):
    # a valid decomposition with no nice tree within its widths: the
    # normalization's search caps run out, which is no input error
    gpath, dpath = tmp_path / "g.txt", tmp_path / "d.json"
    gpath.write_text("6 5\n0 1\n1 4\n1 5\n2 3\n3 5\n")
    nodes = [(1, None, [2, 4]), (3, 1, []), (0, 3, [0, 1]), (2, 3, [3, 5])]
    dpath.write_text(json.dumps({
        "root": 1, "nodes": [{"id": t, "parent": p, "bag": b} for t, p, b in nodes],
    }))
    code, out, _ = run(capsys, "verify-decomp", str(gpath), "--decomp", str(dpath))
    assert code == 0 and out == "OK\n"
    code, out, err = run(capsys, "to-witness", str(gpath), "--decomp", str(dpath))
    assert code == 3 and out == ""
    assert err == (
        "error: no reattachment sequence keeps width 2 / slim width 3 "
        "(verified DFS from each of 4 roots, then best-first search)\n"
    )


def test_edge_list_size_limit_exit(tmp_path, capsys):
    gpath = tmp_path / "huge.txt"
    gpath.write_text("10000000000 0\n")
    code, out, err = run(capsys, "ecw-exact", str(gpath))
    assert code == 3 and out == ""
    assert "exceed the limit" in err


def test_verify_rejects_bad_artifacts(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "star", "--r", "2", "-o", gpath)
    dpath = str(tmp_path / "bad.json")
    with open(dpath, "w") as fh:
        json.dump(
            {"root": 0, "nodes": [{"id": 0, "parent": None, "bag": [0]}]}, fh
        )
    code, out, err = run(capsys, "verify-decomp", gpath, "--decomp", dpath)
    assert code == 2
    assert err.strip()


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "widths", "/no/such/file", "--decomp", "/none")
    assert code == 2


def test_bad_usage_exit(capsys):
    # argparse errors are folded into the input-error exit code
    assert main(["gen", "--family", "mystery", "--r", "2"]) == 2
    capsys.readouterr()


def test_bad_pairs_and_providers_exit_2(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "windmill", "--r", "2", "-o", gpath)
    code, out, err = run(capsys, "edp", gpath, "--pairs", "0-1-2")
    assert code == 2 and out == ""
    assert err == "error: bad pair '0-1-2'; expected like 0-2\n"
    code, out, err = run(capsys, "approx", gpath, "--omega", "2", "--provider", "foo")
    assert code == 2 and out == ""
    assert err == "error: --provider must be 'oracle' or 'exec:<path>'\n"
    prog = tmp_path / "bad.sh"
    prog.write_text("#!/bin/sh\ncat > /dev/null\necho 'DECOMP{bad'\n")
    prog.chmod(0o755)
    code, out, err = run(capsys, "approx", gpath, "--omega", "2", "--provider", f"exec:{prog}")
    assert code == 2 and out == ""
    assert err.startswith("error: provider emitted bad JSON: not valid JSON: ")


def test_edp_yes_and_no(tmp_path, capsys):
    gpath = str(tmp_path / "c4.txt")
    with open(gpath, "w") as fh:
        fh.write("4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, _ = run(capsys, "edp", gpath, "--pairs", "0-2,0-2")
    assert code == 0
    assert out.splitlines()[0] == "yes"
    assert any("->" in line for line in out.splitlines()[1:])
    code, out, _ = run(capsys, "edp", gpath, "--pairs", "0-2,1-3")
    assert code == 1
    assert out.splitlines()[0] == "no"


def test_approx_accept_and_no(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "windmill", "--r", "4", "-o", gpath)
    code, out, err = run(capsys, "approx", gpath, "--omega", "2")
    assert code == 0
    json.loads(out)  # decomposition artifact on stdout
    audit = json.loads(err)
    assert audit["reason"] == "certified"
    code, out, err = run(capsys, "approx", gpath, "--omega", "1")
    assert code == 1
    assert out.strip() == "NO"
    assert json.loads(err)["reason"] == "provider-no"


def test_export_dot_all_artifacts(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "star", "--r", "2", "-o", gpath)
    code, out, _ = run(capsys, "export-dot", gpath)
    assert code == 0 and out.startswith("graph")

    code, out, _ = run(capsys, "oracle", gpath, "--variant", "tcw")
    obj = json.loads(out)
    dpath = str(tmp_path / "d.json")
    with open(dpath, "w") as fh:
        json.dump(obj["decomposition"], fh)
    code, out, _ = run(capsys, "export-dot", dpath)
    assert code == 0 and "shape=box" in out

    code, wout, _ = run(capsys, "to-witness", gpath, "--decomp", dpath)
    wpath = str(tmp_path / "w.json")
    with open(wpath, "w") as fh:
        fh.write(wout)
    code, out, _ = run(capsys, "export-dot", wpath)
    assert code == 0 and "penwidth=2" in out


CLI_GOLDEN = "455329903d6e50f6160d33beb72178f0327543b5c3a332bdc9c85c2b615831b6"


def test_cli_outputs_golden(tmp_path, capsys, monkeypatch):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    tmp = str(tmp_path)
    h = hashlib.sha256()

    def step(*argv):
        code, out, err = run(capsys, *argv)
        rec = [[a.replace(tmp, "<tmp>") for a in argv], code,
               out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")]
        h.update(json.dumps(rec).encode() + b"\n")
        return code, out

    def path(name, text=None):
        p = str(tmp_path / name)
        if text is not None:
            with open(p, "w") as fh:
                fh.write(text)
        return p

    files = {}
    for family, r in [("star", 3), ("windmill", 2), ("wall", 3), ("ladder", 3)]:
        code, out = step("gen", "--family", family, "--r", str(r))
        assert code == 0
        files[family] = path(f"{family}.txt", out)
    g = files["windmill"]
    code, out = step("oracle", g, "--variant", "tcw")
    assert code == 0
    d = path("d.json", json.dumps(json.loads(out)["decomposition"], indent=2) + "\n")
    assert step("oracle", files["wall"], "--variant", "tcw")[0] == 3
    assert step("widths", g, "--decomp", d)[0] == 0
    code, out = step("to-witness", g, "--decomp", d)
    assert code == 0
    w = path("w.json", out)
    assert step("to-decomp", w)[0] == 0
    assert step("ecw-exact", files["ladder"])[0] == 0
    assert step("ecw-exact", files["ladder"], "--budget", "1")[0] == 3

    bad_d = path("bad_d.json", json.dumps(
        {"root": 0, "nodes": [{"id": 0, "parent": None, "bag": [0]}]}))
    wobj = json.loads(out)
    wobj["tree_edges"].pop()
    bad_w = path("bad_w.json", json.dumps(wobj))
    assert step("verify-decomp", g, "--decomp", d)[0] == 0
    assert step("verify-decomp", g, "--decomp", bad_d)[0] == 2
    assert step("verify-witness", w)[0] == 0
    assert step("verify-witness", bad_w)[0] == 2

    code, out = step("gen", "--family", "windmill", "--r", "4")
    g4 = path("windmill4.txt", out)
    assert step("approx", g4, "--omega", "2")[0] == 0
    assert step("approx", g4, "--omega", "1")[0] == 1

    c4 = path("c4.txt", "4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert step("edp", c4, "--pairs", "0-2,0-2")[0] == 0
    assert step("edp", c4, "--pairs", "0-2,1-3")[0] == 1
    assert step("edp", g, "--pairs", "0-1,1-2", "--witness", w)[0] == 0

    for art in (g, d, w):
        assert step("export-dot", art)[0] == 0
    assert step("gen", "--family", "mystery", "--r", "2")[0] == 2
    assert step("widths", path("missing.txt"), "--decomp", d)[0] == 2
    assert h.hexdigest() == CLI_GOLDEN
