import json
import os

from augmis.cli import main
from augmis.io import read_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_named_graph(capsys):
    code, out, err = run(capsys, "solve", "C5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 2
    assert payload["violations"] == []
    assert set(payload["finders"]) == {"path", "tree", "catalog"}
    assert "manifest:" in err


def test_solve_json_schema_keys(capsys):
    code, out, _ = run(capsys, "solve", "P7", "--json")
    payload = json.loads(out)
    assert list(sorted(payload)) == [
        "alpha",
        "finders",
        "iterations",
        "set",
        "violations",
    ]
    assert payload["set"] == [0, 2, 4, 6]


def test_solve_file_and_text_output(tmp_path, capsys):
    path = tmp_path / "c5.col"
    path.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out.splitlines()[0] == "alpha 2"


def test_solve_class_violation_exit_code(capsys):
    # spider(1,1,4) contains the forbidden spider(1,1,3)
    code, out, err = run(capsys, "solve", "S1x1x4", "--validate-class", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["violations"] and payload["violations"][0]["pattern"] == "S1x1x3"
    # without validation the same input exits 0
    code, _, _ = run(capsys, "solve", "S1x1x4", "--json")
    assert code == 0


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "no_such_file.col")
    assert code == 1
    assert "error" in err


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text("p edge 2 1\ne 1 9\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 2" in err


def test_atlas_census_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "cat1.txt"
    out2 = tmp_path / "cat2.txt"
    code, _, err = run(capsys, "atlas", "--n-max", "3", "--out", str(out1))
    assert code == 0
    assert "census 1:1 3:1" in err
    code, _, _ = run(capsys, "atlas", "--n-max", "3", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_atlas_bound(capsys):
    code, _, err = run(capsys, "atlas", "--n-max", "20")
    assert code == 1 and "error" in err


def test_solve_with_catalog_file(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    run(capsys, "atlas", "--n-max", "5", "--filters", "P8,T5,K3x3", "--out", str(cat))
    code, out, _ = run(capsys, "solve", "P5", "--catalog", str(cat), "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == 3


def test_solve_with_malformed_catalog_file(tmp_path, capsys):
    cat = tmp_path / "bad.txt"
    cat.write_text(
        "c augmis catalog v1\nc n_max 7\nc filters -\nc census 7:1\n"
        "7 07ab # n7-1\n"
    )
    code, out, err = run(capsys, "solve", "P5", "--catalog", str(cat))
    assert code == 1
    assert out == ""
    assert "error" in err and "line 5" in err and "Traceback" not in err


def test_verify_lemmas_quick(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "path-or-cycle", "--n-max", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"8": 1, "9": 1}
    assert payload["violations"] == []

    code, out, _ = run(capsys, "verify", "--lemma", "ramsey", "--t", "2", "--p", "2", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 3

    code, out, _ = run(capsys, "verify", "--lemma", "min-classes", "--n-max", "7", "--t", "4", "--json")
    assert code == 0
    assert json.loads(out)["violations"] == []

    code, out, _ = run(capsys, "verify", "--lemma", "anatomy", "--n-max", "8", "--json")
    assert code == 0
    assert json.loads(out)["violations"] == []

    code, out, _ = run(capsys, "verify", "--lemma", "extension", "--p", "2", "--n-max", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == [] and payload["counts"] == {"9": 1}


def test_gen_line_graph(tmp_path, capsys):
    out = tmp_path / "lk4.col"
    code, _, _ = run(capsys, "gen", "--line-graph", "K4", "--out", str(out))
    assert code == 0
    g = read_graph(str(out))
    assert g.n == 6 and g.num_edges == 12
    # alpha of the line graph equals the matching number of K4
    code, solved, _ = run(capsys, "solve", str(out), "--json")
    assert code == 0 and json.loads(solved)["alpha"] == 2


def test_gen_requires_seed(capsys):
    code, _, err = run(capsys, "gen", "--random", "--n", "8")
    assert code == 1 and "seed" in err
    code, _, err = run(capsys, "gen", "--plant", "k=4,p=2")
    assert code == 1 and "seed" in err


def test_gen_random_deterministic(tmp_path, capsys):
    a = tmp_path / "a.col"
    b = tmp_path / "b.col"
    for out in (a, b):
        code, _, _ = run(
            capsys, "gen", "--random", "--n", "10", "--density", "0.3",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_plant_then_solve_and_oracle_agree(tmp_path, capsys):
    out = tmp_path / "plant.col"
    code, _, err = run(
        capsys, "gen", "--plant", "k=4,p=2,extras=2,noise=1", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    code, solved, _ = run(capsys, "solve", str(out), "--p", "2", "--json")
    assert code == 0
    code, oracled, _ = run(capsys, "oracle", "--mis", str(out), "--json")
    assert code == 0
    assert json.loads(solved)["alpha"] == json.loads(oracled)["alpha"]


def test_oracle_values(capsys):
    code, out, _ = run(capsys, "oracle", "--mis", "C5")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "oracle", "--matching", "K4")
    assert code == 0 and out.strip() == "2"


def test_catalog_env_cache(tmp_path, capsys, monkeypatch):
    import augmis.solver as solver_mod

    monkeypatch.setenv("AUGMIS_CATALOG_DIR", str(tmp_path))
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    code, out, _ = run(capsys, "solve", "P5", "--catalog-n-max", "5", "--json")
    assert code == 0
    files = os.listdir(tmp_path)
    assert len(files) == 1 and files[0].startswith("catalog-n5-")
    before = (tmp_path / files[0]).read_bytes()
    # second run loads the cached file rather than regenerating
    monkeypatch.setattr(solver_mod, "_CATALOG_MEMO", {})
    code, _, _ = run(capsys, "solve", "P5", "--catalog-n-max", "5", "--json")
    assert code == 0
    assert (tmp_path / files[0]).read_bytes() == before
