import json
import os

from augmis.cli import main
from augmis.io import read_graph, write_graph
from conftest import path_greedy_takes_odd_positions


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


def test_solve_named_complete_graphs(capsys):
    code, out, _ = run(capsys, "solve", "K4", "--json")
    assert code == 0 and json.loads(out)["alpha"] == 1
    code, out, _ = run(capsys, "solve", "K3x3", "--json")
    assert code == 0 and json.loads(out)["alpha"] == 3
    code, _, err = run(capsys, "solve", "K1x2x3")
    assert code == 1 and "error:" in err and "Traceback" not in err


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
    # spider(1,1,4) contains the forbidden spider(1,1,3): the witness is
    # reported and nothing is solved; full stdout pinned
    code, out, err = run(capsys, "solve", "S1x1x4", "--validate-class", "--json")
    assert code == 2
    assert out == (
        '{"violations": [{"embedding": '
        '{"0": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}, '
        '"pattern": "S1x1x3"}]}\n'
    )
    code, out, err = run(capsys, "solve", "S1x1x4", "--validate-class")
    assert code == 2 and out == ""
    assert err.startswith("violation S1x1x3\nmanifest: ")
    # K(256,256) is out of class too: validation stops before the solve,
    # and a plain solve finishes with the greedy side
    code, out, _ = run(capsys, "solve", "K256x256", "--validate-class", "--json")
    assert code == 2
    assert json.loads(out)["violations"][0]["pattern"] == "K3x3"
    code, out, _ = run(capsys, "solve", "K256x256", "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == 256
    # without validation the same input exits 0
    code, _, _ = run(capsys, "solve", "S1x1x4", "--json")
    assert code == 0
    # a class graph passes validation
    code, out, _ = run(capsys, "solve", "C5", "--validate-class", "--json")
    assert code == 0
    assert out == (
        '{"alpha": 2, "finders": {"catalog": 0, "path": 0, "tree": 0}, '
        '"iterations": 0, "set": [0, 2], "violations": []}\n'
    )


def test_solve_long_path_file(tmp_path, capsys):
    path = tmp_path / "p2401.col"
    write_graph(path_greedy_takes_odd_positions(2401), str(path))
    code, out, err = run(capsys, "solve", str(path), "--json")
    assert code == 0 and "Traceback" not in err
    payload = json.loads(out)
    assert payload["alpha"] == 1201 and payload["iterations"] == 1


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


def test_atlas_out_matches_stdout_like_a_plain_write(tmp_path, capsys):
    out = tmp_path / "cat.txt"
    code, _, _ = run(capsys, "atlas", "--n-max", "5", "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "atlas", "--n-max", "5")
    assert code == 0
    assert out.read_bytes() == text.encode("ascii")
    assert sorted(os.listdir(tmp_path)) == ["cat.txt"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_atlas_bound(capsys):
    code, _, err = run(capsys, "atlas", "--n-max", "20")
    assert code == 1 and "error" in err


def test_solve_with_catalog_file(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    run(capsys, "atlas", "--n-max", "5", "--filters", "P8,T5,K3x3", "--out", str(cat))
    code, out, _ = run(
        capsys, "solve", "P5", "--catalog", str(cat), "--catalog-n-max", "5",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["alpha"] == 3


def test_solve_rejects_catalog_file_that_does_not_cover(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    run(capsys, "atlas", "--n-max", "5", "--filters", "P8,T5,K3x3", "--out", str(cat))
    # the default bound is 9, beyond the file's 5
    code, out, err = run(capsys, "solve", "P5", "--catalog", str(cat), "--json")
    assert code == 1 and out == ""
    assert "error:" in err and "Traceback" not in err
    # a filter the default catalogue for p=2 does not use (K3x3, T5)
    code, out, err = run(
        capsys, "solve", "P5", "--catalog", str(cat), "--catalog-n-max", "5",
        "--p", "2",
    )
    assert code == 1 and out == "" and "error:" in err


def test_solve_rejects_truncated_catalog_file(tmp_path, capsys):
    from augmis import enumerate_irreducible
    from augmis.io import format_catalog
    from augmis.irreducible import Catalog

    # consistent with its own header (n_max 5, no filters, census 1:1 3:1)
    # but missing the three 5-vertex entries
    cat = tmp_path / "cat.txt"
    cat.write_text(format_catalog(Catalog(5, (), enumerate_irreducible(3).entries)))
    code, out, err = run(
        capsys, "solve", "P9", "--catalog", str(cat), "--catalog-n-max", "5"
    )
    assert code == 1 and out == ""
    assert "error:" in err and "census 1:1 3:1" in err
    assert "Traceback" not in err


def test_graph_file_over_the_vertex_cap(tmp_path, capsys):
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 100000000000 0\n")
    for argv in (("solve", str(huge)), ("oracle", "--mis", str(huge))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "error:" in err and "line 1" in err and "Traceback" not in err


def test_named_graph_over_the_size_cap(capsys):
    for argv in (
        ("solve", "P100000000000"),
        ("solve", "K100000"),
        ("solve", "K363"),
        ("solve", "P5", "--p", "100000"),  # the filters hold K(p,p)
        ("verify", "--lemma", "min-classes", "--t", "100000000"),
        ("gen", "--plant", "k=1000000000,p=3", "--seed", "1"),
        # K(1,65535) is within both caps; its line graph K(65535) is not
        ("gen", "--line-graph", "K1x65535"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "error:" in err and "the cap is 65536" in err, argv
        assert "Traceback" not in err
    # the largest complete graph within the edge cap is accepted
    code, out, _ = run(capsys, "solve", "K362", "--json")
    assert code == 0 and json.loads(out)["alpha"] == 1


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


_VERIFY_GOLDEN = [
    (
        ("--lemma", "path-or-cycle", "--n-max", "9"),
        '{"checked": 2, "counts": {"8": 1, "9": 1}, "name": "path-or-cycle", '
        '"params": {"n_max": 9}, "violations": []}\n',
    ),
    (
        ("--lemma", "ramsey", "--t", "2", "--p", "2"),
        '{"checked": 67, "counts": {}, "name": "ramsey", '
        '"params": {"p": 2, "t": 2}, "value": 3, "violations": []}\n',
    ),
    (
        ("--lemma", "min-classes", "--n-max", "7", "--t", "4"),
        '{"checked": 25, "counts": {"1": 1, "3": 1, "5": 1, "7": 0}, '
        '"name": "min-classes", "params": {"n_max": 7, "t": 4}, '
        '"violations": []}\n',
    ),
    (
        ("--lemma", "anatomy", "--n-max", "8"),
        '{"checked": 8, "counts": {"7": 1, "8": 7}, "name": "anatomy", '
        '"params": {"k_min": 3, "n_max": 8}, "violations": []}\n',
    ),
    (
        ("--lemma", "extension", "--p", "2", "--n-max", "10"),
        '{"checked": 1, "counts": {"9": 1}, "name": "extension", '
        '"params": {"n_max": 10, "p": 2}, "violations": []}\n',
    ),
]


def test_verify_lemmas_quick(capsys):
    # full stdout of each report is pinned
    for argv, golden in _VERIFY_GOLDEN:
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0 and out == golden, argv
    code, out, _ = run(
        capsys, "verify", "--lemma", "min-classes", "--n-max", "7", "--t", "4"
    )
    assert code == 0
    assert out == (
        "lemma min-classes\ncount n=1 1\ncount n=3 1\ncount n=5 1\n"
        "count n=7 0\nchecked 25\nviolations 0\n"
    )


def test_verify_t_defaults_per_lemma(capsys):
    # --t defaults to 2 for ramsey and to 4 for min-classes
    golden = dict(_VERIFY_GOLDEN)
    for argv, pinned in (
        (("--lemma", "ramsey"), ("--lemma", "ramsey", "--t", "2", "--p", "2")),
        (
            ("--lemma", "min-classes", "--n-max", "7"),
            ("--lemma", "min-classes", "--n-max", "7", "--t", "4"),
        ),
    ):
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0 and out == golden[pinned], argv


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


def test_gen_random_rejects_bad_density(capsys):
    for density in ("1.5", "-1", "nan"):
        code, out, err = run(
            capsys, "gen", "--random", "--n", "10", "--density", density,
            "--seed", "1",
        )
        assert code == 1 and out == ""
        assert "error:" in err and "density" in err
        assert "Traceback" not in err


def test_verify_extension_rejects_small_p(capsys):
    code, out, err = run(capsys, "verify", "--lemma", "extension", "--p", "1")
    assert code == 1 and "violations" not in out
    assert "error:" in err and "at least 2" in err


def test_verify_rejects_bounds_below_one_vertex(capsys):
    for lemma in ("path-or-cycle", "anatomy", "extension", "min-classes"):
        for n_max in ("0", "-3"):
            code, out, err = run(
                capsys, "verify", "--lemma", lemma, "--n-max", n_max, "--json"
            )
            assert code == 1 and out == "", (lemma, n_max)
            assert "error: n_max must be at least 1" in err
            assert "Traceback" not in err


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
