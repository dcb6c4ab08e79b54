from fractions import Fraction

import pytest

from dycklat.cli import main, parse_bfile, render_bfile
from dycklat.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_sc2_plain(capsys):
    code, out, _ = run(capsys, "seq", "sc2", "--n-max", "9")
    assert code == 0
    assert out == "0,0,0,4,30,168,840,3960,18018,80080\n"


def test_seq_sc3_plain(capsys):
    code, out, _ = run(capsys, "seq", "sc3", "--n-max", "9")
    assert code == 0
    assert out == "0,0,0,2,38,322,2112,12210,65494,334334\n"


def test_seq_catalan(capsys):
    code, out, _ = run(capsys, "seq", "catalan", "--n-max", "4")
    assert code == 0
    assert out == "1,1,2,5,14\n"


def test_seq_edges_and_abscissae(capsys):
    code, out, _ = run(capsys, "seq", "edges", "--n-max", "4")
    assert code == 0
    assert out == "0,0,1,5,21\n"
    code, out, _ = run(capsys, "seq", "valley-abscissae", "--n-max", "3")
    assert code == 0
    assert out == "0,0,2,15\n"


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "catalan", "--n-max", "2", "--fmt", "csv")
    assert code == 0
    assert out == "n,catalan\n0,1\n1,1\n2,2\n"


def test_bfile_roundtrip(capsys):
    code, out, _ = run(capsys, "seq", "sc2", "--n-max", "9", "--fmt", "bfile")
    assert code == 0
    assert parse_bfile(out) == [0, 0, 0, 4, 30, 168, 840, 3960, 18018, 80080]
    assert render_bfile(parse_bfile(out)) == out.rstrip("\n")


def test_parse_bfile_rejects_gaps():
    with pytest.raises(ValueError):
        parse_bfile("0 1\n2 5\n")


def test_seq_cap_exit_code(capsys):
    code, _, err = run(capsys, "seq", "sc2", "--n-max", "300")
    assert code == 3
    assert "cap" in err
    code, out, _ = run(capsys, "seq", "sc2", "--n-max", "300", "--max-closed-n", "300")
    assert code == 0
    assert len(out.split(",")) == 301


def test_seq_exhaustive_cap(capsys):
    code, _, err = run(capsys, "seq", "edges", "--n-max", "15")
    assert code == 3
    code, _, err = run(capsys, "seq", "edges", "--n-max", "4", "--max-lattice-n", "3")
    assert code == 3
    assert "max_lattice_n=3" in err


def test_lowered_cap_reaches_the_library(capsys):
    code, _, err = run(capsys, "lattice", "--n", "4", "--max-lattice-n", "3")
    assert code == 3
    assert "semilength 4 exceeds the cap max_lattice_n=3" in err
    code, _, err = run(capsys, "shapes", "--area", "3", "--max-shape-area", "2")
    assert code == 3


def test_raised_cap_reaches_the_library(capsys, monkeypatch):
    # a raised exhaustive cap is too slow to exercise for real, so record
    # the Limits the library receives instead
    from dycklat import cli

    seen = []
    monkeypatch.setattr(cli, "total_valleys", lambda n, limits: seen.append(limits) or n)
    code, out, _ = run(capsys, "seq", "edges", "--n-max", "2", "--max-lattice-n", "15")
    assert code == 0
    assert out == "0,1,2\n"
    assert [limits.max_lattice_n for limits in seen] == [15, 15, 15]


def test_unknown_stat_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["seq", "nope"])
    assert err.value.code == 2


def test_verify_all_routes_agree(capsys):
    code, out, _ = run(capsys, "verify", "--h", "2", "--n-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify h=2 routes=bruteforce,formula,series,closedform"
    assert lines[-1] == "all rows agree"
    assert "n=3 bruteforce=4 formula=4 series=4 closedform=4 ok" in lines


def test_verify_h4_subset_routes(capsys):
    code, out, _ = run(
        capsys, "verify", "--h", "4", "--n-max", "6", "--routes", "bruteforce,formula"
    )
    assert code == 0
    assert out.splitlines()[-1] == "all rows agree"


def test_verify_h4_all_uses_exhaustive_routes_only(capsys):
    code, out, _ = run(capsys, "verify", "--h", "4", "--n-max", "5")
    assert code == 0
    assert out.splitlines()[0] == "verify h=4 routes=bruteforce,formula"


def test_verify_series_route_rejected_beyond_three(capsys):
    code, _, err = run(capsys, "verify", "--h", "4", "--routes", "series")
    assert code == 2
    assert "only exist" in err


def test_verify_unknown_route(capsys):
    code, _, err = run(capsys, "verify", "--routes", "psychic")
    assert code == 2


def test_verify_raised_formula_cap_by_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--h", "6", "--n-max", "6",
        "--routes", "bruteforce,formula", "--max-formula-h", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all rows agree"
    assert all(line.endswith(" ok") for line in lines[1:-1])


def test_verify_raised_formula_cap_by_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_formula_h = 6\n")
    code, out, _ = run(
        capsys, "--config", str(cfg), "verify", "--h", "6", "--n-max", "6",
        "--routes", "bruteforce,formula",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all rows agree"
    assert all(line.endswith(" ok") for line in lines[1:-1])


def test_arithmetic_error_exits_one(capsys, monkeypatch):
    from dycklat import cli

    def broken(n):
        raise ArithmeticError("closed form not integral")

    monkeypatch.setattr(cli.indices, "sc2_closed", broken)
    code, _, err = run(capsys, "seq", "sc2", "--n-max", "3")
    assert code == 1
    assert "not integral" in err


def test_non_integer_series_in_verify_exits_one(capsys, monkeypatch):
    from dycklat import cli

    half = lambda order: TruncatedSeries([0, Fraction(1, 2)] + [0] * (order - 1))
    monkeypatch.setattr(cli.genseries, "sc2_series", half)
    code, _, err = run(capsys, "verify", "--h", "2", "--n-max", "3", "--routes", "series")
    assert code == 1
    assert "not an integer" in err


def test_verify_disagreement_exits_one(capsys, monkeypatch):
    from dycklat import cli

    monkeypatch.setattr(cli.indices, "sc2_closed", lambda n: 99 if n == 3 else 0)
    code, out, _ = run(capsys, "verify", "--h", "2", "--n-max", "3", "--routes", "closedform,bruteforce")
    assert code == 1
    assert "MISMATCH" in out
    assert "DISAGREEMENT" in out


def test_chains_command(capsys):
    code, out, _ = run(capsys, "chains", "--path", "ududud", "--h", "2")
    assert code == 0
    assert out == "2\n"


def test_chains_invalid_word(capsys):
    code, _, err = run(capsys, "chains", "--path", "uddu", "--h", "1")
    assert code == 2
    assert "position 2" in err


def test_chains_h_cap(capsys):
    code, _, err = run(capsys, "chains", "--path", "uudd", "--h", "6")
    assert code == 3
    code, out, _ = run(capsys, "chains", "--path", "uudd", "--h", "6", "--max-formula-h", "6")
    assert code == 0
    assert out == "0\n"


def test_shapes_listing(capsys):
    code, out, _ = run(capsys, "shapes", "--area", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    counts = sorted(line.rsplit("t=", 1)[1] for line in lines)
    assert counts == ["1", "1", "2", "2"]


def test_shapes_csv(capsys):
    code, out, _ = run(capsys, "shapes", "--area", "1", "--fmt", "csv")
    assert code == 0
    assert out == "lower,upper,tableaux\ndu,ud,1\n"


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "2", "--fmt", "dot")
    assert code == 0
    assert out.startswith("digraph dyck_lattice_2 {")
    assert "1 -> 0;" in out


def test_lattice_edges(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# n=3 nodes=5"
    assert len(lines) == 1 + 5  # five cover pairs at semilength 3


def test_index_table(capsys):
    code, out, _ = run(capsys, "index", "--h", "2", "--n-max", "6")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("n=3 ")]
    assert row and "index=4/5" in row[0]


def test_index_csv_header(capsys):
    code, out, _ = run(capsys, "index", "--h", "3", "--n-max", "3", "--fmt", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,chains,elements,index,index_decimal,boolean_target,ratio"
    assert lines[4].startswith("3,2,5,2/5,0.400000,27/8,")


def test_index_bruteforce_for_other_h(capsys):
    code, out, _ = run(capsys, "index", "--h", "4", "--n-max", "4")
    assert code == 0
    assert "n=4 chains=40 elements=14 index=20/7" in out


def test_series_dump_and_bfile(capsys):
    code, out, _ = run(capsys, "series", "--name", "SC3", "--order", "9", "--fmt", "bfile")
    assert code == 0
    assert parse_bfile(out) == [0, 0, 0, 2, 38, 322, 2112, 12210, 65494, 334334]


def test_series_with_marker_variable(capsys):
    code, out, _ = run(capsys, "series", "--name", "V", "--order", "3")
    assert code == 0
    assert out.splitlines()[3] == "3 q^2 + 3*q + 1"


def test_series_poly_bfile_rejected(capsys):
    code, _, err = run(capsys, "series", "--name", "F2", "--order", "5", "--fmt", "bfile")
    assert code == 2
    assert "bfile" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-max = 4\nfmt = csv\n")
    code, out, _ = run(capsys, "--config", str(cfg), "seq", "catalan")
    assert code == 0
    assert out.splitlines()[0] == "n,catalan"
    code, out, _ = run(capsys, "--config", str(cfg), "seq", "catalan", "--fmt", "plain")
    assert code == 0
    assert out == "1,1,2,5,14\n"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    code, _, err = run(capsys, "--config", str(cfg), "seq", "catalan")
    assert code == 2
    assert "unknown key" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent/cfg", "seq", "catalan")
    assert code == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "--h", "3", "--n-max", "6")
    second = run(capsys, "verify", "--h", "3", "--n-max", "6")
    assert first == second
    third = run(capsys, "index", "--h", "2", "--n-max", "8", "--fmt", "csv")
    fourth = run(capsys, "index", "--h", "2", "--n-max", "8", "--fmt", "csv")
    assert third == fourth
