import hashlib
import re
from fractions import Fraction

import pytest

from dycklat.cli import FORMATS, SERIES_NAMES, main, render_bfile
from dycklat.series import TruncatedSeries


def parse_bfile(text):
    """Read 'n a(n)' lines back into the sequence; index gaps are rejected."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        n_part, _, v_part = line.partition(" ")
        n = int(n_part)
        if n != len(out):
            raise ValueError(f"b-file index {n} out of order")
        out.append(int(v_part))
    return out


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


# SHA-256 of the stdout of `verify --h H --n-max N --routes formula`. The
# first two were recorded by the placement benchmark before the whole-lattice
# formula moved to a height DP. The last, at the formula and lattice caps,
# holds rows checked once against brute force (count_saturated_chains).
VERIFY_FORMULA_SHA256 = {
    ("5", "10"): "aafe6ab4731aaa76254a485b4e759c0cd3053d75c292d71d0a2df08d2d9c18b5",
    ("3", "11"): "d5c24c9ef36b8f0c88cf55cc2290769e3867ff98c2e81b9ca922abd1b0439c03",
    ("5", "14"): "40df880f18726afdf156fbe3126a46638f76ca8c7c52ac62f04a23ada0a80eb4",
}


@pytest.mark.parametrize("h, n_max", sorted(VERIFY_FORMULA_SHA256))
def test_verify_formula_is_byte_identical(capsys, h, n_max):
    code, out, _ = run(capsys, "verify", "--h", h, "--n-max", n_max, "--routes", "formula")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FORMULA_SHA256[h, n_max]


# SHA-256 of the stdout of the commands that run the brute-force route,
# recorded before it moved from a word -> index dict to rank arithmetic.
BRUTEFORCE_SHA256 = {
    "verify --h 3 --n-max 9 --routes bruteforce": "e1dd828ba2bc2ff76b95807b2ca63b841be5a911e9e93b8f9328afa4c0a6af74",
    "index --h 5 --n-max 9": "4ce473092f5b069db1fa836cebfbe5885a8183203176326c4cc916e1e2421bf0",
    "seq edges --n-max 10": "d6b99d91c182b72245c69043240b2dd8858f336144db31ca4552444528b14e65",
    "seq valley-abscissae --n-max 10": "f22e5a57ae115b3a3c7ed7fac92b608ed2a12a813368d4828671d16aa75f2e3b",
    "lattice --n 6": "ad36c05719d74626af8d0cb5813574e2ebb2687a6bbce3526c9cad60db98b86c",
    "lattice --n 6 --fmt dot": "e3c83b225871030df77ea709d28d0cf1251f38ab82eab5b6b8f86186890ff383",
    # recorded from the cover-table export, before it was written from the
    # walk: several 4096-line chunks, and the DOT text's node and edge walks
    "lattice --n 9": "ef946bacb426862fd84999c2a98a2cb3b4031e541624bf05d068a632055283e4",
    "lattice --n 9 --fmt dot": "63b26a2c66cef230ee9a4f1d60c887141298d5abf34262a0e8b98d637b229717",
}


@pytest.mark.parametrize("argv", sorted(BRUTEFORCE_SHA256))
def test_bruteforce_commands_are_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BRUTEFORCE_SHA256[argv]


def test_verify_bruteforce_above_the_lattice_height_is_all_zero(capsys):
    # no lattice of semilength n <= 7 is 1000000 covers high
    code, out, _ = run(capsys, "verify", "--h", "1000000", "--n-max", "7", "--routes", "bruteforce")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verify h=1000000 routes=bruteforce"
    assert lines[1:-1] == [f"n={n} bruteforce=0 ok" for n in range(8)]
    assert lines[-1] == "all rows agree"


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
    # The CLI imports genseries on use, so patching the module reaches it.
    from dycklat import genseries

    half = lambda order: TruncatedSeries([0, Fraction(1, 2)] + [0] * (order - 1))
    monkeypatch.setattr(genseries, "sc2_series", half)
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


# SHA-256 of the stdout of index commands outside h = 2, 3, recorded while
# every one of them counted by brute force.  Now h = 4 reads one formula
# column; h = 6 is over max_formula_h and the last one over its shape cap,
# so those two still count by brute force.
INDEX_SHA256 = {
    "index --h 4 --n-max 10": "9d467587223cbd38ea2bf1f032b00c9a16bd509367bf7a66de0eaa520e1c07b3",
    "index --h 6 --n-max 9": "b6d48fd8bf02b3fc7cd45fe8f24ca84952f9b5f544572528e27de3e2a57d77a9",
    "index --h 5 --n-max 9 --max-shape-area 4": "4ce473092f5b069db1fa836cebfbe5885a8183203176326c4cc916e1e2421bf0",
}


@pytest.mark.parametrize("argv", sorted(INDEX_SHA256))
def test_index_is_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INDEX_SHA256[argv]


def test_index_route_choice(capsys, monkeypatch):
    from dycklat import cli

    walked = []
    brute = cli.count_saturated_chains
    monkeypatch.setattr(
        cli, "count_saturated_chains", lambda n, h, limits: walked.append(n) or brute(n, h, limits)
    )
    for argv, walks in (
        ("index --h 5 --n-max 9", []),
        ("index --h 0 --n-max 3", []),
        ("index --h 5 --n-max 3 --max-shape-area 4", [0, 1, 2, 3]),
        ("index --h 5 --n-max 3 --max-formula-h 4", [0, 1, 2, 3]),
        ("index --h 6 --n-max 3", [0, 1, 2, 3]),
    ):
        walked.clear()
        code, _, _ = run(capsys, *argv.split())
        assert code == 0
        assert walked == walks, argv


def test_index_keeps_the_lattice_cap(capsys):
    # the formula column could go further, but index keeps max_lattice_n
    code, out, err = run(capsys, "index", "--h", "5", "--n-max", "15")
    assert code == 3
    assert out == ""
    assert err == "error: n-max 15 exceeds the cap max_lattice_n=14\n"


def test_series_dump_and_bfile(capsys):
    code, out, _ = run(capsys, "series", "--name", "SC3", "--order", "9", "--fmt", "bfile")
    assert code == 0
    assert parse_bfile(out) == [0, 0, 0, 2, 38, 322, 2112, 12210, 65494, 334334]


def test_series_with_marker_variable(capsys):
    code, out, _ = run(capsys, "series", "--name", "V", "--order", "3")
    assert code == 0
    assert out.splitlines()[3] == "3 q^2 + 3*q + 1"


# SHA-256 of the stdout of `series --name NAME --order 20 --fmt FMT`,
# recorded before the path systems moved to a coefficient-at-a-time solve and
# Poly to int coefficients; any change to the series layer must keep them.
SERIES_ORDER_20_SHA256 = {
    ("SC2", "plain"): "358a0c5738863472f1050cbeceb668ded83fd0f20d2fe59c88d42c4aaf6282c1",
    ("SC2", "csv"): "24d4d33b8f7b9251fdfdc2579e60eb628529413c5c72d353742d48a565210a81",
    ("SC3", "plain"): "675281f0425a25ed424f1f4d20b5b77b9012e9772301e295b956f35b45445971",
    ("SC3", "csv"): "a40e21f9aad0e9c0c8ea5b0a7d1d4a8e0bd7e8378c7b39fa709c78c303209f1e",
    ("V", "plain"): "033d92328aa75438be1468e5633fb366b0df975a3c65655c1145242ee435294e",
    ("V", "csv"): "71bbe49ee2297a0f966670cf12481f2365e7e091931f36b2993c44b17666e669",
    ("F2", "plain"): "8ddf736a7eb2e377deae9e67e8c032f1a621f721f0a951c06052929da73fa8c8",
    ("F2", "csv"): "beff3426ebc9aab7f0900f7784640ac4a15f481a609d98d4806a00bbc9065a03",
    ("F3", "plain"): "5ab6a7a1e084dcf16a278b9812931a05730b4fe3cd66ef34e633a11a6829aa1e",
    ("F3", "csv"): "f6ab35fac5c9f4bb33e657f5efee1e0535812ddc745ab74eb50e6570b828ae6f",
    ("A", "plain"): "f28b0a11571970cf54fd26c2ebe8ac360d588bd2a61b28084f3574a614701099",
    ("A", "csv"): "6e219053e93d41d2e048f1832b5e10edbbbf578b1481006ea355279c76ed2c97",
    ("B", "plain"): "01b3486d7c822db3f203f067a50ce02432496fc80ebe27669770dad3e7c9d780",
    ("B", "csv"): "80540fc5992b887d1188b90b314f34954c2f7fdd2b436b7381cf6dafc76cc16a",
    ("C", "plain"): "1c7642c725c3fcc42c34d403b1ca35421396162724a75a69508c4a362f829687",
    ("C", "csv"): "a0e56e7e134512f1541035ba722b37a342bd99bfc170a5462fc4339b5f2962bf",
}


@pytest.mark.parametrize("name", SERIES_NAMES)
@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_series_dumps_are_byte_identical(capsys, name, fmt):
    code, out, _ = run(capsys, "series", "--name", name, "--order", "20", "--fmt", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_ORDER_20_SHA256[name, fmt]


# SHA-256 of the stdout of larger `series` dumps, recorded before Poly
# products moved to packed ints (A and C, solved by solve_polynomial, before
# it dropped Newton iteration); their coefficients need slots of several
# machine words, which the order-20 dumps never reach.
SERIES_LARGE_SHA256 = {
    ("F2", "40"): "9b3e21afd8c1be6996c62a9277e893bd522df7ac5600ab39e3eb645ecac74b6c",
    ("V", "60"): "bbb5bce9468d6b5d8e6ff144f236ac1dc79d782f18137a9611d36170cfaec87e",
    ("A", "60"): "0224c6d4300376aa36ebf6902df665839b9b9b09ee769a147799dc633a474ded",
    ("B", "60"): "5258fc6158fb3eb82903f32c6824639cb5a5a1a7e5f6492675d01fd040e8af2e",
    ("C", "60"): "911a3209ccf829054d2a038fbb94c940f4365b194a2d11e97e6e83d0db68e6c5",
}


@pytest.mark.parametrize("name, order", sorted(SERIES_LARGE_SHA256))
def test_large_series_dumps_are_byte_identical(capsys, name, order):
    code, out, _ = run(capsys, "series", "--name", name, "--order", order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_LARGE_SHA256[name, order]


def test_series_poly_bfile_rejected(capsys):
    for name in ("F2", "F3", "V", "A", "B", "C"):
        code, _, err = run(capsys, "series", "--name", name, "--order", "5", "--fmt", "bfile")
        assert code == 2
        assert "bfile" in err
        assert f"series {name} has polynomial coefficients" in err
        assert "non-integer" not in err


def test_series_fraction_bfile_rejected(capsys, monkeypatch):
    # The CLI imports genseries on use, so patching the module reaches it.
    from dycklat import genseries

    half = lambda order: TruncatedSeries([0, Fraction(1, 2)] + [0] * (order - 1))
    monkeypatch.setattr(genseries, "sc2_series", half)
    code, _, err = run(capsys, "series", "--name", "SC2", "--order", "3", "--fmt", "bfile")
    assert code == 2
    assert "series SC2 has non-integer coefficients" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-max = 4\nfmt = csv\n")
    code, out, _ = run(capsys, "--config", str(cfg), "seq", "catalan")
    assert code == 0
    assert out.splitlines()[0] == "n,catalan"
    code, out, _ = run(capsys, "--config", str(cfg), "seq", "catalan", "--fmt", "plain")
    assert code == 0
    assert out == "1,1,2,5,14\n"


# One cheap invocation of each command.
FORMAT_ARGV = {
    "seq": ["seq", "catalan", "--n-max", "2"],
    "verify": ["verify", "--h", "2", "--n-max", "2", "--routes", "closedform"],
    "shapes": ["shapes", "--area", "1"],
    "chains": ["chains", "--path", "ud", "--h", "0"],
    "lattice": ["lattice", "--n", "1"],
    "index": ["index", "--h", "2", "--n-max", "2"],
    "series": ["series", "--name", "SC2", "--order", "2"],
}
REJECTED_FORMATS = [
    (command, fmt)
    for command in FORMAT_ARGV
    for fmt in ("plain", "csv", "bfile", "dot")
    if fmt not in FORMATS[command]
]


def test_format_table_rejects_the_expected_pairs():
    assert sorted(FORMAT_ARGV) == sorted(FORMATS)
    assert REJECTED_FORMATS == [
        ("seq", "dot"),
        ("verify", "csv"), ("verify", "bfile"), ("verify", "dot"),
        ("shapes", "bfile"), ("shapes", "dot"),
        ("chains", "csv"), ("chains", "bfile"), ("chains", "dot"),
        ("lattice", "csv"), ("lattice", "bfile"),
        ("index", "bfile"), ("index", "dot"),
        ("series", "dot"),
    ]


@pytest.mark.parametrize("command, fmt", REJECTED_FORMATS)
def test_unrenderable_format_by_flag_is_usage_error(capsys, command, fmt):
    code, out, err = run(capsys, *FORMAT_ARGV[command], "--fmt", fmt)
    assert code == 2
    assert out == ""
    assert f"format {fmt!r} does not apply to {command}" in err


@pytest.mark.parametrize("command, fmt", REJECTED_FORMATS)
def test_unrenderable_format_from_config_is_usage_error(tmp_path, capsys, command, fmt):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"fmt = {fmt}\n")
    code, out, err = run(capsys, "--config", str(cfg), *FORMAT_ARGV[command])
    assert code == 2
    assert out == ""
    assert f"format {fmt!r} does not apply to {command}" in err


@pytest.mark.parametrize("command", sorted(FORMATS))
def test_every_listed_format_renders(capsys, command):
    for fmt in FORMATS[command]:
        code, out, _ = run(capsys, *FORMAT_ARGV[command], "--fmt", fmt)
        assert code == 0 and out, (command, fmt)


@pytest.mark.parametrize("command", sorted(FORMATS))
def test_help_lists_exactly_the_renderable_formats(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    listed = re.findall(r"--fmt \{([a-z,]+)\}", capsys.readouterr().out)
    assert listed and all(entry.split(",") == list(FORMATS[command]) for entry in listed)


def test_unknown_format_by_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "seq", "catalan", "--fmt", "xml")
    assert code == 2
    assert out == ""
    assert "format 'xml' does not apply to seq" in err


def test_unknown_format_from_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fmt = xml\n")
    code, _, err = run(capsys, "--config", str(cfg), "seq", "catalan")
    assert code == 2
    assert "format 'xml' does not apply to seq" in err


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n")
    code, _, err = run(capsys, "--config", str(cfg), "seq", "catalan")
    assert code == 2
    assert "unknown key" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--name", "F2", "--order", "-1"],
        ["series", "--name", "V", "--order", "-1"],
        ["series", "--name", "A", "--order", "-1"],
        ["verify", "--h", "2", "--n-max", "-1", "--routes", "series"],
        ["seq", "sc2", "--n-max", "-1"],
        ["chains", "--path", "ud", "--h", "-1"],
        ["chains", "--path", "ud", "--h", "0", "--max-formula-h", "-1"],
        ["verify", "--h", "2", "--n-max", "3", "--routes", "formula", "--max-lattice-n", "-1"],
        ["series", "--name", "F2", "--order", "3", "--max-closed-n", "-1"],
        ["lattice", "--n", "2", "--max-shape-area", "-1"],
    ],
)
def test_negative_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be nonnegative" in err


@pytest.mark.parametrize(
    "line, argv",
    [
        ("order = -1", ["series", "--name", "F3"]),
        ("n-max = -1", ["seq", "sc2"]),
        ("h = -2", ["verify", "--n-max", "3", "--routes", "bruteforce"]),
        ("max-shape-area = -1", ["chains", "--path", "ud", "--h", "0"]),
        ("max-lattice-n = -1", ["seq", "catalan"]),
    ],
)
def test_negative_sizes_from_config_are_usage_errors(tmp_path, capsys, line, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert "must be nonnegative" in err


def test_verify_has_no_order_flag(capsys):
    # the series route computes n-max coefficients, so --max-closed-n bounds it
    with pytest.raises(SystemExit) as err:
        main(["verify", "--h", "2", "--n-max", "3", "--order", "30", "--routes", "series"])
    assert err.value.code == 2
    code, out, err = run(
        capsys, "verify", "--h", "2", "--n-max", "12", "--max-closed-n", "10", "--routes", "series"
    )
    assert code == 3
    assert out == ""
    assert "max_closed_n=10" in err
    code, out, _ = run(
        capsys, "verify", "--h", "3", "--n-max", "10", "--max-closed-n", "10",
        "--routes", "series,closedform",
    )
    assert code == 0
    assert out.splitlines()[-2:] == ["n=10 series=1647776 closedform=1647776 ok", "all rows agree"]


def test_chain_length_zero_is_valid(capsys):
    code, out, _ = run(capsys, "verify", "--h", "0", "--n-max", "3", "--routes", "bruteforce")
    assert code == 0
    assert "n=3 bruteforce=5 ok" in out


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
