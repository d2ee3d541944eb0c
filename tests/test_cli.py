import pytest

from galcount import fields, fitting, groups
from galcount.cli import _parse_grid, main
from galcount.constructions import check_index_domination
from galcount.groups import PermGroup
from galcount.groupspec import GroupSpecError, parse_group_file, parse_paired_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_aval_regular_c4(capsys):
    code, out, _ = run_cli(capsys, "aval", "regular(C 4)")
    assert code == 0
    assert "degree: 4" in out
    assert "order: 4" in out
    assert "a(G): 1/2" in out
    assert "[ind 2]" in out


def test_aval_wreath(capsys):
    code, out, _ = run_cli(capsys, "aval", "wreath(C 2, natural(A 4))")
    assert code == 0
    assert "a(G): 1" in out


def test_aval_wreath_over_an_intransitive_top_group_exit_4(capsys):
    # A 2 is the trivial group on 2 points: each block gets its own copy of the bottom group
    for expr in ("wreath(C 3, A 2)", "wreath(dihedral(3), A 2)"):
        assert run_cli(capsys, "aval", expr) == (4, "", "error: group is not transitive\n")


def test_aval_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "aval", "natural(C 1)")
    assert code == 0
    assert "a(G): 0" in out
    assert "witness: none" in out


def test_aval_intransitive_exit_4(tmp_path, capsys):
    path = tmp_path / "intransitive.grp"
    path.write_text("degree=3\ngen=(1 2)\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "aval", "--file", str(path))
    assert code == 4
    assert "transitive" in err


def test_aval_parse_error_exit_2(capsys):
    # the digits of sl2 and heis3 are part of the name, not an argument
    for expr in ("natural(Q 3)", "sl7(5)", "heis9()"):
        code, out, err = run_cli(capsys, "aval", expr)
        assert (code, out) == (2, "") and err, expr


def test_aval_cap_exceeded_exit_3(capsys):
    code, _, err = run_cli(capsys, "--cap", "10", "aval", "natural(S 5)")
    assert code == 3 and "cap" in err


def test_aval_over_cap_exits_3_before_enumerating(capsys, monkeypatch):
    def refuse(self, order):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(PermGroup, "_bfs_levels", refuse)
    # the orbits of S 999, S 3000 and A 3000 fit the cap; the running bound on the order refuses them
    for expr in ("S 12", "product(S 8, S 8)", "S 999", "S 3000", "A 3000"):
        assert run_cli(capsys, "aval", expr) == (3, "", "error: group order exceeds cap 1000000\n")


def test_aval_orbit_over_cap_exit_3(capsys):
    # an orbit longer than the cap is refused before the chain's n-by-n first level is allocated
    for expr in ("C 200000", "dihedral(500000)"):
        assert run_cli(capsys, "--cap", "1000", "aval", expr) == (3, "", "error: group order exceeds cap 1000\n")


def test_aval_nested_too_deeply_exit_2(capsys):
    deep = "regular(" * 1000 + "C 2" + ")" * 1000
    assert run_cli(capsys, "aval", deep) == (2, "", "error: expression nested too deeply\n")
    code, out, _ = run_cli(capsys, "aval", "regular(" * 900 + "C 2" + ")" * 900)
    assert (code, out.splitlines()[:2]) == (0, ["degree: 2", "order: 2"])


def test_table_deg6(capsys):
    code, out, _ = run_cli(capsys, "table", "deg6")
    assert code == 0
    for row in ("deg6/Nr4", "deg6/Nr5", "deg6/Nr7"):
        assert row in out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_table_deg8(capsys):
    code, out, _ = run_cli(capsys, "table", "deg8")
    assert code == 0
    assert out.count("PASS") == 9
    assert out.count("SKIPPED(external)") == 13
    assert "FAIL" not in out


def test_table_csv(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "table", "deg6", "--csv", str(target))
    assert code == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "row_id,group,order,expected,computed,status"
    assert lines[1].startswith("deg6/Nr4,A4(6),12,1/2,1/2,PASS")


def test_table_csv_unwritable_path_fails_before_printing(tmp_path, capsys):
    for target, reason in ((tmp_path / "missing" / "rows.csv", "No such file or directory"), (tmp_path, "Is a directory")):
        code, out, err = run_cli(capsys, "table", "deg6", "--csv", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {str(target)!r}: {reason}\n"


def test_table_determinism(capsys):
    _, first, _ = run_cli(capsys, "table", "deg8")
    _, second, _ = run_cli(capsys, "table", "deg8")
    assert first == second


def test_count_quadratic(capsys):
    code, out, _ = run_cli(capsys, "count", "quadratic", "--grid", "1:1e5:6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,count"
    assert len(lines) == 7
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == sorted(counts)


def test_count_cyclic_spec_grid(capsys):
    code, out, _ = run_cli(capsys, "count", "cyclic", "--ell", "3", "--grid", "49:3969:4")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last == "3969,10"


@pytest.mark.parametrize(
    "grid, rows",
    [
        (  # the counts perfbench's count-biquadratic job pins
            "10000:1e9:8",
            "10000,47\n51795,144\n268270,436\n1389495,1258\n7196857,3456\n"
            "37275937,9287\n193069773,24532\n1000000000,64316\n",
        ),
        ("1000:1e12:3", "1000,8\n31622777,8418\n1000000000000,3306085\n"),
    ],
)
def test_count_biquadratic_pinned_output(capsys, grid, rows):
    assert run_cli(capsys, "count", "biquadratic", "--grid", grid) == (0, "x,count\n" + rows, "")


def test_count_cyclic_even_ell_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "cyclic", "--ell", "4", "--grid", "49:100:2")
    assert code == 2 and "odd prime" in err


def test_count_cyclic_long_ell_exit_2(capsys):
    # a 19-digit strong pseudoprime is refused without sieving up to its square root
    code, _, err = run_cli(capsys, "fit", "--family", "cyclic", "--ell", "3825123056546413051")
    assert code == 2 and "odd prime" in err
    code, _, err = run_cli(capsys, "count", "cyclic", "--ell", str(10**30 + 1), "--grid", "49:100:2")
    assert code == 2 and "primality is only decided below" in err


def test_count_cyclic_default_grid_past_the_float_range_exit_2(capsys, monkeypatch):
    # the default top 10_000 ** (ell - 1) passes 1.8e308 from ell = 79 on, and is refused before it is formed
    monkeypatch.setattr(fitting, "geometric_grid", lambda *args: pytest.fail("a grid was built"))
    message = "error: grid values must lie in the float range, below about 1.8e308\n"
    for ell in ("79", "1000003", "2305843009213693951"):
        assert run_cli(capsys, "count", "cyclic", "--ell", ell) == (2, "", message)


def test_count_census(tmp_path, capsys):
    path = tmp_path / "census.csv"
    path.write_text(
        "degree,group,abs_disc\n3,S3,23\n3,S3,31\n3,S3,44\n", encoding="utf-8"
    )
    code, out, _ = run_cli(
        capsys, "count", "census", "--label", "S3", "--file", str(path), "--grid", "20:44:3"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "44,3"


def test_count_census_errors_exit_5(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("degree,group,abs_disc\n3,S3,foo\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "count", "census", "--label", "S3", "--file", str(path), "--grid", "1:10:2"
    )
    assert code == 5 and "line 2" in err

    path2 = tmp_path / "ok.csv"
    path2.write_text("degree,group,abs_disc\n3,S3,23\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "count", "census", "--label", "D4", "--file", str(path2), "--grid", "1:10:2"
    )
    assert code == 5 and "D4" in err


def test_count_census_not_utf8_exit_5(tmp_path, capsys):
    path = tmp_path / "census.csv"
    path.write_bytes(b"degree,group,abs_disc\n3,S3,23\n3,S3,\xff\xfe31\n")
    code, _, err = run_cli(capsys, "count", "census", "--label", "S3", "--file", str(path))
    assert code == 5 and "line 3:" in err


def test_aval_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "group.grp"
    path.write_bytes(b"degree=3\ngen=(1 2 3)\n# caf\xe9\n")
    for argv in (["aval", "--file", str(path)], ["aval", f"file({path})"]):
        assert run_cli(capsys, *argv) == (2, "", "error: line 3: not valid UTF-8\n"), argv


def test_compare_reps_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "pair.grp"
    path.write_bytes(b"degree=4\r\ngen=(1 2 3 4)\r\n---\r\n# \xff\r\ndegree=4\r\ngen=(1 2 3 4)\r\n")
    code, _, err = run_cli(capsys, "compare-reps", "--file", str(path))
    assert code == 2 and err == "error: line 4: not valid UTF-8\n"


def test_group_file_with_byte_order_mark(tmp_path, capsys):
    # spreadsheet exports start with U+FEFF; each file reader skips it.  A form feed
    # ends no line of a file the CLI reads, so it stays inside its comment
    path = tmp_path / "group.grp"
    for text in (b"\xef\xbb\xbfdegree=3\ngen=(1 2 3)\n", b"degree=3\n# page\x0cbreak\ngen=(1 2 3)\n"):
        path.write_bytes(text)
        code, out, _ = run_cli(capsys, "aval", "--file", str(path))
        assert code == 0 and "order: 3" in out, text


def test_paired_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "pair.grp"
    block = b"degree=4\ngen=(1 2 3 4)\n"
    for text in (b"\xef\xbb\xbf" + block + b"---\n" + block, block + b"--- # \x0cend\n" + block):
        path.write_bytes(text)
        code, out, _ = run_cli(capsys, "compare-reps", "--file", str(path))
        assert code == 0 and out == "HOLDS\n", text


def test_missing_file_one_message(tmp_path, capsys):
    path = str(tmp_path / "absent.txt")
    for argv, code in (
        (["count", "census", "--label", "S3", "--file", path], 5),
        (["fit", "--family", "census", "--label", "S3", "--file", path], 5),
        (["fit", "--samples", path], 6),
        (["aval", "--file", path], 2),
        (["aval", f"file({path})"], 2),
        (["compare-reps", "--file", path], 2),
    ):
        want = (code, "", f"error: cannot read {path!r}: No such file or directory\n")
        assert run_cli(capsys, *argv) == want, argv


def test_census_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "census.csv"
    path.write_bytes(b"\xef\xbb\xbfdegree,group,abs_disc\n3,S3,23\n")
    code, out, _ = run_cli(capsys, "count", "census", "--label", "S3", "--file", str(path), "--grid", "1:23:2")
    assert code == 0 and out == "x,count\n1,0\n23,1\n"


def test_samples_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"\xef\xbb\xbfx,count\n100,10\n1000,31\n10000,100\n")
    code, out, _ = run_cli(capsys, "fit", "--samples", str(path))
    assert code == 0 and "samples: 3 used, 0 dropped" in out


@pytest.mark.parametrize("sep", ["\x0b", "\x1c", "\x85", "\u2028"])  # each ends a line for str.splitlines()
def test_reader_text_reads_as_its_file(tmp_path, capsys, sep):
    # a reader given a file's text and the CLI given the file's bytes split lines
    # alike, at "\n" only, so they give one tally or group and one error
    path = tmp_path / "input.txt"

    def cli(text, *argv):
        path.write_bytes(text.encode("utf-8"))
        return run_cli(capsys, *argv, str(path))

    label = f"S{sep}3"
    census = f"degree,group,abs_disc\n3,{label},23\n3,{label},31\n3,C3,7\n"
    tally = fields.ingest_census(census)[label]
    rows = "".join(f"{x},{z}\n" for x, z in fields.tally_samples(tally, _parse_grid("10:100:3")))
    assert cli(census, "count", "census", "--label", label, "--grid", "10:100:3", "--file") == (0, "x,count\n" + rows, "")
    bad = f"degree,group,abs_disc\n3,S3,2{sep}3\n"
    with pytest.raises(fields.CensusFormatError) as exc:
        fields.ingest_census(bad)
    assert cli(bad, "count", "census", "--label", "S3", "--file") == (5, "", f"error: {exc.value}\n")

    block = f"degree=3\ngen=(1 2{sep}3)  # a{sep}comment\n"
    group = parse_group_file(block)
    code, out, _ = cli(block, "aval", "--file")
    assert code == 0 and out.startswith(f"degree: 3\norder: {group.order()}\na(G): {group.a_invariant()}\n")
    assert check_index_domination(parse_paired_file(block + "---\n" + block)).holds
    assert cli(block + "---\n" + block, "compare-reps", "--file") == (0, "HOLDS\n", "")
    bad = f"degree=3\ngen=(1 2{sep}9)\n"
    with pytest.raises(GroupSpecError) as exc:
        parse_group_file(bad)
    assert cli(bad, "aval", "--file") == (2, "", f"error: {exc.value}\n")


def test_grid_beyond_float_range_exit_2(capsys):
    for argv in (
        ["count", "cyclic", "--ell", "79"],  # default grid up to 10000**78
        ["fit", "--family", "cyclic", "--ell", "1009"],
        ["count", "quadratic", "--grid", f"1000:{10**400}:3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "float range" in err, argv


def test_grid_values_read_exactly(capsys):
    assert _parse_grid("1:1e23:2") == [1, 10**23]
    assert _parse_grid("2.5e3:1_000_0:2") == [2500, 10000]
    # the exponent is never expanded, so a huge one is refused at once
    for spec in ("1:1.9:2", "1:nan:2", "1:1e999999999:2", "1e-999999999:10:2", "1:x:2"):
        code, out, err = run_cli(capsys, "count", "quadratic", "--grid", spec)
        assert (code, out) == (2, "") and "must be integers in the float range" in err, spec


def test_grid_refuses_more_points_than_integers(capsys):
    # 1..10 holds 10 integers; 11 points used to be built and then deduplicated to 10 rows
    code, out, err = run_cli(capsys, "count", "quadratic", "--grid", "1:10:11")
    assert (code, out) == (2, "") and err == "error: grid asks for 11 points, but 1..10 holds only 10 integers\n"
    assert run_cli(capsys, "count", "quadratic", "--grid", "1:10:10")[0] == 0
    # a bad lo, hi or point count keeps its own message
    for spec, message in (("10:1:11", "x_min < x_max"), ("1:10:1", "at least 2 points")):
        code, out, err = run_cli(capsys, "count", "quadratic", "--grid", spec)
        assert (code, out) == (2, "") and message in err, spec


def test_grid_over_the_point_limit_exit_2(capsys):
    # 1..1e300 holds 10**8 integers, but 10**8 points are refused before any value is built
    code, out, err = run_cli(capsys, "count", "quadratic", "--grid", "1:1e300:100000000")
    assert (code, out, err) == (2, "", "error: grid asks for 100000000 points, more than the limit of 1000000\n")


def test_cyclic_conductor_bound_beyond_the_float_guess_exit_2(capsys):
    # fmax = introot(1e200, 4) = 10**50 is found exactly at once, and its table cannot be allocated
    code, out, err = run_cli(capsys, "count", "cyclic", "--ell", "5", "--grid", "1000:1e200:3")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_census_default_grid_on_a_small_census(tmp_path, capsys):
    # the default asks for 12 points, and for fewer when the census tops out below 12
    path = tmp_path / "census.csv"
    path.write_text("degree,group,abs_disc\n2,C2,3\n2,C2,4\n2,C2,5\n2,C2,8\n")
    code, out, _ = run_cli(capsys, "count", "census", "--label", "C2", "--file", str(path))
    assert code == 0 and out == "x,count\n1,0\n2,0\n3,1\n4,2\n6,3\n8,4\n"
    # a census that tops out at |disc| 1 is counted at the one point 1, too few to fit
    path.write_text("degree,group,abs_disc\n1,Q,1\n")
    assert run_cli(capsys, "count", "census", "--label", "Q", "--file", str(path)) == (0, "x,count\n1,1\n", "")
    assert run_cli(capsys, "fit", "--family", "census", "--label", "Q", "--file", str(path)) == (
        6, "", "error: need at least 3 usable samples with distinct x, have 1\n"
    )


def test_census_default_grid_reads_the_largest_disc(tmp_path, capsys):
    # twelve points from 1 to the largest |disc|, the last of the label's ascending array
    discs = [(i * 7919) % 1_000_003 + 1 for i in range(2000)]
    path = tmp_path / "census.csv"
    path.write_text("degree,group,abs_disc\n" + "".join(f"3,S3,{d}\n" for d in discs), encoding="utf-8")
    grid = fitting.geometric_grid(1, max(discs), 12)
    want = "x,count\n" + "".join(f"{x},{sum(d <= x for d in discs)}\n" for x in grid)
    assert run_cli(capsys, "count", "census", "--label", "S3", "--file", str(path)) == (0, want, "")


def test_allocation_failure_exit_2(capsys, monkeypatch):
    # the conductor table up to 1e15 would take 7 PiB
    code, out, err = run_cli(capsys, "count", "cyclic", "--ell", "3", "--grid", "1000:1e30:3")
    assert (code, out) == (2, "") and err.startswith("error: Unable to allocate")

    def bare_memory_error(*args):
        raise MemoryError

    monkeypatch.setattr(fields, "quadratic_samples", bare_memory_error)
    assert run_cli(capsys, "count", "quadratic") == (2, "", "error: out of memory\n")


def test_count_biquadratic_beyond_int64_exit_2(capsys, monkeypatch):
    # refused before the primes to sqrt(1e19) are sieved: 3.2 GB of flags, then a 25 GB int64 table of 3^omega
    def refuse(limit):
        raise AssertionError("sieve started")

    monkeypatch.setattr(fields, "prime_array", refuse)
    code, out, err = run_cli(capsys, "count", "biquadratic", "--grid", "1000:1e19:3")
    assert (code, out) == (2, "")
    assert err == "error: biquadratic counts need |disc| <= 2**63 - 1, got 10000000000000000000\n"


def test_count_quadratic_beyond_int64_exit_2(capsys, monkeypatch):
    # refused before the Möbius sieve to sqrt(1e19), about 3.2 GB of int8, is allocated
    def refuse(limit):
        raise AssertionError("sieve started")

    monkeypatch.setattr(fields, "mobius", refuse)
    code, out, err = run_cli(capsys, "count", "quadratic", "--grid", "1000:1e19:3")
    assert (code, out) == (2, "")
    assert err == "error: quadratic counts need |disc| <= 2**63 - 1, got 10000000000000000000\n"


def test_fit_sample_beyond_float_range_exit_6(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text(f"x,count\n10,3\n20,5\n{10**400},7\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", "--samples", str(path))
    assert code == 6 and err == "error: line 4: sample beyond the float range\n"


def test_fit_with_a_constant_past_the_float_range_prints_c_hat_inf(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("x,count\n48271116,15574\n59055379,21622\n14152339,10181\n34851802,11546\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", "--samples", str(path), "--log-power", "fit")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["a_hat", "c_hat", "log_power", "rms_residual", "samples"]
    assert lines[1] == "c_hat: inf" and lines[4] == "samples: 4 used, 0 dropped"


def test_count_cyclic_ell_above_64_bits(capsys):
    # (ell - 1)-th roots are 1 without computing 2**(ell - 1); no split prime is that small
    code, out, _ = run_cli(capsys, "count", "cyclic", "--ell", "18446744073709551629", "--grid", "1000:100000:3")
    assert code == 0 and out == "x,count\n1000,0\n10000,0\n100000,0\n"


def test_fit_synthetic_file(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    rows = ["x,count"] + [f"{x},{int(5 * x**0.5)}" for x in (10**4, 10**5, 10**6, 10**7, 10**8)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fit", "--samples", str(path))
    assert code == 0
    a_hat = float(next(line.split()[1] for line in out.splitlines() if line.startswith("a_hat")))
    assert abs(a_hat - 0.5) < 1e-3


def test_fit_with_predict(capsys):
    code, out, _ = run_cli(
        capsys,
        "fit",
        "--family",
        "cyclic",
        "--ell",
        "3",
        "--grid",
        "1000:1e9:8",
        "--log-power",
        "0",
        "--predict",
        "regular(natural(C 3))",
    )
    assert code == 0
    assert "predicted a(G): 1/2" in out
    assert "verdict: WITHIN tolerance" in out
    assert "empirical evidence, not a proof" in out


def test_fit_with_predict_fits_once(capsys, monkeypatch):
    fits = []
    fit_exponent = fitting.fit_exponent

    def counted(*args, **kwargs):
        fits.append(1)
        return fit_exponent(*args, **kwargs)

    monkeypatch.setattr(fitting, "fit_exponent", counted)
    code, out, _ = run_cli(capsys, "fit", "--family", "quadratic", "--predict", "S 2")
    assert code == 0 and "verdict: WITHIN tolerance" in out
    assert len(fits) == 1  # the verdict compares the fit already made


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--family", "quadratic", "--predict", "S 2"],
            "a_hat: 0.99918857\nc_hat: 0.61458011\nlog_power: 0 (fixed)\nrms_residual: 0.0035270733\n"
            "samples: 12 used, 0 dropped\npredicted a(G): 1\n|a_hat - a(G)|: 0.0008114288\ntolerance: 0.05\n",
        ),
        (
            ["--family", "cyclic", "--ell", "3", "--predict", "C 3"],
            "a_hat: 0.49741118\nc_hat: 0.16380077\nlog_power: 0 (fixed)\nrms_residual: 0.10885396\n"
            "samples: 12 used, 0 dropped\npredicted a(G): 1/2\n|a_hat - a(G)|: 0.0025888205\ntolerance: 0.05\n",
        ),
        (
            ["--family", "biquadratic", "--predict", "product(C 2, C 2)"],
            "a_hat: 0.45091728\nc_hat: 0.0032444784\nlog_power: 2.4498937 (fitted)\nrms_residual: 0.014298704\n"
            "samples: 12 used, 0 dropped\npredicted a(G): 1/2\n|a_hat - a(G)|: 0.049082721\ntolerance: 0.1\n",
        ),
    ],
)
def test_fit_with_predict_default_grid_output(capsys, argv, expected):
    # byte for byte: a change in how the fit is computed that moves any printed digit fails here
    code, out, err = run_cli(capsys, "fit", *argv)
    assert (code, err) == (0, "")
    assert out == expected + "verdict: WITHIN tolerance (empirical evidence, not a proof)\n"


def test_fit_refuses_a_tolerance_that_is_nan(capsys):
    code, out, err = run_cli(capsys, "fit", "--family", "quadratic", "--predict", "S 2", "--tolerance", "nan")
    assert (code, out) == (2, "") and "tolerance must be a finite number >= 0" in err


def test_fit_refuses_a_negative_tolerance(capsys):
    code, out, err = run_cli(capsys, "fit", "--family", "quadratic", "--predict", "S 2", "--tolerance", "-1")
    assert (code, out) == (2, "") and "tolerance must be a finite number >= 0" in err


def test_fit_refuses_a_log_power_that_is_nan(capsys):
    code, out, err = run_cli(capsys, "fit", "--family", "quadratic", "--log-power", "nan")
    assert (code, out) == (2, "") and "log power must be 'fit' or a finite number" in err


def test_fit_refuses_a_log_power_that_is_not_a_number(capsys):
    code, out, err = run_cli(capsys, "fit", "--family", "quadratic", "--log-power", "abc")
    assert (code, out, err) == (2, "", "error: --log-power must be 'fit' or a finite number, got 'abc'\n")


@pytest.mark.parametrize("argv", [["table", "deg6"], ["aval", "C 2"], ["count", "quadratic", "--grid", "1:100:3"]])
def test_cap_below_one_refused_while_parsing(capsys, argv):
    for cap in ("0", "-5"):
        with pytest.raises(SystemExit) as exit_:
            main(["--cap", cap, *argv])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: argument --cap: must be at least 1, got {cap}\n")


def test_fit_cyclic_default_grid(capsys):
    # the documented invocation with no grid flag
    code, out, _ = run_cli(capsys, "fit", "--family", "cyclic", "--ell", "3", "--predict", "regular(C 3)")
    assert code == 0
    assert "verdict: WITHIN tolerance" in out
    assert "tolerance: 0.05" in out


def test_fit_empty_file_exit_6(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", "--samples", str(path))
    assert code == 6 and err


def test_fit_malformed_row_exit_6(tmp_path, capsys):
    for row in ("30,7.5", "30,7,1", "30"):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,count\n\n10,3\n20,5\n{row}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--samples", str(path))
        assert code == 6 and "line 5:" in err


def test_fit_samples_not_utf8_exit_6(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_bytes(b"x,count\r\n10,3\r\n\xff100,5\r\n")
    code, _, err = run_cli(capsys, "fit", "--samples", str(path))
    assert code == 6 and "line 3:" in err


def test_compare_reps_example_fails(capsys):
    code, out, _ = run_cli(capsys, "compare-reps", "--example", "7.4")
    assert code == 0
    assert out.splitlines()[0] == "FAILS"
    assert "ind1: 36" in out
    assert "ind2: 8" in out
    assert "a1: 1/27" in out
    assert "a2: 1/8" in out
    assert "witness: g1" in out


def test_compare_reps_file_holds(tmp_path, capsys):
    # C4 regular against itself
    text = "degree=4\ngen=(1 2 3 4)\n---\ndegree=4\ngen=(1 2 3 4)\n"
    path = tmp_path / "pair.grp"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "compare-reps", "--file", str(path))
    assert code == 0
    assert out.strip() == "HOLDS"


def test_compare_reps_mismatched_counts_exit_7(tmp_path, capsys):
    text = "degree=3\ngen=(1 2)\ngen=(1 2 3)\n---\ndegree=3\ngen=(1 2 3)\n"
    path = tmp_path / "pair.grp"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "compare-reps", "--file", str(path))
    assert code == 7 and "generator counts" in err


def test_compare_reps_inconsistent_pair_exit_7(tmp_path, capsys):
    text = "degree=2\ngen=(1 2)\n---\ndegree=4\ngen=(1 2 3 4)\n"
    path = tmp_path / "pair.grp"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "compare-reps", "--file", str(path))
    assert code == 7 and "identity" in err


def test_compare_reps_inconsistent_pair_over_cap_exit_7(tmp_path, capsys):
    # each side fits the cap and the diagonal group both sides generate does not, but the
    # chain orders refuse the pair first: C2 against C3 (diagonal C6), and S4 on (1 2),
    # (1 2 3 4) against S4 on the same two generators swapped (diagonal of order 96)
    path = tmp_path / "pair.grp"
    for text, cap in (
        ("degree=2\ngen=(1 2)\n---\ndegree=3\ngen=(1 2 3)\n", 5),
        ("degree=4\ngen=(1 2)\ngen=(1 2 3 4)\n---\ndegree=4\ngen=(1 2 3 4)\ngen=(1 2)\n", 50),
    ):
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "--cap", str(cap), "compare-reps", "--file", str(path))
        assert (code, out) == (7, "") and "identity" in err


def test_compare_reps_side_over_cap_exit_3_before_any_unbounded_chain(tmp_path, capsys, monkeypatch):
    # both sides are S 100 on (1 2), (1 2 ... 100): each side's chain is built with the cap
    # and refused while it grows, so no chain, the diagonal's included, is built without it
    build = groups._schreier_sims

    def bounded(gens, cap=None):
        assert cap is not None, "a stabilizer chain was built without the cap"
        return build(gens, cap)

    monkeypatch.setattr(groups, "_schreier_sims", bounded)
    block = "degree=100\ngen=(1 2)\ngen=(" + " ".join(map(str, range(1, 101))) + ")\n"
    path = tmp_path / "s100.pair"
    path.write_text(block + "---\n" + block, encoding="utf-8")
    assert run_cli(capsys, "compare-reps", "--file", str(path)) == (3, "", "error: group order exceeds cap 1000000\n")
