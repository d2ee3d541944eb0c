from galcount import fields
from galcount.cli import _parse_grid, main


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


def test_count_cyclic_even_ell_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "cyclic", "--ell", "4", "--grid", "49:100:2")
    assert code == 2 and "odd prime" in err


def test_count_cyclic_long_ell_exit_2(capsys):
    # a 19-digit strong pseudoprime is refused without sieving up to its square root
    code, _, err = run_cli(capsys, "fit", "--family", "cyclic", "--ell", "3825123056546413051")
    assert code == 2 and "odd prime" in err
    code, _, err = run_cli(capsys, "count", "cyclic", "--ell", str(10**30 + 1), "--grid", "49:100:2")
    assert code == 2 and "primality is only decided below" in err


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


def test_allocation_failure_exit_2(capsys, monkeypatch):
    # the conductor table up to 1e15 would take 7 PiB
    code, out, err = run_cli(capsys, "count", "cyclic", "--ell", "3", "--grid", "1000:1e30:3")
    assert (code, out) == (2, "") and err.startswith("error: Unable to allocate")

    def bare_memory_error(*args):
        raise MemoryError

    monkeypatch.setattr(fields, "quadratic_samples", bare_memory_error)
    assert run_cli(capsys, "count", "quadratic") == (2, "", "error: out of memory\n")


def test_fit_sample_beyond_float_range_exit_6(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text(f"x,count\n10,3\n20,5\n{10**400},7\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", "--samples", str(path))
    assert code == 6 and err == "error: line 4: sample beyond the float range\n"


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


def test_compare_reps_inconsistent_pair_over_cap_exit_3(tmp_path, capsys):
    # each side fits under the cap, but the diagonal group both generate (C6) does not
    text = "degree=2\ngen=(1 2)\n---\ndegree=3\ngen=(1 2 3)\n"
    path = tmp_path / "pair.grp"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "--cap", "5", "compare-reps", "--file", str(path))[0] == 3
    assert run_cli(capsys, "--cap", "6", "compare-reps", "--file", str(path))[0] == 7
