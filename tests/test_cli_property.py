"""Fuzz fit's float options through the CLI: every value exits 0 or 2, a refusal is one line, and
no fit that prints holds a nan, or an inf beyond the c_hat line."""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcount import cli

# each float as the user might type it: repr, exponent form and short form
FLOAT_TEXTS = st.one_of(st.floats().map(repr), st.floats().map("{:e}".format), st.floats().map("{:.3g}".format))


@settings(max_examples=300, deadline=None)
@given(st.one_of(FLOAT_TEXTS, st.sampled_from(["fit", "abc", ""])), FLOAT_TEXTS)
@example("-2.5e+00", "0.05")
@example("-inf", "0.1")
@example("1e+308", "0.1")
@example("fit", "-1.000000e+00")
@example("-5e-324", "-0.0")
def test_fit_float_options_keep_the_exit_code_contract(log_power, tolerance):
    argv = ["fit", "--family", "quadratic", "--grid", "100:1e6:6", "--predict", "S 2"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--log-power", log_power, "--tolerance", tolerance])
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
    if code == 0:
        assert "nan" not in out
        assert all(line.startswith("c_hat: ") for line in out.splitlines() if "inf" in line)
