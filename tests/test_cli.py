"""Command-line harness: file contents, determinism, exit codes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fracsum
from fracsum.cli import main
from fracsum.expsum import build_expsum, expsum_to_text, select_params

def run(args):
    return main([str(a) for a in args])


def load(path):
    return np.loadtxt(path, ndmin=2)


class TestExpsumConvergence:
    def test_error_below_bound_and_ordered_rates(self, tmp_path):
        out = tmp_path / "conv.dat"
        assert run(["expsum-convergence", "--alpha", 0.25, "--alpha", 0.75, "--N", 400, "--out", out]) == 0
        slopes = {}
        for alpha in (0.25, 0.75):
            data = load(tmp_path / f"conv_{alpha:.6f}.dat")
            assert np.all(data[:, 1] <= data[:, 2])  # certified bound rowwise
            assert np.all(np.diff(data[:, 0]) > 0)
            mask = (data[:, 1] >= 1e-12) & (data[:, 1] <= 1e-2)
            slopes[alpha] = np.polyfit(np.sqrt(data[mask, 0]), np.log(data[mask, 1]), 1)[0]
        # larger exponents converge faster in sqrt(N)
        assert abs(slopes[0.75]) > abs(slopes[0.25])

    def test_bit_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for out in (a, b):
            assert run(["expsum-convergence", "--alpha", 0.5, "--N", 150, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dump_expsum(self, tmp_path):
        out, dump = tmp_path / "c.dat", tmp_path / "sum.txt"
        assert run(["expsum-convergence", "--alpha", 0.5, "--N", 120, "--out", out, "--dump-expsum", dump]) == 0
        table = load(dump)
        assert table.shape[1] == 2
        assert np.all(table[:, 0] > 0)
        assert np.all(np.diff(table[:, 1]) > 0)

    def test_suffix_leaves_a_dotted_directory_alone(self, tmp_path):
        (tmp_path / "run.d").mkdir()
        out = tmp_path / "run.d" / "conv"
        assert run(["expsum-convergence", "--alpha", 0.25, "--alpha", 0.75, "--N", 40, "--out", out]) == 0
        assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == ["conv_0.250000", "conv_0.750000"]


class TestStripBound:
    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_bound_dominates_rowwise(self, tmp_path, alpha):
        out = tmp_path / "strip.dat"
        assert run(["strip-bound", "--alpha", alpha, "--tau-max", 4, "--out", out]) == 0
        data = load(out)
        assert np.all(np.isfinite(data[0]))  # tau = 0 row
        assert np.all(data[:, 1] <= data[:, 2] * (1.0 + 1e-12) + 1e-300)

    def test_invalid_width_rejected(self, tmp_path):
        assert run(["strip-bound", "--alpha", 0.25, "--d", 0.3, "--out", tmp_path / "x.dat"]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--xi", "nan"), ("--xi", "inf"), ("--tau-max", "nan"), ("--tau-max", "inf"), ("--points", "0")],
    )
    def test_non_finite_or_empty_input_rejected(self, tmp_path, flag, value, capsys):
        out = tmp_path / "x.dat"
        assert run(["strip-bound", flag, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fracsum: {flag} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha, tau_max", [(0.01, 1e5), (0.01, 1e80), (0.25, 1e80)])
    def test_overflowing_tau_max_rejected(self, tmp_path, alpha, tau_max, capsys):
        # the integrand's power overflows (raising, or through products as NaN) long after |g| underflows
        out = tmp_path / "x.dat"
        assert run(["strip-bound", "--alpha", alpha, "--tau-max", tau_max, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fracsum: log(1 + exp(tau))**(1/alpha) is not finite at tau") and err.count("\n") == 1
        assert not out.exists()

    def test_huge_xi_meets_the_floor_without_a_warning(self, tmp_path, capsys):
        # xi times the decay overflows; the bound column is the exp(-745) floor, and stderr stays empty
        out = tmp_path / "x.dat"
        assert run(["strip-bound", "--xi", 1e308, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(load(out)[1:, 2] == math.exp(-745.0))

    def test_negative_tau_max_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.dat"
        assert run(["strip-bound", "--alpha", 0.3, "--tau-max", -5, "--out", out]) == 2
        assert capsys.readouterr().err == "fracsum: --tau-max must be nonnegative, got -5.0\n"
        assert not out.exists()


class TestPoisson:
    def test_error_decreases_with_terms(self, tmp_path):
        out = tmp_path / "p.dat"
        code = run(
            ["poisson", "--d", 3, "--n", 16, "--alpha", 0.4, "--rhs", "inv_linear",
             "--sum-lengths", "20,40,60,90", "--out", out]
        )
        assert code == 0
        data = load(out)
        assert np.all(np.diff(data[:, 1]) < 0)
        assert np.all(data[:, 1] <= data[:, 2] * (1.0 + 1e-9))

    def test_formats_agree_with_dense(self, tmp_path):
        results = {}
        for fmt in ("dense", "cp", "tt", "tucker"):
            out = tmp_path / f"p_{fmt}.dat"
            code = run(
                ["poisson", "--d", 3, "--n", 10, "--alpha", 0.5, "--rhs", "separable",
                 "--format", fmt, "--sum-lengths", "30,60", "--out", out]
            )
            assert code == 0
            results[fmt] = load(out)[:, 1]
        for fmt in ("cp", "tt", "tucker"):
            np.testing.assert_allclose(results[fmt], results["dense"], rtol=1e-8)

    def test_classical_alpha_one_mode(self, tmp_path):
        out = tmp_path / "sylvester.dat"
        assert run(["poisson", "--d", 2, "--n", 12, "--alpha", 1.0, "--rhs", "inv_linear", "--out", out]) == 0
        data = load(out)
        assert data.shape == (1, 3)
        assert data[0, 1] <= 1e-10

    def test_classical_mode_has_no_sum_to_dump(self, tmp_path, capsys):
        args = ["poisson", "--d", 2, "--n", 12, "--alpha", 1.0, "--out", tmp_path / "x.dat"]
        assert run(args + ["--dump-expsum", tmp_path / "sum.txt"]) == 2
        assert capsys.readouterr().err == (
            "fracsum: --dump-expsum needs alpha < 1: the classical mode alpha = 1 builds no sum\n"
        )
        assert not (tmp_path / "sum.txt").exists() and not (tmp_path / "x.dat").exists()

    def test_cp_format_needs_low_rank_rhs(self, tmp_path):
        code = run(
            ["poisson", "--d", 3, "--n", 8, "--alpha", 0.4, "--rhs", "inv_linear",
             "--format", "cp", "--out", tmp_path / "x.dat"]
        )
        assert code == 2

    def test_memory_cap_exit_code(self, tmp_path):
        code = run(["poisson", "--d", 9, "--n", 16, "--alpha", 0.4, "--out", tmp_path / "x.dat"])
        assert code == 3

    def test_cp_result_under_the_cap_densifies_in_chunks(self, tmp_path):
        # the densification's operands need 1088 entries in one chunk; its 512-entry result fits
        cp, dense = tmp_path / "cp.dat", tmp_path / "dense.dat"
        assert run(["poisson", "--format", "cp", "--rhs", "random_rank1", "--n", 8, "--memory-cap", 1024, "--out", cp]) == 0
        assert run(["poisson", "--rhs", "random_rank1", "--n", 8, "--out", dense]) == 0
        np.testing.assert_allclose(load(cp), load(dense), rtol=1e-10, atol=0)

    def test_tucker_solves_form_no_operand_above_the_cap(self, tmp_path, monkeypatch):
        # at n = 32 the HOSVD ranks are (9, 9, 9): 3 terms take the tall route, whose one-term
        # operands (59,049 entries) exceed the cap, 4 and 150 the all-wide one, whose filter
        # densification takes 150 * 1024 entries in one chunk at the default cap
        capped, free = tmp_path / "capped.dat", tmp_path / "free.dat"
        args = ["poisson", "--format", "tucker", "--n", 32, "--sum-lengths", "3,4,150"]
        assert run(args + ["--out", free]) == 0
        sizes, kron = [], fracsum.tensors._term_kron

        def recorded(blocks, n_terms):
            out = kron(blocks, n_terms)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(fracsum.tensors, "_term_kron", recorded)
        assert run(args + ["--memory-cap", 32768, "--out", capped]) == 0
        assert sizes and max(sizes) <= 32768
        np.testing.assert_allclose(load(capped), load(free), rtol=1e-10, atol=0)

    def test_one_dimensional_factor_counted_against_the_cap(self, tmp_path, capsys, monkeypatch):
        # n**d is 1000 entries, but the factor and the oracle's eigenvectors are n x n
        def reached(*args, **kwargs):
            raise AssertionError("poisson built a factor above the cap")

        monkeypatch.setattr(fracsum.cli, "laplacian_1d", reached)
        code = run(["poisson", "--d", 1, "--n", 1000, "--memory-cap", 100000, "--out", tmp_path / "x.dat"])
        assert code == 3
        assert capsys.readouterr().err == "fracsum: oracle needs 1000000 entries, cap is 100000\n"

    @pytest.mark.parametrize("n_terms", [0, 2])
    def test_sum_length_below_three_rejected(self, tmp_path, n_terms, capsys):
        assert run(["poisson", "--n", 6, "--N", n_terms, "--out", tmp_path / "x.dat"]) == 2
        assert capsys.readouterr().err == "fracsum: --N must be at least 3 (smallest certified sum)\n"
        assert not (tmp_path / "x.dat").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for out in (a, b):
            assert run(
                ["poisson", "--d", 3, "--n", 10, "--alpha", 0.5, "--rhs", "random_rank1",
                 "--seed", 7, "--sum-lengths", "25,50", "--out", out]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRankDecay:
    def test_columns_and_orderings(self, tmp_path):
        out = tmp_path / "lr.dat"
        assert run(["rank-decay", "--n", 10, "--N", 9, "--seed", 0, "--out", out]) == 0
        data = load(out)
        assert data.shape[1] == 7
        n, cp, tucker, tt, constructive, certified, curve = data.T
        # structured formats approximate at least as well as the CP fit
        assert np.all(tucker <= cp * (1.0 + 1e-9) + 1e-12)
        assert np.all(tt <= cp * (1.0 + 1e-9) + 1e-12)
        # every measured distance sits below the constructed approximant error
        for measured in (cp, tucker, tt):
            assert np.all(measured <= constructive * (1.0 + 1e-9))
        assert np.all(constructive <= certified * (1.0 + 1e-9))
        assert np.all(certified <= curve * (1.0 + 1e-9))

    def test_format_subset_leaves_gaps(self, tmp_path):
        out = tmp_path / "lr2.dat"
        assert run(["rank-decay", "--n", 8, "--N", 5, "--format", "tt", "--out", out]) == 0
        data = load(out)
        assert np.all(np.isnan(data[:, 1]))
        assert np.all(np.isfinite(data[:, 3]))

    @pytest.mark.parametrize("formats", ["cp", "tucker,tt"])
    def test_cp_fits_form_no_operand_above_the_cap(self, tmp_path, formats, monkeypatch):
        # n**3 = 512 entries fit the cap; at rank 12 cp_als takes the Khatri-Rao product of two
        # factors 8 columns at a time (512 entries), not in one 768-entry operand
        capped, free = tmp_path / "capped.dat", tmp_path / "free.dat"
        args = ["rank-decay", "--n", 8, "--N", 12, "--format", formats]
        assert run(args + ["--out", free]) == 0
        sizes, kron = [], fracsum.tensors._term_kron

        def recorded(blocks, n_terms):
            out = kron(blocks, n_terms)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(fracsum.tensors, "_term_kron", recorded)
        assert run(args + ["--memory-cap", 512, "--out", capped]) == 0
        assert sizes and max(sizes) <= 512
        np.testing.assert_allclose(load(capped), load(free), rtol=1e-10, atol=0)
        if formats == "cp":
            assert 8 * 8 * 12 not in sizes
            assert load(capped)[:, 1].tobytes() == load(free)[:, 1].tobytes()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for out in (a, b):
            assert run(["rank-decay", "--n", 8, "--N", 6, "--seed", 3, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTTHighD:
    def test_low_dimension_reports_error(self, tmp_path):
        out = tmp_path / "tt4.dat"
        assert run(["tt-highd", "--d", 4, "--n", 8, "--N", 60, "--out", out]) == 0
        d, wall, err, rank = load(out)[0]
        assert d == 4
        assert math.isfinite(err) and err < 1e-2
        assert rank >= 1

    def test_high_dimension_blanks_error_column(self, tmp_path):
        out = tmp_path / "tt6.dat"
        # above the 3,276 entries of the train's largest raw carriage, below the 6**6 dense ones
        code = run(["tt-highd", "--d", 6, "--n", 6, "--N", 40, "--memory-cap", 5000, "--out", out])
        assert code == 0
        d, wall, err, rank = load(out)[0]
        assert d == 6
        assert math.isnan(err)
        assert rank >= 1

    def test_the_cap_gates_the_train_set_up(self, tmp_path, capsys):
        code = run(["tt-highd", "--d", 4, "--n", 40, "--N", 10, "--memory-cap", 100000, "--out", tmp_path / "tt.dat"])
        assert code == 3
        assert capsys.readouterr().err == "fracsum: inv_linear train needs 372880 entries, cap is 100000\n"

    def test_dimension_16_runs_in_train_format(self, tmp_path):
        # 16**16 entries: the right-hand side is never densified
        out = tmp_path / "tt16.dat"
        assert run(["tt-highd", "--d", 16, "--n", 16, "--N", 10, "--out", out]) == 0
        data = load(out)
        assert data.shape == (1, 4)
        d, wall, err, rank = data[0]
        assert d == 16 and math.isnan(err) and rank >= 1

    def test_rhs_is_the_exact_train_below_the_cap(self, tmp_path, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("tt-highd sampled or compressed a dense right-hand side")

        monkeypatch.setattr(fracsum.cli, "sample_rhs", reached)
        monkeypatch.setattr(fracsum.cli, "tt_svd", reached)
        assert run(["tt-highd", "--d", 5, "--n", 8, "--N", 20, "--out", tmp_path / "tt5.dat"]) == 0

    def test_train_set_up_above_the_default_cap_exits_three(self, tmp_path, capsys, monkeypatch):
        # the raw carriage of --d 3 --n 500 has 500 * 500 * 999 entries, above 2**27
        def reached(*args, **kwargs):
            raise AssertionError("tt-highd built a factor before its right-hand side")

        monkeypatch.setattr(fracsum.cli, "laplacian_1d", reached)
        assert run(["tt-highd", "--d", 3, "--n", 500, "--N", 10, "--out", tmp_path / "x.dat"]) == 3
        assert capsys.readouterr().err == "fracsum: inv_linear train needs 249750000 entries, cap is 134217728\n"

    def test_multiple_dimensions_one_row_each(self, tmp_path):
        out = tmp_path / "tt.dat"
        assert run(["tt-highd", "--d", 3, "--d", 4, "--n", 6, "--N", 30, "--out", out]) == 0
        data = load(out)
        assert data.shape[0] == 2
        np.testing.assert_array_equal(data[:, 0], [3, 4])

    def test_deterministic_up_to_timing(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for out in (a, b):
            assert run(["tt-highd", "--d", 4, "--n", 6, "--N", 40, "--out", out]) == 0
        da, db = load(a), load(b)
        np.testing.assert_array_equal(np.delete(da, 1, axis=1), np.delete(db, 1, axis=1))

    def test_eps_selects_the_a_priori_sum(self, tmp_path):
        out, dump = tmp_path / "tt.dat", tmp_path / "sum.txt"
        assert run(["tt-highd", "--d", 3, "--n", 6, "--eps", 1e-6, "--out", out, "--dump-expsum", dump]) == 0
        data = load(out)
        assert data.shape == (1, 4) and np.all(np.isfinite(data))
        assert dump.read_text() == expsum_to_text(build_expsum(select_params(0.5, 1e-6)))

    @pytest.mark.parametrize("round_tol", ["nan", "inf"])
    def test_non_finite_round_tol_exit_code(self, tmp_path, round_tol, capsys):
        args = ["tt-highd", "--d", 3, "--n", 4, "--N", 10, "--round-tol", round_tol, "--out", tmp_path / "x.dat"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "round_tol must be finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("round_tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", [["tt-highd", "--d", 3], ["poisson", "--d", 3, "--format", "tt"]])
    def test_round_tol_checked_before_any_setup(self, tmp_path, round_tol, command, capsys, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the command built its sum or oracle before checking --round-tol")

        monkeypatch.setattr(fracsum.cli, "best_expsum", reached)
        monkeypatch.setattr(fracsum.cli, "oracle_apply", reached)
        assert run(command + ["--round-tol", round_tol, "--out", tmp_path / "x.dat"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fracsum: round_tol must be finite and nonnegative") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["0.0", "1.5", "nan"])
@pytest.mark.parametrize("command", ["strip-bound", "rank-decay", "tt-highd"])
def test_bad_alpha_exit_code(tmp_path, command, alpha, capsys):
    assert run([command, "--alpha", alpha, "--out", tmp_path / "x.dat"]) == 2
    assert capsys.readouterr().err == f"fracsum: alpha must be in (0, 1), got {float(alpha)}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["expsum-convergence", "--alpha", 0.006],
        ["poisson", "--alpha", 0.001, "--n", 4],
        ["rank-decay", "--alpha", 0.005, "--n", 4],
        ["tt-highd", "--alpha", 0.005, "--n", 4, "--d", 3],
        ["tt-highd", "--alpha", 0.005, "--n", 4, "--d", 3, "--eps", 1e-6],
    ],
    ids=["expsum-convergence", "poisson", "rank-decay", "tt-highd-N", "tt-highd-eps"],
)
def test_too_small_alpha_exit_code(tmp_path, args, capsys):
    # h**(-(alpha+1)/alpha) in the certified n_plus minimum overflows at these steps
    out = tmp_path / "x.dat"
    assert run(args + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fracsum: alpha = ") and "n_plus minimum overflows" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["poisson", "rank-decay", "tt-highd"])
def test_memory_cap_below_one_exit_code(tmp_path, command, cap, capsys):
    assert run([command, "--memory-cap", cap, "--out", tmp_path / "x.dat"]) == 2
    assert capsys.readouterr().err == f"fracsum: --memory-cap must be at least 1, got {cap}\n"


def _package_env():
    """The environment with the import path of the running suite, so a subprocess imports the package under test."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fracsum.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracsum.cli", "--help"], capture_output=True, text=True, env=_package_env()
        )
        assert proc.returncode == 0
        assert "expsum-convergence" in proc.stdout

    def test_unknown_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracsum.cli", "poisson", "--bogus"], capture_output=True, text=True, env=_package_env()
        )
        assert proc.returncode == 2
