"""End-to-end command-line behaviour."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tvdist import (
    DimensionError,
    ParameterError,
    ParseError,
    ProductPair,
    SizeError,
    TVDistError,
    ValidityError,
    cli,
    estimate_product_tv,
    parse_instance,
    product,
)
from tvdist.cli import main
from tvdist.files import derive_seed
from tvdist.sparsify import build_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def product_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, err = run(
        capsys, "gen", "--kind", "product", "--n", "4", "--q", "3", "--seed", "5", "--out", str(path)
    )
    assert code == 0, err
    return path


class TestGen:
    def test_writes_parseable_instance(self, product_file):
        pair = parse_instance(product_file.read_text())
        assert isinstance(pair, ProductPair) and pair.n == 4 and pair.q == 3

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "gen", "--kind", "markov", "--n", "3", "--q", "2",
                "--seed", "99", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "n,skew",
        [
            ("0", "1.0"), ("2", "0"), ("2", "-1"), ("2", "nan"), ("2", "inf"),
            # gamma draws that underflow to a zero row, or overflow its sum
            ("2", "1e-5"), ("2", "1e-300"), ("2", "1e308"),
        ],
    )
    def test_rejects_bad_parameters(self, n, skew, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "product", "--n", n, "--q", "2", "--skew", skew,
            "--seed", "1", "--out", str(tmp_path / "x.json")
        )
        assert code == 1
        assert err.startswith("error: parameter:")

    @pytest.mark.parametrize("kind,n,q", [("product", "100000000", "100000"), ("markov", "1000", "200")])
    def test_rejects_oversized_instance(self, kind, n, q, tmp_path, capsys):
        # refused before any draw: the product would need 72.8 TiB, and the
        # chain counts q * q entries per step
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "gen", "--kind", kind, "--n", n, "--q", q, "--seed", "1", "--out", str(out)
        )
        assert code == 1 and err.startswith("error: size:")
        assert not out.exists()


class TestEstimate:
    def test_fptas_report(self, product_file, capsys):
        code, out, _ = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "0.1")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "fptas" and report["epsilon"] == 0.1
        assert 0.0 <= report["estimate"] <= 1.0

    def test_modes_agree_on_small_instance(self, product_file, capsys):
        _, fptas_out, _ = run(
            capsys, "estimate", "--input", str(product_file), "--epsilon", "0.05"
        )
        _, exact_out, _ = run(capsys, "estimate", "--input", str(product_file), "--mode", "exact")
        _, oracle_out, _ = run(capsys, "estimate", "--input", str(product_file), "--mode", "oracle")
        fptas = json.loads(fptas_out)
        exact = json.loads(exact_out)
        oracle = json.loads(oracle_out)
        assert "epsilon" not in exact and "epsilon" not in oracle
        assert abs(exact["estimate"] - oracle["estimate"]) <= 1e-10
        assert (
            (1 - 0.05) * oracle["estimate"] - 1e-9 <= fptas["estimate"] <= oracle["estimate"] + 1e-9
        )
        assert fptas["instance_digest"] == exact["instance_digest"] == oracle["instance_digest"]

    def test_identical_pair_reports_zero(self, tmp_path, capsys):
        path = tmp_path / "same.json"
        path.write_text(
            '{"kind": "product", "n": 2, "q": 2,'
            ' "p": [[0.5, 0.5], [0.1, 0.9]], "q_dist": [[0.5, 0.5], [0.1, 0.9]]}'
        )
        code, out, _ = run(capsys, "estimate", "--input", str(path), "--epsilon", "0.5")
        assert code == 0
        assert json.loads(out)["estimate"] == 0.0

    def test_worked_instance_modes(self, tmp_path, capsys):
        path = tmp_path / "worked.json"
        path.write_text(
            '{"kind": "product", "n": 2, "q": 2,'
            ' "p": [[0.75, 0.25], [0.75, 0.25]], "q_dist": [[0.25, 0.75], [0.25, 0.75]]}'
        )
        _, exact_out, _ = run(capsys, "estimate", "--input", str(path), "--mode", "exact")
        assert json.loads(exact_out)["estimate"] == 0.5
        _, fptas_out, _ = run(capsys, "estimate", "--input", str(path), "--epsilon", "0.1")
        assert 0.45 <= json.loads(fptas_out)["estimate"] <= 0.5

    def test_markov_estimate(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        run(capsys, "gen", "--kind", "markov", "--n", "4", "--q", "2", "--seed", "3",
            "--out", str(path))
        code, out, _ = run(capsys, "estimate", "--input", str(path), "--epsilon", "0.2")
        assert code == 0
        assert json.loads(out)["mode"] == "fptas"

    def test_certified_report(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        run(capsys, "gen", "--kind", "product", "--n", "50", "--q", "8", "--seed", "7",
            "--skew", "0.5", "--out", str(path))
        code, out, _ = run(capsys, "estimate", "--input", str(path), "--epsilon", "0.05")
        assert code == 0
        report = json.loads(out)
        assert list(report)[-2:] == ["upper", "eps_s"]
        assert report["estimate"] >= 0.95 * report["upper"]

    def test_fptas_prints_the_library_result(self, tmp_path, capsys):
        # spiky rows: the Hellinger bound certifies the run with no fold,
        # unless a region asks for the final table
        path = tmp_path / "spiky.json"
        run(capsys, "gen", "--kind", "product", "--n", "30", "--q", "4", "--seed", "2",
            "--skew", "0.15", "--out", str(path))
        library = estimate_product_tv(parse_instance(path.read_text()), 0.05)
        assert library.iterations == 0
        _, out, _ = run(capsys, "estimate", "--input", str(path), "--epsilon", "0.05")
        doc = json.loads(out)
        assert (doc["estimate"], doc["max_support"]) == (library.estimate, 0)
        assert (doc["upper"], doc["eps_s"]) == (1.0, 0.05)
        region = tmp_path / "region.csv"
        _, out, _ = run(capsys, "estimate", "--input", str(path), "--epsilon", "0.05",
                        "--emit-region", str(region))
        assert json.loads(out)["max_support"] > 0 and region.exists()

    def test_emit_region(self, product_file, tmp_path, capsys):
        region = tmp_path / "region.csv"
        code, _, _ = run(
            capsys, "estimate", "--input", str(product_file), "--epsilon", "0.1",
            "--emit-region", str(region)
        )
        assert code == 0
        lines = region.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first == [0.0, 0.0] and last == [1.0, 1.0]

    def test_region_rejected_for_oracle_mode(self, product_file, tmp_path, capsys):
        code, _, err = run(
            capsys, "estimate", "--input", str(product_file), "--mode", "oracle",
            "--emit-region", str(tmp_path / "r.csv")
        )
        assert code == 1 and err.startswith("error: parameter:")

    def test_missing_epsilon_for_fptas(self, product_file, capsys):
        code, _, err = run(capsys, "estimate", "--input", str(product_file))
        assert code == 1 and err.startswith("error: parameter:")

    def test_bad_epsilon(self, product_file, capsys):
        code, _, err = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "1.5")
        assert code == 1 and err.startswith("error: parameter:")

    def test_oversized_table(self, product_file, monkeypatch, capsys):
        monkeypatch.setattr(product, "MAX_TABLE_ENTRIES", 8)
        code, _, err = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "0.1")
        assert code == 1 and err.startswith("error: size:")

    def test_oversized_partition(self, product_file, capsys):
        # the law's width at eps 1e-15 would need m = 2.1e8 low-side cells
        code, _, err = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "1e-15")
        assert code == 1 and err.startswith("error: size:")

    def test_partition_too_large_to_count(self, product_file, capsys):
        # at eps = 1e-310 the partition's cell count overflows to infinity
        code, _, err = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "1e-310")
        assert code == 1 and err.startswith("error: size:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "estimate", "--input", str(tmp_path / "nope.json"), "--epsilon", "0.1"
        )
        assert code == 1 and err.startswith("error: io:")

    @pytest.mark.parametrize(
        "error,kind",
        [
            (ParseError, "parse"), (ParameterError, "parameter"), (SizeError, "size"),
            (DimensionError, "dimension"), (ValidityError, "validity"),
            (TVDistError, "internal"), (OSError, "io"),
        ],
    )
    def test_error_kinds(self, error, kind, product_file, monkeypatch, capsys):
        def refuse(text):
            raise error("refused")

        monkeypatch.setattr(cli, "parse_instance", refuse)
        code, out, err = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "0.1")
        assert (code, out, err) == (1, "", f"error: {kind}: refused\n")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for content in (b"{}", b'{"kind": "\xff\xfe"}'):  # the second is not UTF-8
            bad.write_bytes(content)
            code, _, err = run(capsys, "estimate", "--input", str(bad), "--epsilon", "0.1")
            assert code == 1 and err.startswith("error: parse:"), content

    @pytest.mark.parametrize(
        "document,message",
        [
            (
                {"kind": "product", "n": 1, "q": 2, "p": [[0.6, 0.5]], "q_dist": [[0.5, 0.5]]},
                "p_marginals row 0 sums to 1.1, expected 1",
            ),
            (
                {
                    "kind": "markov", "n": 3, "q": 2, "p_init": [0.5, 0.5], "q_init": [0.5, 0.5],
                    "p_kernels": [[[1, 0], [0, 1]], [[0.6, 0.5], [0, 1]]],
                    "q_kernels": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                },
                "p_kernels[1] row 0 sums to 1.1, expected 1",
            ),
        ],
    )
    def test_bad_row_is_a_parse_error(self, document, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, out, err = run(capsys, "estimate", "--input", str(bad), "--epsilon", "0.1")
        assert (code, out, err) == (1, "", f"error: parse: {message}\n")


def _report_fields(out):
    """A report's keys in order and its values, less the run's wall time."""
    doc = json.loads(out)
    doc.pop("elapsed_ms")
    return list(doc.items())


class TestParserReuse:
    @pytest.fixture
    def parsers_built(self, monkeypatch):
        """How many parsers (subparsers included) have been made so far."""
        count = [0]
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        return count

    def test_two_calls_build_one_parser(self, product_file, parsers_built, capsys):
        cli.build_parser.cache_clear()
        argv = ("estimate", "--input", str(product_file), "--epsilon", "0.1")
        assert run(capsys, *argv)[0] == 0
        first = parsers_built[0]
        assert first > 0
        assert run(capsys, *argv)[0] == 0
        assert parsers_built[0] == first
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import tvdist.cli\n"
            "print(len(built), tvdist.cli.build_parser.cache_info().currsize)\n"
        )
        src = str(Path(cli.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_defaults_do_not_leak(self, product_file, tmp_path, capsys):
        argv = ("estimate", "--input", str(product_file), "--epsilon", "0.1")
        cli.build_parser.cache_clear()
        code, first, _ = run(capsys, *argv)
        assert code == 0
        region = tmp_path / "region.csv"
        code, exact, _ = run(capsys, "estimate", "--input", str(product_file), "--mode", "exact",
                             "--emit-region", str(region))
        assert code == 0 and json.loads(exact)["mode"] == "exact"
        region.unlink()
        code, again, _ = run(capsys, *argv)
        assert code == 0 and not region.exists()
        assert _report_fields(again) == _report_fields(first)

    def test_patched_function_runs_after_reuse(self, product_file, monkeypatch, capsys):
        argv = ("estimate", "--input", str(product_file), "--epsilon", "0.1")
        assert run(capsys, *argv)[0] == 0

        def refuse(text):
            raise ParseError("refused")

        monkeypatch.setattr(cli, "parse_instance", refuse)
        assert run(capsys, *argv) == (1, "", "error: parse: refused\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            ((), "the following arguments are required: command"),
            (("estimate", "--epsilon", "0.1"), "the following arguments are required: --input"),
            (("estimate", "--input", "x.json", "--epsilon", "tenth"),
             "argument --epsilon: invalid float value: 'tenth'"),
            (("estimate", "--input", "x.json", "--mode", "fast"),
             "argument --mode: invalid choice: 'fast' (choose from 'fptas', 'exact', 'oracle')"),
            (("estimate", "--input", "x.json", "--epsilon", "0.1", "--seed", "3"),
             "unrecognized arguments: --seed 3"),
        ],
    )
    def test_one_typed_line_then_a_valid_call(self, argv, message, product_file, capsys):
        assert run(capsys, *argv) == (2, "", f"error: parameter: {message}\n")
        code, out, err = run(capsys, "estimate", "--input", str(product_file), "--epsilon", "0.1")
        assert (code, err) == (0, "") and json.loads(out)["mode"] == "fptas"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["estimate", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tvdist estimate")


class TestBench:
    def test_grid_csv(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--kind", "product", "--n", "2", "4", "--q", "2", "3",
            "--epsilon", "0.5", "0.1", "--seed", "21", "--out", str(out_path)
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,q,epsilon,estimate,d_lb,max_support,elapsed_ms,tries,upper,eps_s"
        assert len(lines) == 1 + 2 * 2 * 2
        assert out_path.read_text() == out
        # grid order is deterministic: n-major, then q, then epsilon
        firsts = [line.split(",")[1:3] for line in lines[1:]]
        assert firsts == [
            ["2", "2"], ["2", "2"], ["2", "3"], ["2", "3"],
            ["4", "2"], ["4", "2"], ["4", "3"], ["4", "3"],
        ]
        # every row's peak support honors the cell-count ceiling
        for line in lines[1:]:
            _, n, q, eps, _, d_lb, max_support, *_ = line.split(",")
            n, q, eps, d_lb = int(n), int(q), float(eps), float(d_lb)
            if d_lb > 0 and n > 1:
                part = build_partition(eps / (2 * n), (eps / (2 * n)) * d_lb)
                assert int(max_support) <= q * part.interval_count

    def test_rejects_oversized_instance(self, capsys):
        code, out, err = run(
            capsys, "bench", "--kind", "product", "--n", "2", "100000000", "--q", "100000",
            "--epsilon", "0.5", "--seed", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: size:")

    @pytest.mark.parametrize("skew", ["0", "nan", "1e-5", "1e-300", "1e308"])
    def test_rejects_bad_skew(self, skew, capsys):
        code, out, err = run(
            capsys, "bench", "--kind", "markov", "--n", "2", "--q", "2",
            "--epsilon", "0.5", "--seed", "1", "--skew", skew
        )
        assert code == 1 and out == ""
        assert err.startswith("error: parameter:")

    def test_single_point_matches_estimate(self, tmp_path, capsys):
        seed, n, q, eps = 13, 3, 2, 0.25
        code, out, _ = run(
            capsys, "bench", "--kind", "product", "--n", str(n), "--q", str(q),
            "--epsilon", str(eps), "--seed", str(seed)
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        inst_path = tmp_path / "inst.json"
        run(capsys, "gen", "--kind", "product", "--n", str(n), "--q", str(q),
            "--seed", str(derive_seed(seed, n, q)), "--out", str(inst_path))
        code, est_out, _ = run(
            capsys, "estimate", "--input", str(inst_path), "--epsilon", str(eps)
        )
        report = json.loads(est_out)
        assert float(row[4]) == report["estimate"]
        assert float(row[5]) == report["d_lb"]
        assert int(row[6]) == report["max_support"]
        assert int(row[8]) == report["tries"]
        assert (float(row[9]), float(row[10])) == (report["upper"], report["eps_s"])

    def test_uncertified_runs_leave_upper_and_eps_s_empty(self, capsys):
        # a one-step product reports its distance exactly, with no certificate
        code, out, _ = run(
            capsys, "bench", "--kind", "product", "--n", "1", "--q", "3", "--epsilon", "0.1", "--seed", "5"
        )
        assert code == 0
        *_, tries, upper, eps_s = out.strip().splitlines()[1].split(",")
        assert (tries, upper, eps_s) == ("0", "", "")
