"""Command surface: schemas, exit codes, file transforms, reproducibility."""

import argparse
import csv
import io
import json
import os
import resource
import select
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from setshaping import cli, montecarlo
from setshaping.analyzer import SERIES_LIMIT
from setshaping.cli import main
from setshaping.errors import (
    BlockLengthError,
    CorruptStreamError,
    DegenerateSampleError,
    InvalidSymbolError,
    NotInImageError,
    ResourceLimitError,
    ShapingError,
)


# stdout of `table2 --method mc -M 196625 --threads 2 --format csv`, three
# whole shards and an uneven fourth per row.
TABLE2_MC_CSV = (
    "alphabet_size,block_length,surplus,method,source_bits,shaped_bits,diff_bits,source_stderr,shaped_stderr,samples,seed\n"
    "2,100,1,monte-carlo,99.274656,99.657060,-0.382404,0.002304,0.004293,196625,2\n"
    "3,100,1,monte-carlo,157.039617,157.030214,0.009403,0.003275,0.007418,196625,3\n"
    "4,100,1,monte-carlo,197.818600,197.349055,0.469545,0.004012,0.009738,196625,4\n"
    "5,100,1,monte-carlo,229.289826,228.352152,0.937674,0.004626,0.011957,196625,5\n"
    "6,100,1,monte-carlo,254.849996,253.466660,1.383336,0.005178,0.014016,196625,6\n"
    "7,100,1,monte-carlo,276.343018,274.476656,1.866363,0.005729,0.016067,196625,7\n"
    "8,100,1,monte-carlo,294.872412,292.596399,2.276012,0.006165,0.017899,196625,8\n"
    "9,100,1,monte-carlo,311.116270,308.394339,2.721931,0.006621,0.019784,196625,9\n"
    "10,100,1,monte-carlo,325.561987,322.393430,3.168557,0.007071,0.021892,196625,10\n"
)

# stdout of the exact table commands: `table1` and `table1 --interpretation
# literal` (csv), and `table2 --method auto -M 20000 --seed 3 --threads 2`
# (csv), whose rows a=2..10 are all exact.
TABLE1_CSV = (
    "alphabet_size,block_length,surplus,method,source_bits,shaped_bits,diff_bits,source_stderr,shaped_stderr,samples,seed\n"
    "2,2,1,exact,1.000,1.377,-0.377,,,,\n"
    "3,3,1,exact,2.893,2.885,0.009,,,,\n"
    "4,4,1,exact,5.296,5.050,0.246,,,,\n"
    "5,5,1,exact,8.070,7.708,0.362,,,,\n"
    "6,6,1,exact,11.137,10.223,0.915,,,,\n"
    "7,7,1,exact,14.448,13.387,1.061,,,,\n"
)

TABLE1_LITERAL_CSV = (
    "alphabet_size,block_length,surplus,method,source_bits,shaped_bits,diff_bits,source_stderr,shaped_stderr,samples,seed\n"
    "2,2,1,exact,2.000,3.000,-1.000,,,,\n"
    "3,3,1,exact,4.755,6.340,-1.585,,,,\n"
    "4,4,1,exact,8.000,10.000,-2.000,,,,\n"
    "5,5,1,exact,11.610,13.932,-2.322,,,,\n"
    "6,6,1,exact,15.510,18.095,-2.585,,,,\n"
    "7,7,1,exact,19.651,22.459,-2.807,,,,\n"
)

TABLE2_AUTO_CSV = (
    "alphabet_size,block_length,surplus,method,source_bits,shaped_bits,diff_bits,source_stderr,shaped_stderr,samples,seed\n"
    "2,100,1,exact,99.274996,99.657381,-0.382385,,,,\n"
    "3,100,1,exact,157.043710,157.033591,0.010120,,,,\n"
    "4,100,1,exact,197.817305,197.338892,0.478413,,,,\n"
    "5,100,1,exact,229.277247,228.326414,0.950833,,,,\n"
    "6,100,1,exact,254.845003,253.431847,1.413156,,,,\n"
    "7,100,1,exact,276.345625,274.481831,1.863793,,,,\n"
    "8,100,1,exact,294.868439,292.565816,2.302623,,,,\n"
    "9,100,1,exact,311.116004,308.384367,2.731638,,,,\n"
    "10,100,1,exact,325.567930,322.415372,3.152558,,,,\n"
)

# `table1 --format json`: these (source, shaped, diff) bits per row, a=2..7,
# written by json.dump with indent=2 and a trailing newline.
TABLE1_JSON_BITS = [
    (1.0, 1.377, -0.377),
    (2.893, 2.885, 0.009),
    (5.296, 5.05, 0.246),
    (8.07, 7.708, 0.362),
    (11.137, 10.223, 0.915),
    (14.448, 13.387, 1.061),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def strict_json(text):
    """json.loads that refuses Infinity and NaN, which JSON does not have."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestRankCommands:
    def test_rank_of_first_string(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "11", "-a", "2")
        assert code == 0
        assert out == "0\n"

    def test_unrank_of_last_string(self, capsys):
        code, out, _ = run_cli(capsys, "unrank", "3", "-n", "2", "-a", "2")
        assert code == 0
        assert out == "10\n"

    def test_round_trip_spot_checks(self, capsys):
        for rank in (0, 7, 80, 242):
            code, out, _ = run_cli(capsys, "unrank", str(rank), "-n", "5", "-a", "3")
            assert code == 0
            code, out2, _ = run_cli(capsys, "rank", out.strip(), "-a", "3")
            assert code == 0
            assert out2.strip() == str(rank)

    def test_wide_alphabet_uses_comma_lists(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "11,0,3", "-a", "12")
        assert code == 0
        rank = int(out)
        code, out, _ = run_cli(capsys, "unrank", str(rank), "-n", "3", "-a", "12")
        assert code == 0
        assert out.strip() == "11,0,3"

    def test_invalid_symbol_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "rank", "21", "-a", "2")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("command", ["rank", "shape"])
    @pytest.mark.parametrize(
        "text, alphabet",
        [
            ("\u06631", 5),
            ("\u00b21", 5),
            ("1,abc", 12),
            ("0\u00e91", 3),
            ("1,,2", 12),
            ("1,2,", 12),
            (",1,2", 12),
            ("1, ,2\n", 12),
            ("1,2,\n", 12),
        ],
    )
    def test_malformed_symbol_text_is_domain_error(
        self, capsys, tmp_path, command, text, alphabet
    ):
        # an Arabic-Indic 3, a superscript 2, a word, a non-ASCII letter,
        # then empty symbols between, after and before commas
        if command == "rank":
            argv = ["rank", text, "-a", str(alphabet)]
        else:
            src = tmp_path / "in.txt"
            src.write_bytes(text.encode("utf-8"))
            argv = ["shape", str(src), "-a", str(alphabet), "-n", "2", "--text"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("text", ["1 2", "1, 2", " 1,2\n", "1\n2\n"])
    def test_large_alphabet_separators(self, capsys, text):
        # commas, whitespace and a trailing newline all separate symbols
        code, out, _ = run_cli(capsys, "rank", text, "-a", "12")
        assert (code, out) == (0, "120\n")

    def test_out_of_range_rank_is_argument_error(self, capsys):
        code, _, err = run_cli(capsys, "unrank", "4", "-n", "2", "-a", "2")
        assert code == 2
        assert err == "error: rank 4 out of range for 2**2 strings\n"

    def test_non_digit_symbol_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "rank", "2x", "-a", "3")
        assert (code, out) == (3, "")
        assert err == "error: text mode expects decimal digits only\n"

    def test_resource_cap_exit_code(self, capsys, monkeypatch):
        # The complete order of 40 into 10 parts walks 16,928 rows of 364
        # bytes, 6.2 MB, against a budget of 1 MB.
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 10**6)
        code, out, err = run_cli(capsys, "rank", "0" * 40, "-a", "10")
        assert (code, out) == (4, "")
        assert err.startswith("error: the partitions of n=40 into a=10 parts need more than")
        assert err.count("\n") == 1

    def test_unrank_past_the_budget_exits_4_in_bounded_memory(self):
        # The complete binary order at n=100000 has 50,001 rows whose string
        # totals reach 12.5 kB each; the walk is refused after 21,195 of them,
        # well inside 1 GB of address space.
        limit = 2**30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        result = subprocess.run(
            [sys.executable, "-m", "setshaping", "unrank", "0", "-n", "100000", "-a", "2"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,
            # One BLAS thread: its per-thread buffers would otherwise reserve
            # address space in proportion to the host's core count.
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1


class TestTable1:
    def test_csv_matches_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        rows = parse_csv(out)
        assert [r["alphabet_size"] for r in rows] == [str(a) for a in range(2, 8)]
        assert all(r["method"] == "exact" for r in rows)
        by_a = {r["alphabet_size"]: r for r in rows}
        assert (by_a["2"]["source_bits"], by_a["2"]["shaped_bits"], by_a["2"]["diff_bits"]) == (
            "1.000", "1.377", "-0.377",
        )
        assert (by_a["5"]["source_bits"], by_a["5"]["shaped_bits"], by_a["5"]["diff_bits"]) == (
            "8.070", "7.708", "0.362",
        )
        assert (by_a["7"]["source_bits"], by_a["7"]["shaped_bits"], by_a["7"]["diff_bits"]) == (
            "14.448", "13.387", "1.061",
        )

    @pytest.mark.parametrize(
        "argv, want",
        [((), TABLE1_CSV), (("--interpretation", "literal"), TABLE1_LITERAL_CSV)],
        ids=["empirical", "literal"],
    )
    def test_csv_is_pinned(self, capsys, argv, want):
        assert run_cli(capsys, "table1", *argv) == (0, want, "")

    def test_json_is_pinned(self, capsys):
        records = [
            {
                "alphabet_size": a,
                "block_length": a,
                "surplus": 1,
                "method": "exact",
                "source_bits": source,
                "shaped_bits": shaped,
                "diff_bits": diff,
                "source_stderr": None,
                "shaped_stderr": None,
                "samples": None,
                "seed": None,
            }
            for a, (source, shaped, diff) in enumerate(TABLE1_JSON_BITS, start=2)
        ]
        want = json.dumps(records, indent=2) + "\n"
        assert run_cli(capsys, "table1", "--format", "json") == (0, want, "")

    def test_csv_header_is_stable(self, capsys):
        _, out, _ = run_cli(capsys, "table1")
        assert out.splitlines()[0] == (
            "alphabet_size,block_length,surplus,method,source_bits,shaped_bits,"
            "diff_bits,source_stderr,shaped_stderr,samples,seed"
        )

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 6
        first = records[0]
        assert first["alphabet_size"] == 2
        assert first["block_length"] == 2
        assert first["surplus"] == 1
        assert first["source_bits"] == 1.0
        assert first["shaped_bits"] == 1.377
        assert first["source_stderr"] is None

    def test_literal_interpretation_rows_are_block_entropies(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--interpretation", "literal")
        assert code == 0
        rows = parse_csv(out)
        assert (rows[0]["source_bits"], rows[0]["shaped_bits"]) == ("2.000", "3.000")
        assert rows[0]["diff_bits"] == "-1.000"


class TestTable2:
    def test_auto_method_splits_at_the_cap(self, capsys, monkeypatch):
        # The shaped means' walks keep 779 rows of 389 bytes at a=5 and
        # 1,978 of 396 at a=6 (n+k = 101): 5*10**5 bytes admit a=2..5 only.
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 5 * 10**5)
        code, out, _ = run_cli(
            capsys, "table2", "-M", "3000", "--seed", "5", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert [r["alphabet_size"] for r in records] == list(range(2, 11))
        for r in records:
            assert r["block_length"] == 100
            assert r["surplus"] == 1
            if r["alphabet_size"] <= 5:
                assert r["method"] == "exact"
                assert r["samples"] is None
                assert r["source_stderr"] is None
            else:
                assert r["method"] == "monte-carlo"
                assert r["samples"] == 3000
                assert r["seed"] == 5 + r["alphabet_size"]
                assert r["source_stderr"] > 0
                assert r["shaped_stderr"] > 0

    def test_forced_exact_prints_every_row_exactly(self, capsys):
        # The exact rows do not depend on the seed, so they are auto's.
        assert run_cli(capsys, "table2", "--method", "exact") == (0, TABLE2_AUTO_CSV, "")

    def test_literal_rows_are_constants(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--interpretation", "literal")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["source_bits"] == "100.000000"
        assert rows[0]["shaped_bits"] == "101.000000"
        assert rows[0]["diff_bits"] == "-1.000000"

    def test_seeded_auto_csv_is_pinned(self, capsys):
        argv = ("table2", "--method", "auto", "-M", "20000", "--seed", "3", "--threads", "2")
        assert run_cli(capsys, *argv) == (0, TABLE2_AUTO_CSV, "")

    def test_seeded_monte_carlo_csv_is_pinned(self, capsys):
        argv = ("table2", "--method", "mc", "-M", "196625", "--threads", "2", "--format", "csv")
        assert run_cli(capsys, *argv) == (0, TABLE2_MC_CSV, "")

    def test_sampling_past_physical_memory_exits_4(self, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(montecarlo, "_physical_memory", lambda: 10**5)
        monkeypatch.setattr(montecarlo, "shard_generator", lambda *args: drawn.append(args))
        code, out, err = run_cli(capsys, "table2", "--method", "mc", "-M", "100000")
        assert (code, out, drawn) == (4, "", [])
        assert "physical memory" in err

    def test_seeded_rows_are_reproducible(self, capsys):
        argv = ("table2", "-M", "2000", "--seed", "9", "--method", "mc")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestFigure1:
    def test_default_scenario(self, capsys):
        code, out, err = run_cli(capsys, "figure1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,i_x_bits,i_y_bits"
        assert len(lines) == 3**10 + 1
        assert lines[1] == "0,0.000000,0.000000"
        assert "mean_i_x_bits=14.262959" in err
        assert "mean_i_y_bits=14.136161" in err

    def test_tiny_scenario_values(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "-a", "2", "-n", "2")
        assert code == 0
        assert out.splitlines() == [
            "rank,i_x_bits,i_y_bits",
            "0,0.000000,0.000000",
            "1,0.000000,0.000000",
            "2,2.000000,2.754888",
            "3,2.000000,2.754888",
        ]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "-a", "2", "-n", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 4
        assert records[2] == {"rank": 2, "i_x_bits": 2.0, "i_y_bits": 2.754888}

    def test_series_too_large_for_materialization(self, capsys):
        code, out, err = run_cli(capsys, "figure1", "-a", "10", "-n", "10")
        assert (code, out) == (4, "")
        assert err == f"error: 10**10 ranks exceed the series limit of {SERIES_LIMIT}\n"

    def test_series_refusal_names_no_huge_count(self, capsys):
        # 70000**70000 has far more than the 4,300 digits int to str converts
        code, out, err = run_cli(capsys, "figure1", "-a", "70000", "-n", "70000")
        assert (code, out) == (4, "")
        assert err == f"error: 70000**70000 ranks exceed the series limit of {SERIES_LIMIT}\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, "figure1", "-a", "2", "-n", "3", "-o", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().splitlines()
        assert lines[0] == "rank,i_x_bits,i_y_bits"
        assert len(lines) == 2**3 + 1


class TestFileTransforms:
    def test_shape_single_block(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("11")
        code, out, _ = run_cli(capsys, "shape", str(src), "-a", "2", "-n", "2", "--text")
        assert code == 0
        assert out == "111"

    def test_text_round_trip_multi_block(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("110100")
        shaped = tmp_path / "mid.txt"
        code, _, _ = run_cli(
            capsys, "shape", str(src), "-a", "2", "-n", "2", "--text", "-o", str(shaped)
        )
        assert code == 0
        assert shaped.read_text() == "111011000"
        code, out, _ = run_cli(
            capsys, "unshape", str(shaped), "-a", "2", "-n", "2", "--text"
        )
        assert code == 0
        assert out == "110100"

    def test_unshape_rejects_string_outside_image(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("010")
        code, _, err = run_cli(capsys, "unshape", str(src), "-a", "2", "-n", "2", "--text")
        assert code == 3
        assert "error" in err

    def test_partial_block_rejected(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("111")
        code, _, _ = run_cli(capsys, "shape", str(src), "-a", "2", "-n", "2", "--text")
        assert code == 3

    def test_bad_symbol_rejected(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("21")
        code, _, _ = run_cli(capsys, "shape", str(src), "-a", "2", "-n", "2", "--text")
        assert code == 3

    def test_byte_mode_alphabet_past_a_byte_is_argument_error(self, capsys, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(bytes(4))
        code, out, err = run_cli(capsys, "shape", str(src), "-a", "257", "-n", "2")
        assert (code, out) == (2, "")
        assert err == "error: byte mode supports alphabets up to 256 symbols\n"

    def test_byte_mode_round_trip_through_pipes(self, tmp_path):
        payload = bytes([0, 1, 2, 3, 2, 1, 0, 3] * 3)  # six blocks of n=4
        shape_cmd = [sys.executable, "-m", "setshaping", "shape", "-", "-a", "4", "-n", "4"]
        unshape_cmd = [sys.executable, "-m", "setshaping", "unshape", "-", "-a", "4", "-n", "4"]
        shaped = subprocess.run(shape_cmd, input=payload, capture_output=True, check=True)
        assert len(shaped.stdout) == len(payload) // 4 * 5
        restored = subprocess.run(
            unshape_cmd, input=shaped.stdout, capture_output=True, check=True
        )
        assert restored.stdout == payload


class TestCodecExperiment:
    def test_json_schema_and_determinism(self, capsys):
        argv = ("codec-experiment", "-a", "2", "-n", "8", "-M", "50", "--seed", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        (record,) = json.loads(out)
        expected_keys = {
            "alphabet_size", "block_length", "surplus", "samples", "seed",
            "mean_bits_raw", "mean_bits_shaped", "mean_emp_info_raw",
            "mean_emp_info_shaped", "delta_bits", "raw_bits_per_symbol",
            "shaped_bits_per_symbol",
        }
        assert set(record) == expected_keys
        assert record["alphabet_size"] == 2
        assert record["samples"] == 50
        assert record["seed"] == 3
        code, again, _ = run_cli(capsys, *argv)
        assert code == 0
        assert again == out

    def test_csv_format_available(self, capsys):
        code, out, _ = run_cli(
            capsys, "codec-experiment", "-a", "2", "-n", "6", "-M", "20", "--format", "csv"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["block_length"] == "6"


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ("table1", "--format", "json"),
            ("table1", "--interpretation", "literal", "--format", "json"),
            ("table2", "--method", "mc", "-M", "10", "--format", "json"),
            ("table2", "--interpretation", "literal", "--format", "json"),
            ("figure1", "-a", "3", "-n", "5", "--order-k", "2", "--format", "json"),
            ("codec-experiment", "-a", "3", "-n", "10", "-M", "200"),
        ],
        ids=["table1", "table1-literal", "table2-mc", "table2-literal", "figure1", "codec"],
    )
    def test_every_json_command_is_strict_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert strict_json(out)

    def test_undefined_stderr_is_null_in_json_and_inf_in_csv(self, capsys):
        # M // a**k is one sample pair at a=6..10, too few for a std error
        argv = ("table2", "--method", "mc", "-M", "10")
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        records = strict_json(out)
        assert [r["shaped_stderr"] is None for r in records] == [False] * 4 + [True] * 5
        _, out, _ = run_cli(capsys, *argv)
        assert [r["shaped_stderr"] == "inf" for r in parse_csv(out)] == [False] * 4 + [True] * 5


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (ResourceLimitError, 4),
            (InvalidSymbolError, 3),
            (BlockLengthError, 3),
            (NotInImageError, 3),
            (CorruptStreamError, 3),
            (DegenerateSampleError, 3),
            (ShapingError, 3),
            (ValueError, 2),
            (OSError, 2),
        ],
    )
    def test_error_type_maps_to_exit_code(self, capsys, monkeypatch, error, code):
        def handler(args):
            raise error("stub failure")

        monkeypatch.setattr(cli, "cmd_rank", handler)
        assert run_cli(capsys, "rank", "-a", "3", "012") == (code, "", "error: stub failure\n")


class TestInputOutput:
    """A path that cannot be read or written is exit 2 with one error line;
    a stdout its reader has closed ends quietly."""

    @staticmethod
    def one_error_naming(err, path):
        return err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    def test_missing_input_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.bin"
        code, out, err = run_cli(capsys, "shape", str(missing), "-a", "3", "-n", "5")
        assert (code, out) == (2, "")
        assert self.one_error_naming(err, missing)

    def test_output_into_a_missing_directory(self, capsys, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(bytes([0, 1, 2, 1, 0]))
        target = tmp_path / "absent" / "out.bin"
        code, out, err = run_cli(capsys, "shape", str(src), "-a", "3", "-n", "5", "-o", str(target))
        assert (code, out) == (2, "")
        assert self.one_error_naming(err, target)
        code, out, err = run_cli(capsys, "table1", "-o", str(target))
        assert (code, out) == (2, "")
        assert self.one_error_naming(err, target)

    def test_output_onto_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "table1", "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert self.one_error_naming(err, tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            # 59,050 lines: the write fails inside the command
            ("figure1",),
            # one short line: the write fails at the flush on the way out
            ("unrank", "0", "-n", "3", "-a", "2"),
        ],
    )
    def test_stdout_closed_early_exits_quietly(self, argv):
        # stdout is a pipe whose read end is closed before the command runs.
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "setshaping", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, b"")

    @pytest.mark.parametrize(
        "argv",
        [
            # 59,050 lines: the write fails inside the command
            ("figure1",),
            # one short line: the write fails at the flush on the way out
            ("unrank", "0", "-n", "3", "-a", "2"),
            # one CSV table
            ("table1",),
        ],
    )
    def test_stdout_on_a_full_device_is_an_error(self, argv):
        # Every write to /dev/full fails with ENOSPC.  The error is reported
        # once, and the flush at exit must not fail on the bytes left over.
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "setshaping", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "No space left on device" in result.stderr

    def test_output_file_on_a_full_device_is_an_error(self, tmp_path):
        src = tmp_path / "in.bin"
        src.write_bytes(bytes([0, 1, 2, 1, 0]))
        result = subprocess.run(
            [sys.executable, "-m", "setshaping", "shape", str(src), "-a", "3", "-n", "5",
             "-o", "/dev/full"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_output_pipe_closed_early_is_an_error(self, tmp_path):
        # A broken pipe at -o is a failed output, not a closed stdout.  The
        # output, 220,000 bytes, outgrows the FIFO's buffer, so the command
        # is still writing when the reader goes.
        src = tmp_path / "in.bin"
        src.write_bytes(bytes([0, 1]) * 100_000)
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        # Opened without blocking and before the command starts, so that the
        # command's open for writing finds a reader.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        proc = subprocess.Popen(
            [sys.executable, "-m", "setshaping", "shape", str(src), "-a", "2", "-n", "10",
             "-o", str(fifo)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Close the reader once the first bytes have come.
            assert select.select([reader], [], [], 60)[0]
            assert os.read(reader, 1)
        finally:
            os.close(reader)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Broken pipe" in err


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "11"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "setshaping", "unrank", "0", "-n", "3", "-a", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "111\n"


# Values drawn for every integer flag, and ranks up to 10**40 for unrank.
HOSTILE_SIZES = ("-1", "0", "1", "257", "70000")
HOSTILE_RANKS = HOSTILE_SIZES + (str(10**40),)
# The inputs: an empty one, a non-digit, an out-of-range symbol, and a
# valid block at n=5 (also five blocks at n=1).
CONTRACT_INPUTS = {"empty": b"", "letters": b"ab\n", "range": b"9999\n", "block": b"01201"}


def _subcommands():
    """Each subcommand's parser, by name, from the CLI's own parser."""
    (commands,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


def _argument(action, inputs, output):
    """The strategy of one argument's words, () where an optional is left out."""
    if action.dest == "in_file":
        values = st.sampled_from(["-", *inputs])
    elif action.dest == "string":
        values = st.sampled_from([text.decode() for text in CONTRACT_INPUTS.values()])
    elif action.dest == "rank":
        values = st.sampled_from(HOSTILE_RANKS)
    elif action.dest == "output":
        values = st.sampled_from(["-", output])
    elif action.choices:
        values = st.sampled_from(list(action.choices))
    elif action.type is int:
        # --threads too: a run starts no more threads than it has shards of
        # 65,536 samples, and no run drawn here samples more than 70,000
        values = st.sampled_from(HOSTILE_SIZES)
    else:
        values = st.none()
    if not action.option_strings:
        return values.map(lambda value: (value,))
    flag = st.sampled_from(action.option_strings)
    words = flag.map(lambda f: (f,)) if action.nargs == 0 else st.tuples(flag, values)
    return words if action.required else st.one_of(st.just(()), words)


@st.composite
def _argvs(draw, inputs, output):
    name, parser = draw(st.sampled_from(sorted(_subcommands().items())))
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    words = [draw(_argument(action, inputs, output)) for action in draw(st.permutations(actions))]
    return [name, *(word for group in words for word in group)]


def _takes_seconds(argv):
    """Whether argv is one of the runs known to take seconds before they answer.

    A string length (n, or n + k for a shaping command) and an alphabet both
    of 257 or more make the partition walk run for 9 s to past 20 s before
    it answers or is refused; a cheap refusal of those is open work.  Monte
    Carlo tables and codec experiments past 257 samples, their defaults of
    10**6 and 10**4 included, also run for seconds.
    """
    def value(*flags, default=None):
        for flag in flags:
            if flag in argv[:-1]:
                return int(argv[argv.index(flag) + 1])
        return default

    a = value("-a", "--alphabet", default=3)
    n = value("-n", "--length", default=10)
    k = value("--order-k", default=0 if argv[0] == "unrank" else 1)
    if min(n, k) >= 0 and a >= 257 and n + k >= 257:
        return True
    if argv[0] == "table2":
        return value("-M", "--samples", default=10**6) > 257 and "mc" in argv
    return argv[0] == "codec-experiment" and value("-M", "--samples", default=10**4) > 257


class TestContract:
    """Every argv the parser admits ends in a documented exit code, in bounded time and memory."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("contract")
        for name, data in CONTRACT_INPUTS.items():
            (folder / name).write_bytes(data)
        return [str(folder / name) for name in CONTRACT_INPUTS], str(folder / "out")

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_argv_ends_in_a_documented_exit_code(self, files, data):
        inputs, output = files
        argv = data.draw(_argvs(inputs, output))
        assume(not _takes_seconds(argv))
        limit = 2**30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        result = subprocess.run(
            [sys.executable, "-m", "setshaping", *argv],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=20,
            preexec_fn=cap_address_space,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        # stdout is read to its end, so exit 1, a closed stdout, never applies
        assert result.returncode in (0, 2, 3, 4), result.stderr
        assert "Traceback" not in result.stderr
        if result.returncode:
            assert result.stdout == ""
