"""Report CSV writers and readers."""

import errno
import io
import os

import numpy as np
import pytest

from sectorfolio import (
    AlignmentError,
    AssetStats,
    DataFormatError,
    EmptySummaryError,
    SectorResult,
    WeightVector,
    equal_weights,
    read_sector_results,
    read_weights_csv,
    winner_counts,
    write_sector_result,
    write_stats_csv,
    write_summary,
    write_weights_csv,
)
from sectorfolio._files import csv_writer, staged
from sectorfolio.reports import WINNERS


def test_winner_is_derived_from_returns():
    assert SectorResult("X", 0.10, 0.05).winner == "EWP"
    assert SectorResult("X", -0.20, -0.10).winner == "ORP"
    assert SectorResult("X", 0.07, 0.07).winner == "TIE"
    assert WINNERS == ("EWP", "ORP", "TIE")


@pytest.mark.parametrize("sector", ["#1 Tech", "  # Tech"])
def test_sector_result_rejects_a_name_that_reads_as_a_comment(sector):
    # write_summary would write the row and read_sector_results skip it
    with pytest.raises(ValueError) as caught:
        SectorResult(sector, 0.1, 0.2)
    assert str(caught.value) == f"sector name {sector!r} reads as a CSV comment"


def test_winner_counts():
    results = [
        SectorResult("A", 0.2, 0.1),
        SectorResult("B", 0.1, 0.2),
        SectorResult("C", 0.3, 0.1),
        SectorResult("D", 0.1, 0.1),
    ]
    assert winner_counts(results) == {"EWP": 2, "ORP": 1, "TIE": 1}


def test_stats_csv_two_decimal_percentages(tmp_path):
    stats = [
        AssetStats("AAA", 0.0622, 0.0206, 0.3268),
        AssetStats("BBB", -0.0592, 0.0195, 0.3089),
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(stats, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ticker,annual_return_pct,annual_risk_pct"
    assert lines[1] == "AAA,6.22,32.68"
    assert lines[2] == "BBB,-5.92,30.89"


def test_weights_csv_roundtrip(tmp_path):
    tickers = ["AAA", "BBB", "CCC"]
    ewp = equal_weights(tickers)
    mrp = WeightVector(tickers, np.array([0.5, 0.25, 0.25]))
    orp = WeightVector(tickers, np.array([0.1, 0.2, 0.7]))
    path = tmp_path / "weights.csv"
    write_weights_csv(ewp, mrp, orp, path)
    books = read_weights_csv(path)
    assert set(books) == {"ewp", "mrp", "orp"}
    for name, original in (("ewp", ewp), ("mrp", mrp), ("orp", orp)):
        book = books[name]
        assert book.tickers == tickers
        assert float(book.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert book.weights == pytest.approx(original.weights, abs=1e-6)


def test_weights_csv_rows_follow_ewp_order(tmp_path):
    tickers = ["CCC", "AAA"]
    same = equal_weights(tickers)
    path = tmp_path / "weights.csv"
    write_weights_csv(same, same, same, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ticker,ewp,mrp,orp"
    assert lines[1].startswith("CCC,")
    assert lines[2].startswith("AAA,")


def test_weights_csv_ticker_mismatch():
    with pytest.raises(AlignmentError):
        write_weights_csv(
            equal_weights(["A", "B"]),
            equal_weights(["A", "B"]),
            equal_weights(["A", "C"]),
            io.StringIO(),
        )


def test_weights_csv_rejects_corrupt_column(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text(
        "ticker,ewp,mrp,orp\nAAA,0.5,0.4,0.9\nBBB,0.5,0.4,0.9\n", encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="mrp"):
        read_weights_csv(path)


def test_weights_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty"):
        read_weights_csv(path)
    path.write_text("ticker,ewp\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="no weight rows"):
        read_weights_csv(path)
    path.write_text("ticker,ewp\nAAA,abc\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        read_weights_csv(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("AAA,0.5\nBBB,0.25\nAAA,0.25\n", "line 4: duplicate ticker 'AAA'"),
        ("AAA,0.5\n,0.5\n", "line 3: empty ticker"),
        ("AAA,0.5\n  ,0.5\n", "line 3: empty ticker"),
        (" AAA,0.5\nAAA ,0.5\n", "line 3: duplicate ticker 'AAA'"),
        ("AAA,1.5\nBBB,-0.5\n", "column 'ewp': weights must be finite and non-negative"),
        ("AAA,1\nBBB,nan\n", "column 'ewp' sums to nan, not a weight column"),
    ],
    ids=["repeated-ticker", "empty-ticker", "blank-ticker", "padded-repeat", "negative", "nan"],
)
def test_weights_csv_names_the_file_of_a_bad_weight(tmp_path, rows, message):
    path = tmp_path / "weights.csv"
    path.write_text("ticker,ewp\n" + rows, encoding="utf-8")
    with pytest.raises(DataFormatError) as caught:
        read_weights_csv(path)
    assert str(caught.value) == f"{path}: {message}"


def test_sector_result_roundtrip(tmp_path):
    path = tmp_path / "result.csv"
    write_sector_result(SectorResult("Metal", 0.1438, 0.4197), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sector,ewp_test_return_pct,orp_test_return_pct,winner"
    assert lines[1] == "Metal,14.38,41.97,ORP"
    results = read_sector_results(path)
    assert len(results) == 1
    assert results[0].sector == "Metal"
    assert results[0].winner == "ORP"
    assert results[0].ewp_test_return == pytest.approx(0.1438)


def test_summary_footer_counts(tmp_path):
    results = [
        SectorResult("A", 0.2, 0.1),
        SectorResult("B", 0.1, 0.2),
        SectorResult("C", 0.4, 0.3),
    ]
    path = tmp_path / "summary.csv"
    write_summary(results, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[-1] == "# EWP wins: 2, ORP wins: 1"
    assert len(read_sector_results(path)) == 3


def test_summary_footer_reports_ties(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary([SectorResult("A", 0.1, 0.1)], path)
    assert path.read_text(encoding="utf-8").splitlines()[-1] == "# EWP wins: 0, ORP wins: 0, ties: 1"


def test_summary_requires_results():
    with pytest.raises(EmptySummaryError):
        write_summary([], io.StringIO())


def test_summary_refuses_a_repeated_sector_and_writes_nothing(tmp_path):
    # read_sector_results would reject the file it wrote
    path = tmp_path / "summary.csv"
    with pytest.raises(ValueError, match="^duplicate sector name 'A'$"):
        write_summary([SectorResult("A", 0.1, 0.2), SectorResult("A", 0.2, 0.1)], path)
    assert list(tmp_path.iterdir()) == []


def test_read_sector_results_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(
        "sector,ewp_test_return_pct,orp_test_return_pct,winner\n"
        "\n"
        "Auto,23.52,25.78,ORP\n"
        "# EWP wins: 0, ORP wins: 1\n",
        encoding="utf-8",
    )
    results = read_sector_results(path)
    assert [r.sector for r in results] == ["Auto"]


def test_read_sector_results_rejects_contradictory_winner(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "sector,ewp_test_return_pct,orp_test_return_pct,winner\n"
        "Auto,23.52,25.78,EWP\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="contradicts"):
        read_sector_results(path)


def test_read_sector_results_allows_rounded_tie_either_label(tmp_path):
    path = tmp_path / "tie.csv"
    path.write_text(
        "sector,ewp_test_return_pct,orp_test_return_pct,winner\n"
        "X,10.00,10.00,EWP\n",
        encoding="utf-8",
    )
    assert read_sector_results(path)[0].winner == "EWP"


def test_read_sector_results_rejects_unknown_winner(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "sector,ewp_test_return_pct,orp_test_return_pct,winner\nX,1.00,2.00,BOTH\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="BOTH"):
        read_sector_results(path)


@pytest.mark.parametrize(
    "row, message",
    [
        (",1.00,2.00,ORP", "sector name must be non-empty"),
        ("X,nan,2.00,TIE", "test returns must be finite"),
        ("X,1.00,inf,ORP", "test returns must be finite"),
        ("A,3.00,1.00,EWP", "sector 'A' repeats line 2"),
        (" A ,3.00,1.00,EWP", "sector 'A' repeats line 2"),
        (" ,1.00,2.00,ORP", "sector name must be non-empty"),
    ],
    ids=["empty-sector", "nan", "inf", "repeated-sector", "padded-repeat", "blank-sector"],
)
def test_read_sector_results_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        "sector,ewp_test_return_pct,orp_test_return_pct,winner\nA,1.00,2.00,ORP\n" + row + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as caught:
        read_sector_results(path)
    assert str(caught.value) == f"{path}: line 3: {message}"


def test_read_sector_results_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sector,ewp,orp,winner\nX,1,2,ORP\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="header"):
        read_sector_results(path)


def test_a_failed_write_leaves_the_earlier_file_untouched(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_bytes(b"earlier,bytes\n")
    with pytest.raises(RuntimeError, match="midway"):
        with csv_writer(path, ["a", "b"]) as (_, writer):
            writer.writerow([1, 2])
            raise RuntimeError("midway")
    assert path.read_bytes() == b"earlier,bytes\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_write_onto_a_directory_names_it_and_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "stats.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        write_stats_csv([AssetStats("AAA", 0.0622, 0.0206, 0.3268)], target)
    assert str(caught.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'"
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_a_write_into_a_missing_directory_names_the_path_given(tmp_path):
    target = tmp_path / "nodir" / "x.csv"
    with pytest.raises(FileNotFoundError) as caught:
        write_stats_csv([AssetStats("AAA", 0.0622, 0.0206, 0.3268)], target)
    assert caught.value.errno == errno.ENOENT
    assert str(caught.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{target}'"
    assert list(tmp_path.iterdir()) == []


def test_a_temporary_left_by_a_killed_run_neither_blocks_a_write_nor_is_touched(tmp_path):
    # the name an earlier run of this pid would have given its temporary
    stale = tmp_path / f".x.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"half a ro")
    write_stats_csv([AssetStats("AAA", 0.0622, 0.0206, 0.3268)], tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_bytes() == (
        b"ticker,annual_return_pct,annual_risk_pct\nAAA,6.22,32.68\n")
    assert stale.read_bytes() == b"half a ro"
    assert sorted(tmp_path.iterdir()) == [stale, tmp_path / "x.csv"]


def test_a_rename_that_fails_raises_its_own_error_and_leaves_no_temporary(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    with pytest.raises(IsADirectoryError):
        with staged(first, second) as [fh, gh]:
            fh.write("a\n")
            gh.write("b\n")
            second.mkdir()  # after the check that refuses a directory
    # the file renamed before the failure stays in place
    assert first.read_text(encoding="utf-8") == "a\n"
    assert sorted(tmp_path.iterdir()) == [first, second]


def test_a_finished_write_replaces_the_file_with_the_usual_permissions(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_bytes(b"earlier,bytes\n")
    with csv_writer(path, ["a", "b"]) as (_, writer):
        writer.writerow([1, 2])
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]
    plain = tmp_path / "plain.csv"
    plain.write_text("", encoding="utf-8")
    assert os.stat(path).st_mode == os.stat(plain).st_mode
