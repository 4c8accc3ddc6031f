"""Tests for the reporting helpers and the CLI summary."""

from repro.analysis import format_table, shape_check


class TestFormatTable:
    def test_basic_shape(self):
        text = format_table(
            ["name", "a", "b"], [["row1", 1.5, None], ["row2", 12345.6, 7]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "row1" in text and "12,346" in text
        assert "-" in text  # None renders as dash

    def test_float_formatting(self):
        text = format_table(["x", "v"], [["a", 0.1234], ["b", 42.0]])
        assert "0.12" in text
        assert "42.0" in text

    def test_shape_check(self):
        assert shape_check("claim", True).startswith("[PASS]")
        assert shape_check("claim", False).startswith("[FAIL]")


class TestReproduceCli:
    def test_main_runs_and_prints(self, capsys):
        from repro.reproduce import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out
        assert "wd-fuse" in out
        assert "HMULT" in out
