"""The CI step's report of the OpenBLAS kernel."""

import blas_core


def test_main_prints_one_non_empty_line(capsys):
    name = blas_core.main()
    assert capsys.readouterr().out == name + "\n"
    assert name and "\n" not in name


def test_main_prints_unknown_without_the_library(capsys, monkeypatch):
    monkeypatch.setattr(blas_core.glob, "glob", lambda pattern: [])
    assert blas_core.main() == "unknown"
    assert capsys.readouterr().out == "unknown\n"
