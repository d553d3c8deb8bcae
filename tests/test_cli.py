"""CLI exit codes and output tests (invoked in-process via main())."""

import pytest

from contractgate import keystone_fixture_path
from contractgate.cli import EXIT_DOMAIN_ERROR, EXIT_OK, main
from contractgate.contracts import derive_contracts, render_contracts
from contractgate.model import load_model


class TestValidate:
    def test_fixture_is_valid(self, capsys):
        assert main(["validate", keystone_fixture_path()]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such.model"]) == EXIT_DOMAIN_ERROR
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        # the second has a character that is a digit to str.isdigit, not to int
        for state in ("a.x ==", "R.a = \u00b2"):
            bad.write_text(f"resource Root\n  attr x: string\nstate A: {state}\n")
            assert main(["validate", str(bad)]) == EXIT_DOMAIN_ERROR
            err = capsys.readouterr().err
            assert "line 3" in err
            assert "Traceback" not in err

    def test_diagnostics_printed_and_nonzero(self, tmp_path, capsys):
        doc = (
            "resource Root\n  attr x: string\n"
            "resource collection_bad\n  attr y: string\n"
        )
        model = tmp_path / "diag.model"
        model.write_text(doc)
        assert main(["validate", str(model)]) == EXIT_DOMAIN_ERROR
        out = capsys.readouterr().out
        assert "collection must have no attributes" in out


class TestContracts:
    def test_output_matches_library_rendering(self, capsys, fixture_document):
        assert main(["contracts", keystone_fixture_path()]) == EXIT_OK
        out = capsys.readouterr().out
        _, bm, rules = load_model(fixture_document)
        assert out == render_contracts(derive_contracts(bm, rules))

    def test_output_is_deterministic(self, capsys):
        main(["contracts", keystone_fixture_path()])
        first = capsys.readouterr().out
        main(["contracts", keystone_fixture_path()])
        assert capsys.readouterr().out == first

    def test_invalid_model_rejected(self, tmp_path, capsys):
        model = tmp_path / "diag.model"
        model.write_text("resource Root\n  attr x: string\nresource island\n  attr y: string\n")
        assert main(["contracts", str(model)]) == EXIT_DOMAIN_ERROR
        assert "not reachable" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_run_requires_upstream_and_model(self):
        with pytest.raises(SystemExit) as info:
            main(["run"])
        assert info.value.code == 2

    def test_unknown_fault_name(self):
        with pytest.raises(SystemExit) as info:
            main(["mock", "--fault", "gremlins"])
        assert info.value.code == 2


class TestRun:
    def test_bad_model_path_is_domain_error(self, capsys):
        code = main([
            "run", "--upstream", "http://127.0.0.1:1",
            "--model", "/no/such.model",
        ])
        assert code == EXIT_DOMAIN_ERROR
        assert "error:" in capsys.readouterr().err

    def test_bad_clock_for_mock_is_domain_error(self, capsys):
        assert main(["mock", "--clock", "yesterdayish"]) == EXIT_DOMAIN_ERROR
        assert "error:" in capsys.readouterr().err
