"""CLI exit codes and output tests (invoked in-process via main(), except
one SIGTERM test of a `run` process)."""

import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from contractgate import cli, keystone_fixture_path
from contractgate import mock_keystone as mk
from contractgate import mock_server as ms
from contractgate.cli import EXIT_DOMAIN_ERROR, EXIT_OK, main
from contractgate.contracts import derive_contracts, render_contracts
from contractgate.gateway import build_gateway
from contractgate.model import load_model
from conftest import http_call, password_body


class TestValidate:
    def test_fixture_is_valid(self, capsys):
        assert main(["validate", keystone_fixture_path()]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such.model"]) == EXIT_DOMAIN_ERROR
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        for line in (
            "state A: a.x ==",
            # a character that is a digit to str.isdigit, not to int
            "state A: R.a = \u00b2",
            # more digits than int() reads
            "assoc Root -> Root as r 1" + "0" * 5000 + "..*",
        ):
            bad.write_text(f"resource Root\n  attr x: string\n{line}\n")
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

    def test_rule_no_transition_triggers_is_nonzero(self, tmp_path, capsys, fixture_document):
        model = tmp_path / "reads.model"
        model.write_bytes(
            fixture_document
            + b"rule admin_reads on GET /v3/users/{user_id}: always user.role='admin'\n"
        )
        assert main(["validate", str(model)]) == EXIT_DOMAIN_ERROR
        assert capsys.readouterr().out == (
            "rule admin_reads: no transition on GET /v3/users/{user_id}, "
            "so the rule is never checked\n"
        )


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

    def test_settings_from_the_environment_alone(self, monkeypatch, capsys):
        monkeypatch.setenv("CONTRACTGATE_UPSTREAM", "http://127.0.0.1:1")
        monkeypatch.setenv("CONTRACTGATE_MODEL", "/no/env.model")
        assert main(["run"]) == EXIT_DOMAIN_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/no/env.model" in err

    def test_flag_beats_its_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("CONTRACTGATE_UPSTREAM", "http://127.0.0.1:1")
        monkeypatch.setenv("CONTRACTGATE_MODEL", "/no/env.model")
        assert main(["run", "--model", "/no/flag.model"]) == EXIT_DOMAIN_ERROR
        err = capsys.readouterr().err
        assert "/no/flag.model" in err
        assert "/no/env.model" not in err

    @pytest.mark.parametrize("variable,value", [
        ("CONTRACTGATE_PROBE_TIMEOUT_MS", "soon"),
        ("CONTRACTGATE_UPSTREAM_TIMEOUT_MS", "0"),
        ("CONTRACTGATE_EXPIRES_READING", "sideways"),
    ])
    def test_unreadable_variable_is_domain_error(self, monkeypatch, capsys, variable, value):
        monkeypatch.setenv(variable, value)
        code = main(["run", "--upstream", "http://127.0.0.1:1", "--model", "/no/such.model"])
        assert code == EXIT_DOMAIN_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/no/such.model" not in err  # refused before the model is read

    @pytest.mark.parametrize("listen", ["127.0.0.1:abc", "busy"])
    def test_unusable_listen_address_is_domain_error(self, monkeypatch, capsys, listen):
        """A gateway that cannot listen exits 1 with ``error:``, its log
        writer stopped; "busy" is a port another socket listens on."""
        built = []

        def build(cfg):
            built.append(build_gateway(cfg))
            return built[-1]

        monkeypatch.setattr(cli, "build_gateway", build)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            if listen == "busy":
                listen = f"127.0.0.1:{taken.getsockname()[1]}"
            code = main(["run", "--listen", listen, "--upstream", "http://127.0.0.1:1",
                         "--model", keystone_fixture_path()])
        assert code == EXIT_DOMAIN_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not built[0].violation_log.writer_alive

    def test_sigterm_stops_like_sigint_and_keeps_every_violation_record(self, tmp_path):
        """A gateway process stopped by SIGTERM closes its violation log, so
        each refused request has its line, and exits 0."""
        mock = ms.make_server(mk.MockKeystone(mk.IdentityStore()))
        threading.Thread(target=mock.serve_forever, kwargs={"poll_interval": 0.02},
                         daemon=True).start()
        _, headers, _ = http_call(mock.server_address[1], "POST", "/v3/auth/tokens",
                                  password_body("alice", "wonder"))
        alice = {"X-Auth-Token": dict(headers)["X-Subject-Token"]}
        log = tmp_path / "violations.jsonl"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        gateway = subprocess.Popen(
            [sys.executable, "-u", "-m", "contractgate.cli", "run", "--listen", "127.0.0.1:0",
             "--upstream", f"http://127.0.0.1:{mock.server_address[1]}",
             "--model", keystone_fixture_path(), "--log", str(log)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True,
        )
        try:
            port = int(gateway.stdout.readline().rsplit(":", 1)[1])
            statuses = [http_call(port, "DELETE", "/v3/users/u-admin", headers=alice)[0]
                        for _ in range(20)]
            assert statuses == [412] * 20
            gateway.send_signal(signal.SIGTERM)
            assert gateway.wait(timeout=10) == EXIT_OK
        finally:
            gateway.kill()
            gateway.wait()
            gateway.stdout.close()
            mock.shutdown()
            mock.server_close()
        assert len(log.read_text().splitlines()) == 20

    def test_bad_clock_for_mock_is_domain_error(self, capsys):
        assert main(["mock", "--clock", "yesterdayish"]) == EXIT_DOMAIN_ERROR
        assert "error:" in capsys.readouterr().err
