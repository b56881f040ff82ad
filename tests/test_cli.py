import json

import numpy as np
import pytest

from qdynmaps import channels, cli, compatdomain, config, matcore, opendyn, states
from qdynmaps.cli import main

CNOT_R_CONTROLS_S = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


@pytest.fixture(autouse=True)
def restore_tolerance():
    yield
    config.set_tolerance(config.DEFAULT_TOL)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def flip_file(tmp_path):
    return write_json(
        tmp_path, "flip.json",
        channels.superoperator_to_json(channels.flip_superoperator()),
    )


def t_a2_file(tmp_path):
    """T_a(rho) = (tr(rho) I - a rho) / (d - a) at d = 2, a = 1.5: every pure
    state's image has lmin -1, so the qubit search certifies a violation."""
    iv = channels.vec(np.eye(2))
    t = channels.Superoperator(dim_in=2, dim_out=2,
                               transfer=(np.outer(iv, iv) - 1.5 * np.eye(4)) / 0.5)
    return write_json(tmp_path, "t_a2.json", channels.superoperator_to_json(t))


def unitary_generator_file(tmp_path, u=CNOT_R_CONTROLS_S):
    return write_json(
        tmp_path, "gen.json",
        {"kind": "unitary", "matrix": states.matrix_to_json(u)},
    )


class TestCheck:
    def test_identity_clean(self, tmp_path):
        f = write_json(
            tmp_path, "id.json",
            channels.superoperator_to_json(channels.identity_superoperator(2)),
        )
        assert main(["check", f]) == 0

    def test_flip_is_negative_finding(self, tmp_path, capsys):
        assert main(["check", flip_file(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "CP: NO" in out

    def test_transpose_positive_but_ncp(self, tmp_path):
        f = write_json(
            tmp_path, "transpose.json",
            channels.superoperator_to_json(channels.transpose_superoperator(2)),
        )
        # NCP alone is a negative finding even though the map is positive
        assert main(["check", f, "--budget", "500"]) == 2

    def test_consistent_assignment_clean(self, tmp_path):
        f = write_json(
            tmp_path, "corr.json",
            opendyn.assignment_to_json(opendyn.correlated_assignment(0.5)),
        )
        assert main(["check", f]) == 0

    def test_inconsistent_assignment_flagged(self, tmp_path, capsys):
        f = write_json(
            tmp_path, "deph.json",
            opendyn.assignment_to_json(opendyn.dephasing_assignment(states.I2 / 2)),
        )
        assert main(["check", f]) == 2
        assert "VIOLATED" in capsys.readouterr().out

    @pytest.mark.parametrize("phi, rc, verdict, residual, deviation", [
        (opendyn.correlated_assignment(0.5), 0, "non-product", 0.0, 0.125),
        (opendyn.ProductAssignment(rho_r=states.I2 / 2), 0, "product", 0.0, 0.0),
        (opendyn.dephasing_assignment(states.I2 / 2), 2, "inconsistent", 1.0, 0.5),
    ])
    def test_assignment_decided_from_transfer(self, tmp_path, capsys, phi, rc, verdict,
                                              residual, deviation):
        f = write_json(tmp_path, "phi.json", opendyn.assignment_to_json(phi))
        out = tmp_path / "report.json"
        assert main(["--tol", "1e-8", "--out", str(out), "check", f]) == rc
        assert f"pechukas: {verdict}" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["pechukas"] == verdict and rep["certificate"] == "pechukas"
        assert rep["consistency_residual"] == residual
        assert rep["product_deviation"] == deviation
        assert rep["linearity_residual"] == 0.0
        assert rep["thresholds"] == {"consistency": 1e-5, "product": 1e-8}

    def test_table_decided_by_its_extension(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        src = opendyn.correlated_assignment(0.3)
        pairs = tuple((r, opendyn.assign(src, r))
                      for r in (states.random_density(2, rng) for _ in range(4)))
        tab = opendyn.TabulatedAssignment(pairs=pairs, d_s=2, d_r=2)
        f = write_json(tmp_path, "tab.json", opendyn.assignment_to_json(tab))
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", f]) == 0
        assert "(extends linearly)" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["consistent"] and rep["linearity_residual"] <= 1e-12
        assert rep["linearity_residual"] == opendyn.extend_linearly(tab).residual
        assert "pechukas" not in rep and "image_gap" not in rep
        assert rep["thresholds"] == {"consistency": 1e3 * config.DEFAULT_TOL, "table": 1e-10}

    def test_conflict_table_is_negative(self, tmp_path, capsys):
        f = write_json(tmp_path, "four.json",
                       opendyn.assignment_to_json(cli._four_state_table()))
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", f]) == 2
        assert "no linear extension: image gap 1.000000" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["consistent"] and rep["negative_finding"] is True
        assert abs(rep["image_gap"] - 1.0) <= 1e-9
        assert rep["linearity_residual"] > rep["thresholds"]["consistency"]
        assert "pechukas" not in rep

    def test_non_spanning_table_consistent(self, tmp_path):
        # |0><0| -> |00><00|, |1><1| -> |11><11|: consistent pairs, but the
        # minimal-norm extension drops the coherences, so its transfer matrix
        # reads consistency residual 1
        p0, p1 = (states.projector(states.ket(k, 2)) for k in (0, 1))
        tab = opendyn.TabulatedAssignment(
            pairs=((p0, matcore.kron(p0, p0)), (p1, matcore.kron(p1, p1))), d_s=2, d_r=2)
        ext = opendyn.extend_linearly(tab).extension
        assert opendyn.pechukas_report(ext).consistency_residual == 1.0
        f = write_json(tmp_path, "two.json", opendyn.assignment_to_json(tab))
        out = tmp_path / "report.json"
        assert main(["--tol", "1e-8", "--out", str(out), "check", f]) == 0
        rep = json.loads(out.read_text())
        assert rep["consistent"] is True and rep["consistency_residual"] == 0.0
        assert "pechukas" not in rep
        assert rep["thresholds"] == {"consistency": 1e-5, "table": 1e-9}

    def test_out_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", flip_file(tmp_path)]) == 2
        rep = json.loads(out.read_text())
        assert rep["negative_finding"] is True
        assert abs(rep["min_choi_eigenvalue"] + 1.0) < 1e-9


class TestCheckCertificate:
    def test_cp_map_decided_from_choi(self, tmp_path, capsys):
        f = write_json(
            tmp_path, "id.json",
            channels.superoperator_to_json(channels.identity_superoperator(2)),
        )
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", f]) == 0
        assert "decided from the Choi spectrum" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["certificate"] == "choi" and rep["samples_used"] == 0
        assert rep["positivity"] == "no-violation-found"

    def test_ncp_map_searched(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", t_a2_file(tmp_path), "--budget", "500"]) == 2
        assert "positivity search: certified-violation" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["certificate"] is None and rep["samples_used"] >= 500
        assert rep["certificate_margin"] is None and rep["certificate_mu"] is None

    def test_positive_qubit_map_decided_by_the_s_lemma(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", flip_file(tmp_path)]) == 2
        assert "positivity: no-violation-found (decided by the S-lemma: margin" in (
            capsys.readouterr().out)
        rep = json.loads(out.read_text())
        assert rep["certificate"] == "s-lemma" and rep["samples_used"] == 0
        assert rep["positivity"] == "no-violation-found"
        assert rep["certificate_margin"] >= 0 and abs(rep["certificate_mu"] - 1.0) <= 1e-8

    def test_seeded_search_at_default_budget_records_its_margin(self, tmp_path):
        # T_a at d = 3, a = 2: not positive, searched on the 256-state grid beside the seeds
        i3 = channels.vec(np.eye(3))
        t3 = channels.Superoperator(dim_in=3, dim_out=3, transfer=np.outer(i3, i3) - 2 * np.eye(9))
        f = write_json(tmp_path, "t3.json", channels.superoperator_to_json(t3))
        out = tmp_path / "report.json"
        assert main(["--tol", "1e-7", "--out", str(out), "check", f]) == 2
        rep = json.loads(out.read_text())
        assert rep["positivity"] == "certified-violation" and rep["certificate"] is None
        assert 256 <= rep["samples_used"] < 2000
        assert rep["thresholds"] == {"witness": config.witness_margin()}
        assert abs(rep["thresholds"]["witness"] - 1e-6) <= 1e-20


class TestBudget:
    def test_negative_budget_rejected_by_the_api(self):
        t = channels.flip_superoperator()
        with pytest.raises(ValueError, match=r"budget must be >= 0, got -3"):
            channels.is_n_positive(t, 1, budget=-3)
        with pytest.raises(ValueError, match=r"budget must be >= 0, got -3"):
            channels.minimize_output_min_eig(t, budget=-3)
        # also where the verdict would be decided from the Choi spectrum
        with pytest.raises(ValueError, match=r"budget must be >= 0, got -3"):
            channels.is_positive_map(channels.identity_superoperator(2), budget=-3)

    def test_negative_budget_exits_1_naming_the_budget(self, tmp_path, capsys):
        i4 = channels.vec(np.eye(4))  # T_a at d = 4, a = 3
        t4 = channels.Superoperator(dim_in=4, dim_out=4,
                                    transfer=np.outer(i4, i4) - 3 * np.eye(16))
        f = write_json(tmp_path, "t4.json", channels.superoperator_to_json(t4))
        assert main(["check", f, "--budget", "-3"]) == 1
        assert "budget must be >= 0, got -3" in capsys.readouterr().err

    def test_zero_budget_still_scores_the_pauli_eigenstates(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--out", str(out), "check", t_a2_file(tmp_path), "--budget", "0"]) == 2
        assert "positivity search: certified-violation" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["positivity"] == "certified-violation" and rep["samples_used"] >= 6


class TestInputErrors:
    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 1

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "transfer", "dim_in": 2,')
        assert main(["check", str(path)]) == 1

    def test_unrecognized_payload(self, tmp_path):
        assert main(["check", write_json(tmp_path, "x.json", {"foo": 1})]) == 1

    def test_bad_times_spec(self, tmp_path):
        f = write_json(
            tmp_path, "prod.json",
            opendyn.assignment_to_json(
                opendyn.ProductAssignment(rho_r=states.I2 / 2, d_s=2)
            ),
        )
        g = unitary_generator_file(tmp_path)
        assert main(["reduce", f, g, "--times", "oops"]) == 1

    def test_bad_tolerance(self, tmp_path):
        assert main(["--tol", "-1", "check", flip_file(tmp_path)]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tolerance(self, tmp_path, tol):
        assert main(["--tol", tol, "check", flip_file(tmp_path)]) == 1

    def test_lambda_domain_without_generator(self, tmp_path):
        f = write_json(
            tmp_path, "corr.json",
            opendyn.assignment_to_json(opendyn.correlated_assignment(0.5)),
        )
        assert main(["domain", f, "--predicate", "lambda"]) == 1

    @pytest.mark.parametrize("payload", ["transfer", "affine"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_entry_rejected(self, tmp_path, capsys, value, payload):
        if payload == "transfer":
            obj = channels.superoperator_to_json(channels.identity_superoperator(2))
            obj["data"][0]["re"][1][2] = float(value)
        else:
            obj = opendyn.assignment_to_json(opendyn.correlated_assignment(0.5))
            obj["linear"]["re"][1][2] = float(value)
        assert main(["check", write_json(tmp_path, "bad.json", obj)]) == 1
        assert "non-finite" in capsys.readouterr().err


class TestPaperCases:
    @pytest.mark.parametrize(
        "name", ["flip", "four-state", "pechukas", "correlated", "inconsistent"]
    )
    def test_all_cases_pass(self, tmp_path, capsys, name):
        out = tmp_path / f"{name}.json"
        assert main(["--out", str(out), "paper-case", name]) == 0
        assert f"case {name}: PASS" in capsys.readouterr().out
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert all(c["pass"] for c in rep["checks"])

    def test_correlated_other_strength(self, capsys):
        assert main(["paper-case", "correlated", "--c", "0.8"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("c, witnessed", [("-0.5", True), ("0", False)])
    def test_pechukas_sign_and_product(self, tmp_path, c, witnessed):
        out = tmp_path / "case.json"
        assert main(["--out", str(out), "paper-case", "pechukas", "--c", c]) == 0
        vals = {ch["label"]: ch["value"] for ch in json.loads(out.read_text())["checks"]}
        assert vals["witness min eigenvalue"] == -abs(float(c)) / 4
        assert vals.get("witness found for the correlated assignment", False) == witnessed

    def test_c_out_of_range(self):
        assert main(["paper-case", "pechukas", "--c", "1.5"]) == 1


class TestReduce:
    def test_correlated_cnot_flags_ncp(self, tmp_path, capsys):
        f = write_json(
            tmp_path, "corr.json",
            opendyn.assignment_to_json(opendyn.correlated_assignment(0.5)),
        )
        g = unitary_generator_file(tmp_path)
        out = tmp_path / "reduce.json"
        assert main(["--out", str(out), "reduce", f, g, "--times", "0:1:2"]) == 2
        text = capsys.readouterr().out
        assert "CP yes" in text and "CP NO" in text
        rep = json.loads(out.read_text())
        # t = 0 is the identity channel; t = 1 applies the joint unitary
        assert rep["maps"][0]["cp"] is True
        assert rep["maps"][1]["cp"] is False
        assert abs(rep["maps"][1]["min_choi_eigenvalue"] - (2 - np.sqrt(5)) / 4) < 1e-9
        lam = channels.superoperator_from_json(rep["maps"][1]["superoperator"])
        assert lam.is_trace_preserving()

    def test_each_reduced_map_built_once(self, tmp_path, monkeypatch):
        f = write_json(
            tmp_path, "corr.json",
            opendyn.assignment_to_json(opendyn.correlated_assignment(0.5)),
        )
        calls = []
        build = opendyn.reduced_map

        def counted(rd, t):
            calls.append(t)
            return build(rd, t)

        monkeypatch.setattr(opendyn, "reduced_map", counted)
        monkeypatch.setattr(compatdomain, "reduced_map", counted)
        assert main(["reduce", f, unitary_generator_file(tmp_path), "--times", "0:1:4"]) == 2
        assert calls == np.linspace(0.0, 1.0, 4).tolist()

    def test_product_file_with_wrong_reservoir_dimension(self, tmp_path, capsys):
        obj = opendyn.assignment_to_json(opendyn.ProductAssignment(rho_r=states.I2 / 2, d_s=2))
        f = write_json(tmp_path, "prod.json", {**obj, "d_r": 3})
        g = unitary_generator_file(tmp_path)
        assert main(["reduce", f, g]) == 1
        assert "declared d_r=3" in capsys.readouterr().err

    def test_product_hamiltonian_clean(self, tmp_path):
        f = write_json(
            tmp_path, "prod.json",
            opendyn.assignment_to_json(
                opendyn.ProductAssignment(rho_r=states.I2 / 2, d_s=2)
            ),
        )
        h = matcore.kron(states.SIGMA_Z, states.SIGMA_X)
        g = write_json(
            tmp_path, "ham.json",
            {"kind": "hamiltonian", "matrix": states.matrix_to_json(h)},
        )
        assert main(["reduce", f, g, "--times", "0:2:5"]) == 0


class TestDomain:
    def test_correlated_report_and_csv(self, tmp_path, capsys):
        f = write_json(
            tmp_path, "corr.json",
            opendyn.assignment_to_json(opendyn.correlated_assignment(0.5)),
        )
        csv_path = tmp_path / "landscape.csv"
        out = tmp_path / "domain.json"
        code = main(["--out", str(out), "domain", f, "--csv", str(csv_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "member=True" in text
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "rx,ry,rz,lmin"
        assert len(lines) > 1000
        rep = json.loads(out.read_text())
        radii = {tuple(r["direction"]): r["radius"] for r in rep["radii"]}
        assert abs(radii[(0.0, 0.0, 1.0)] - 0.5) < 1e-6
        assert abs(radii[(1.0, 0.0, 0.0)] - np.sqrt(3) / 2) < 1e-6

    def test_lambda_predicate(self, tmp_path):
        f = write_json(
            tmp_path, "corr.json",
            opendyn.assignment_to_json(opendyn.correlated_assignment(0.5)),
        )
        g = unitary_generator_file(tmp_path)
        assert main(["domain", f, "--predicate", "lambda",
                     "--generator", g, "--t", "1.0"]) == 0
