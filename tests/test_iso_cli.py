"""Synthesis pipeline, oracle reductions, and the CLI surface."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lpiso
from lpiso.errors import IndexOutOfRangeError, ProvisionalError
from lpiso.lp_vectors import FinSuppVector, norm_p
from lpiso.presentations import (
    CeSet,
    ComputableVector,
    OracleAdapter,
    RotatedPresentation,
    StandardPresentation,
    build_adversarial,
)
from lpiso.scalar_core import GaussianRational, PExponent
from lpiso.iso_cli import (
    apply_isometry,
    compute_e0_wrt_F,
    identity_reduction,
    main,
    recover_p,
    recover_scale_from_atom,
    synthesize_isometry,
)

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))


def cli_env():
    """The environment with this checkout's lpiso importable in a child process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lpiso.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def transparent_distance_to_basis(vec, coord, p, k=10):
    snap = vec.transparent(k + 2)
    lam = snap[coord]
    target = FinSuppVector.basis(coord, lam)
    return norm_p(snap - target, p, k + 2).hi


class TestSynthesize:
    def test_standard_units_are_atoms(self):
        iso = synthesize_isometry(StandardPresentation(P1), 4)
        coords = [u.atom_coordinate for u in iso.units]
        assert sorted(coords) == list(set(coords)) == sorted(coords)
        assert len(coords) == 4
        for u in iso.units:
            assert transparent_distance_to_basis(u.vector, u.atom_coordinate, P1) < Fraction(1, 2**8)
        assert not iso.provisional

    def test_rotated_units_carry_zeta(self):
        zeta = GaussianRational.of(0, 1)
        iso = synthesize_isometry(RotatedPresentation(P1, zeta), 3)
        imaginary_seen = False
        for u in iso.units:
            snap = u.vector.transparent(12)
            lam = snap[u.atom_coordinate]
            # every unit is a unimodular multiple of a coordinate vector
            assert abs(lam.abs_sq() - 1) < Fraction(1, 2**8)
            if abs(lam.im) > Fraction(1, 2):
                imaginary_seen = True
        # the seed generator zeta e_0 itself survives as a unit
        assert imaginary_seen

    def test_adversarial_units(self):
        pres = build_adversarial(CeSet.explicit([1]), P1)
        iso = synthesize_isometry(pres, 3)
        coords = {u.atom_coordinate for u in iso.units}
        assert 0 in coords  # the hidden direction is reachable: the set is decidable here

    def test_generation_witnesses_recorded(self):
        iso = synthesize_isometry(StandardPresentation(P1), 3)
        assert set(iso.witnesses) == {0, 1, 2}


class TestApply:
    def setup_method(self):
        self.iso = synthesize_isometry(StandardPresentation(P1), 3)

    def test_basis_goes_to_unit(self):
        combo = apply_isometry(self.iso, FinSuppVector.basis(0), 8)
        unit_combo = self.iso.unit(0).approx(9)
        diff = combo - unit_combo
        assert self.iso.pres.norm_enclosure(diff, 8).hi < Fraction(1, 2**6)

    def test_zero(self):
        assert apply_isometry(self.iso, FinSuppVector.zero(), 8).is_zero()

    def test_disjoint_norm_additivity(self):
        x = FinSuppVector.basis(0) + FinSuppVector.basis(1)
        combo = apply_isometry(self.iso, x, 10)
        q = self.iso.pres.norm_approx(combo, 10)
        assert abs(q - 2) < Fraction(1, 2**8)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            apply_isometry(self.iso, FinSuppVector.basis(7), 8)


class TestComputeE0:
    def test_c1_p1(self):
        oracle = OracleAdapter(CeSet.explicit([1]), "transparent")
        g = compute_e0_wrt_F(oracle, P1, 6)
        pres = build_adversarial(oracle.ce, P1)
        v = pres.transparent_eval(g, 10)
        assert norm_p(v - FinSuppVector.basis(0), P1, 10).hi < Fraction(1, 2**6)

    def test_c12_p32(self):
        oracle = OracleAdapter(CeSet.explicit([1, 2]), "transparent")
        g = compute_e0_wrt_F(oracle, P32, 4)
        pres = build_adversarial(oracle.ce, P32)
        v = pres.transparent_eval(g, 10)
        assert norm_p(v - FinSuppVector.basis(0), P32, 10).hi < Fraction(1, 2**4)

    def test_coarsest_precision(self):
        oracle = OracleAdapter(CeSet.explicit([1]), "transparent")
        g = compute_e0_wrt_F(oracle, P1, 0)
        pres = build_adversarial(oracle.ce, P1)
        v = pres.transparent_eval(g, 8)
        assert norm_p(v - FinSuppVector.basis(0), P1, 8).hi < 1

    def test_staged_is_provisional(self):
        ce = CeSet.explicit([1], stages=[[1]])
        oracle = OracleAdapter(ce, "staged", stage_budget=0)
        with pytest.raises(ProvisionalError):
            compute_e0_wrt_F(oracle, P1, 4)


class TestRecoverScale:
    def test_c1_p1(self):
        pres = build_adversarial(CeSet.explicit([1]), P1)
        v = ComputableVector.constant(pres.e0_combo(12), pres)
        value = recover_scale_from_atom(v, Fraction(3), 8)
        assert abs(value - 2) < Fraction(1, 2**8)

    def test_c1_p32(self):
        pres = build_adversarial(CeSet.explicit([1]), P32)
        v = ComputableVector.constant(pres.e0_combo(12), pres)
        value = recover_scale_from_atom(v, Fraction(2), 8)
        # (1 - 1/2)^(-2/3) = 2^(2/3) = 1.5874010519...
        truth = Fraction(15874010519681994, 10**16)
        assert abs(value - truth) < Fraction(1, 2**7)

    def test_unimodular_invariance(self):
        pres = build_adversarial(CeSet.explicit([1]), P1)
        base = ComputableVector.constant(pres.e0_combo(12), pres)
        rotated = base.scale_gauss(GaussianRational.of(0, 1))  # i * e_0
        a = recover_scale_from_atom(base, Fraction(3), 8)
        b = recover_scale_from_atom(rotated, Fraction(3), 8)
        assert abs(a - b) < Fraction(1, 2**6)

    def test_round_trip_with_e0(self):
        # compute_e0's output feeds recover_scale: the scale is (1-gamma)^(-1/p)
        for p, expect in ((P1, Fraction(2)), (P32, Fraction(15874010519681994, 10**16))):
            oracle = OracleAdapter(CeSet.explicit([1]), "transparent")
            g = compute_e0_wrt_F(oracle, p, 10)
            pres = build_adversarial(oracle.ce, p)
            v = ComputableVector.constant(g, pres)
            value = recover_scale_from_atom(v, Fraction(3), 8)
            assert abs(value - expect) < Fraction(1, 2**7)


class TestIdentityReduction:
    def test_c1_p1(self):
        oracle = OracleAdapter(CeSet.explicit([1]), "transparent")
        iso = identity_reduction(oracle, P1, 3, 5)
        pres = iso.pres
        for j in range(3):
            v = pres.transparent_eval(iso.unit(j).approx(7), 10)
            assert norm_p(v - FinSuppVector.basis(j), P1, 10).hi < Fraction(1, 2**5)

    def test_empty(self):
        oracle = OracleAdapter(CeSet.explicit([1]), "transparent")
        iso = identity_reduction(oracle, P1, 0, 5)
        assert len(iso) == 0

    def test_staged_rejected(self):
        ce = CeSet.explicit([1], stages=[[1]])
        oracle = OracleAdapter(ce, "staged", stage_budget=0)
        with pytest.raises(ProvisionalError):
            identity_reduction(oracle, P1, 2, 5)


class TestRecoverP:
    def test_p1(self):
        box = recover_p(StandardPresentation(P1), 6)
        assert box.lo <= 1 <= box.hi and box.width <= Fraction(1, 2**6)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_sigma_exit_ok(self, capsys):
        code = self.run_cli("sigma", "--p", "1", "--z", "1", "--w", "0", "--k", "10")
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "ok"

    def test_lamperti_check_at_coarsest_precision(self, capsys):
        code = self.run_cli("lamperti-check", "--z", "1", "--w", "1", "--k", "0")
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "ok"

    def test_validate_bad_tree_exit_error(self, capsys):
        tree = json.dumps(
            {
                "tree": [[0], [1]],
                "map": {
                    "[0]": {"entries": {"0": "1"}},
                    "[1]": {"entries": {"0": "1"}},
                },
            }
        )
        code = self.run_cli("validate-tree", "--p", "1", "--tree", tree)
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["result"]["status"] == "certified_no"

    def test_staged_identity_exit_provisional(self, capsys):
        code = self.run_cli(
            "adversarial",
            "identity",
            "--p",
            "1",
            "--ce",
            '{"kind":"explicit","elements":[1],"stages":[[1]]}',
            "--staged",
            "--stage-budget",
            "0",
            "--n",
            "2",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["status"] == "provisional"

    def test_hypothesis_violation_exit_error(self, capsys):
        phi = json.dumps({"tree": [[0]], "map": {"[0]": {"entries": {"0": "1/4"}}}})
        psi = json.dumps(
            {
                "tree": [[0], [1]],
                "map": {
                    "[0]": {"entries": {"0": "1/4"}},
                    "[1]": {"entries": {"0": "1"}},
                },
            }
        )
        code = self.run_cli("project-hom", "--p", "1", "--phi", phi, "--psi", psi)
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["error"]["type"] == "HypothesisViolatedError"

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lpiso.iso_cli", "sigma", "--p", "1", "--z", "1", "--w", "1", "--k", "8"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["sigma1"]["lo"] == "2"

    def test_module_runs_without_warnings(self):
        # the package must not import the CLI module before runpy executes it
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lpiso.iso_cli", "sigma", "--p", "1",
             "--z", "1", "--w", "1", "--k", "8"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["status"] == "ok"


class TestCliInputErrors:
    """Malformed input ends in the documented JSON error with exit code 1."""

    def assert_input_error(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 1
        assert out["status"] == "error"
        assert out["error"]["type"] == "InvalidInputError"
        return out["error"]["message"]

    def test_exponent_below_one(self, capsys):
        message = self.assert_input_error(capsys, "sigma", "--p", "1/2", "--z", "1", "--w", "1")
        assert "--p" in message

    def test_unparsable_scalar(self, capsys):
        message = self.assert_input_error(capsys, "sigma", "--z", "abc", "--w", "1")
        assert "--z" in message

    def test_negative_precision(self, capsys):
        message = self.assert_input_error(capsys, "sigma", "--z", "1", "--w", "1", "--k", "-5")
        assert "--k" in message

    def test_malformed_presentation_json(self, capsys):
        message = self.assert_input_error(capsys, "synthesize", "--pres", '{"type":')
        assert "--pres" in message

    def test_unknown_presentation_type(self, capsys):
        message = self.assert_input_error(
            capsys, "synthesize", "--pres", '{"type":"hilbert","p":"1"}'
        )
        assert "hilbert" in message

    def test_negative_unit_count(self, capsys):
        message = self.assert_input_error(capsys, "synthesize", "--units", "-3")
        assert "--units" in message


class TestIsometricProperty:
    def test_apply_preserves_norms_on_random_vectors(self):
        import random
        from lpiso.lp_vectors import norm_p as transparent_norm

        iso = synthesize_isometry(StandardPresentation(P1), 4)
        rng = random.Random(3)
        for _ in range(12):
            entries = {}
            for n in range(4):
                if rng.random() < 0.6:
                    entries[n] = GaussianRational.of(
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    )
            x = FinSuppVector(entries)
            if x.is_zero():
                continue
            combo = apply_isometry(iso, x, 12)
            image_norm = iso.pres.norm_approx(combo, 12)
            source_norm = transparent_norm(x, P1, 14).mid
            assert abs(image_norm - source_norm) < Fraction(1, 2**9)

    def test_blind_fallback_witness(self):
        # without a transparent backdoor, only the blind coefficient grid
        # can discover the scaling witness
        from lpiso.presentations import GenCombo
        from lpiso.tree_maps import FiniteTree, TreeMap, TreeNode, WitnessBudget, success_index

        class OpaqueStandard(StandardPresentation):
            @property
            def has_backdoor(self):
                return False

        pres = OpaqueStandard(P1)
        node = TreeNode.of(0)
        half = ComputableVector.constant(
            GenCombo({0: GaussianRational.of(Fraction(1, 2))}), pres
        )
        psi = TreeMap(FiniteTree([node]), {node: half}, P1, pres)
        starved = success_index(psi, pres, 1, WitnessBudget(fallback_rounds=0))
        assert starved.value == 0  # identity-style candidates miss the scale
        out = success_index(psi, pres, 1, WitnessBudget(fallback_rounds=1))
        assert out.value >= 1
        assert out.witnesses[0] == {node: GaussianRational.of(2)}


class TestCliPipelineCommands:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_disintegrate_report(self, capsys):
        code = self.run_cli(
            "disintegrate", "--pres", '{"type":"standard","p":"1"}', "--stages", "2"
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        stages = out["result"]["stages"]
        assert len(stages) == 3  # stage 0 plus two extensions
        assert stages[-1]["certificate"]["flags"]["meets_hom"]

    def test_chains_report(self, capsys):
        code = self.run_cli(
            "chains", "--pres", '{"type":"adversarial","p":"1","ce":{"kind":"explicit","elements":[1]}}',
            "--stages", "3", "--k", "8",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        statuses = {entry["status"] for entry in out["result"]["limits"]}
        assert statuses == {"exact"}
        # the hidden atom's chain ends with norm power near 1 - gamma = 1/2
        halves = [
            e for e in out["result"]["limits"]
            if abs(Fraction(e["norm_power"]["lo"]) - Fraction(1, 2)) < Fraction(1, 16)
        ]
        assert halves

    def test_extend_with_phi_file(self, tmp_path, capsys):
        phi = {"tree": [[0]], "map": {"[0]": {"entries": {"0": "1", "1": "1"}}}}
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(phi))
        code = self.run_cli(
            "extend", "--pres", '{"type":"standard","p":"1"}',
            "--phi", f"@{path}", "--n", "1", "--k", "4",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["result"]["certificate"]["flags"]["restriction"]

    def test_apply_command(self, capsys):
        code = self.run_cli(
            "apply", "--pres", '{"type":"standard","p":"1"}', "--units", "3",
            "--vector", '{"entries":{"0":"1","2":"-1"}}', "--k", "8",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and "coeffs" in out["result"]["combo"]

    def test_lamperti_grid_small(self, capsys):
        code = self.run_cli(
            "lamperti-grid", "--p", "1", "--theta-steps", "8", "--t-max", "2",
            "--t-step", "1/2", "--k", "12",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["result"]["argmin"]["theta_over_pi"] == "1/2"
