"""Synthesis pipeline, oracle reductions, and the CLI surface."""

import contextlib
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpiso
import lpiso.errors
from lpiso.chain_partition import ChainLimit
from lpiso.errors import (
    BudgetExhaustedError,
    IndexOutOfRangeError,
    NoBackdoorError,
    PrecisionExhaustedError,
)
from lpiso.lp_vectors import FinSuppVector, norm_p
from lpiso import extension_engine, iso_cli, lp_vectors
from lpiso.presentations import (
    AdversarialPresentation,
    CeSet,
    ComputableVector,
    GenCombo,
    RotatedPresentation,
    StandardPresentation,
    _entry_bound_bits,
)
from lpiso.scalar_core import (
    DyadicInterval,
    GaussianRational,
    PExponent,
    _width_target,
    ceil_log2,
)
from lpiso.tree_maps import residual_norm
from lpiso.iso_cli import (
    apply_isometry,
    identity_reduction,
    main,
    recover_p,
    recover_scale_from_atom,
    synthesize_isometry,
)

from conftest import staged_only_set

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
        pres = AdversarialPresentation(CeSet.explicit([1]), P1)
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
        ce = CeSet.explicit([1])
        pres = AdversarialPresentation(ce, P1)
        g = pres.e0_combo(6)
        v = pres.transparent_eval(g, 10)
        assert norm_p(v - FinSuppVector.basis(0), P1, 10).hi < Fraction(1, 2**6)

    def test_c12_p32(self):
        ce = CeSet.explicit([1, 2])
        pres = AdversarialPresentation(ce, P32)
        g = pres.e0_combo(4)
        v = pres.transparent_eval(g, 10)
        assert norm_p(v - FinSuppVector.basis(0), P32, 10).hi < Fraction(1, 2**4)

    def test_coarsest_precision(self):
        ce = CeSet.explicit([1])
        pres = AdversarialPresentation(ce, P1)
        g = pres.e0_combo(0)
        v = pres.transparent_eval(g, 8)
        assert norm_p(v - FinSuppVector.basis(0), P1, 8).hi < 1

    def test_staged_rejected(self):
        with pytest.raises(NoBackdoorError):
            AdversarialPresentation(staged_only_set(), P1).e0_combo(4)


class TestRecoverScale:
    def test_c1_p1(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P1)
        v = ComputableVector.constant(pres.e0_combo(12), pres)
        value = recover_scale_from_atom(v, Fraction(3), 8)
        assert abs(value - 2) < Fraction(1, 2**8)

    def test_c1_p32(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        v = ComputableVector.constant(pres.e0_combo(12), pres)
        value = recover_scale_from_atom(v, Fraction(2), 8)
        # (1 - 1/2)^(-2/3) = 2^(2/3) = 1.5874010519...
        truth = Fraction(15874010519681994, 10**16)
        assert abs(value - truth) < Fraction(1, 2**7)

    def test_unimodular_invariance(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P1)
        base = ComputableVector.constant(pres.e0_combo(12), pres)
        rotated = base.scale_gauss(GaussianRational.of(0, 1))  # i * e_0
        a = recover_scale_from_atom(base, Fraction(3), 8)
        b = recover_scale_from_atom(rotated, Fraction(3), 8)
        assert abs(a - b) < Fraction(1, 2**6)

    def test_round_trip_with_e0(self):
        # e0_combo's output feeds recover_scale: the scale is (1-gamma)^(-1/p)
        for p, expect in ((P1, Fraction(2)), (P32, Fraction(15874010519681994, 10**16))):
            ce = CeSet.explicit([1])
            pres = AdversarialPresentation(ce, p)
            g = pres.e0_combo(10)
            v = ComputableVector.constant(g, pres)
            value = recover_scale_from_atom(v, Fraction(3), 8)
            assert abs(value - expect) < Fraction(1, 2**7)


class TestIdentityReduction:
    def test_c1_p1(self):
        iso = identity_reduction(CeSet.explicit([1]), P1, 3, 5)
        pres = iso.pres
        for j in range(3):
            v = pres.transparent_eval(iso.unit(j).approx(7), 10)
            assert norm_p(v - FinSuppVector.basis(j), P1, 10).hi < Fraction(1, 2**5)

    def test_empty(self):
        iso = identity_reduction(CeSet.explicit([1]), P1, 0, 5)
        assert len(iso) == 0

    def test_staged_rejected(self):
        with pytest.raises(NoBackdoorError):
            identity_reduction(staged_only_set(), P1, 2, 5)


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

    def test_sigma_reads_an_imaginary_part_with_a_negative_exponent(self, capsys):
        # used to fail with "bad --z: Invalid literal for Fraction: '1e'"
        code = self.run_cli("sigma", "--z", "1e-5i", "--w", "1")
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["inputs"]["z"] == "1/100000i"

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
            "--n",
            "2",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["status"] == "provisional"

    def test_staged_e0_exit_provisional(self, capsys):
        code = self.run_cli(
            "adversarial", "e0", "--p", "3/2",
            "--ce", '{"kind":"explicit","elements":[1],"stages":[[1]]}',
            "--staged",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out == {
            "command": "adversarial",
            "detail": "a staged set cannot certify the tail cut-off for e_0",
            "status": "provisional",
        }

    def test_staged_scale_exit_provisional(self, capsys):
        # used to exit 0 with a scale read off the membership oracle that
        # --staged says the set lacks
        code = self.run_cli(
            "adversarial", "scale", "--p", "5/4",
            "--ce", '{"kind":"explicit","elements":[2,5]}', "--staged",
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out == {
            "command": "adversarial",
            "detail": "a staged set cannot certify the scale (1-gamma)^(-1/p)",
            "status": "provisional",
        }

    def test_generation_bits_zero_is_kept(self, capsys):
        # 0 is a precision, not a request for the default
        code = self.run_cli("synthesize", "--units", "2", "--generation-bits", "0")
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
        assert result["generation_bits"] == result["ledger"]["generation_bits"] == 0

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

    def test_closed_pipe_exits_without_traceback(self):
        # the reader goes away before the report is written, as with `| head`
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpiso.iso_cli", "disintegrate",
             "--pres", '{"type":"standard","p":"1"}'],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=cli_env(),
        )
        proc.stdout.close()
        with proc.stderr:
            stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr
        assert stderr == ""


_ONE_NODE_MAP = '{"tree": [[0]], "map": {"[0]": {"entries": {"0": "1"}}}}'


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

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sigma", "--z", "1/0", "--w", "1"], "--z"),
            (["sigma", "--p", "1/0", "--z", "1", "--w", "1"], "--p"),
            (["lamperti-grid", "--t-step", "1/0"], "--t-step"),
            (
                ["validate-tree", "--tree",
                 '{"tree": [[0]], "map": {"[0]": {"entries": {"0": "1/0"}}}}'],
                "--tree",
            ),
            (
                ["extend", "--phi",
                 '{"tree": [[0]], "map": {"[0]": {"entries": {"0": "1/0"}}}}'],
                "--phi",
            ),
            (["synthesize", "--pres", '{"type": "standard", "p": "1/0"}'], "--pres"),
            (["synthesize", "--pres", '{"type": "rotated", "p": "1", "zeta": "1/0i"}'], "--pres"),
            (["apply", "--vector", '{"entries": {"0": "1/0"}}'], "--vector"),
        ],
        ids=[
            "sigma-z", "sigma-p", "lamperti-grid-t-step", "validate-tree-map", "extend-phi",
            "descriptor-p", "descriptor-zeta", "apply-vector",
        ],
    )
    def test_zero_denominator(self, capsys, argv, option):
        # used to end in a ZeroDivisionError traceback
        message = self.assert_input_error(capsys, *argv)
        assert message == f"bad {option}: zero denominator in '1/0'"

    @pytest.mark.parametrize(
        "tree_map",
        [
            '{"tree": [[-1]], "map": {"[-1]": {"entries": {"0": "1"}}}}',
            '{"tree": [[true]], "map": {"[1]": {"entries": {"0": "1"}}}}',
            '{"tree": [[0]], "map": {"0x": {"entries": {"0": "1"}}}}',
            '{"tree": [[0]], "map": {"(0)": {"entries": {"0": "1"}}}}',
            '{"tree": [[0]], "map": {"[0]": {"entries": {"0": "1"}}, '
            '"[ 0 ]": {"entries": {"1": "1"}}}}',
        ],
        ids=["negative-label", "boolean-label", "key-0x", "key-parenthesized", "two-keys-one-node"],
    )
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["validate-tree", "--tree"], "--tree"),
            (["project-hom", "--psi", _ONE_NODE_MAP, "--phi"], "--phi"),
            (["project-hom", "--phi", '{"tree": [], "map": {}}', "--psi"], "--psi"),
            (["extend", "--pres", '{"type": "standard", "p": "1"}', "--phi"], "--phi"),
        ],
        ids=["validate-tree", "project-hom-phi", "project-hom-psi", "extend-phi"],
    )
    def test_malformed_tree_map(self, capsys, argv, option, tree_map):
        # each used to be read as some well-formed map and certified
        message = self.assert_input_error(capsys, *argv, tree_map)
        assert message.startswith(f"bad {option}: ")

    def test_negative_precision(self, capsys):
        message = self.assert_input_error(capsys, "sigma", "--z", "1", "--w", "1", "--k", "-5")
        assert "--k" in message

    @pytest.mark.parametrize("k", ["100000", "8193"])
    def test_precision_above_the_cap(self, capsys, k):
        # 100000 used to end in a traceback: the printed 2^-k figures pass
        # Python's int-to-str digit limit
        message = self.assert_input_error(
            capsys, "lamperti-check", "--p", "3", "--z", "1", "--w", "1/2", "--k", k
        )
        assert "--k" in message

    @pytest.mark.parametrize("option", ["--cert-bits", "--generation-bits"])
    def test_synthesis_precision_above_the_cap(self, capsys, option, monkeypatch):
        # 9000 used to end in a traceback from Python's int-to-str digit
        # limit; the cap now refuses it before any synthesis work
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(iso_cli, "build_disintegration", no_synthesis)
        message = self.assert_input_error(
            capsys, "synthesize", "--units", "2", option, "8193"
        )
        assert message == f"{option} must be <= 8192, got 8193"

    @pytest.mark.parametrize("k_bits", ["8193", "1000000"])
    def test_recover_p_precision_above_the_cap(self, capsys, k_bits, monkeypatch):
        # recover_p hands k_bits + 8 to synthesis as its certificate
        # precision, so a huge --k-bits would run for minutes
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(iso_cli, "build_disintegration", no_synthesis)
        message = self.assert_input_error(
            capsys, "recover-p", "--pres", '{"type":"standard","p":"3/2"}', "--k-bits", k_bits
        )
        assert message == f"--k-bits must be <= 8192, got {k_bits}"

    def test_precision_at_the_cap(self, capsys):
        code = main(["lamperti-check", "--p", "3", "--z", "1", "--w", "1/2", "--k", "8192"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "ok"
        assert out["inputs"]["k"] == 8192

    def test_malformed_presentation_json(self, capsys):
        message = self.assert_input_error(capsys, "synthesize", "--pres", '{"type":')
        assert "--pres" in message

    def test_unknown_presentation_type(self, capsys):
        message = self.assert_input_error(
            capsys, "synthesize", "--pres", '{"type":"hilbert","p":"1"}'
        )
        assert "hilbert" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["adversarial", "scale", "--ce", '{"kind":"explicit","elements":[-1]}'],
            ["adversarial", "e0", "--ce", '{"kind":"explicit","elements":[1.5]}'],
            [
                "synthesize", "--units", "2", "--pres",
                '{"type":"adversarial","p":"1","ce":{"kind":"explicit","elements":[-2]}}',
            ],
        ],
        ids=["scale-negative", "e0-fractional", "synthesize-negative"],
    )
    def test_set_element_not_a_natural_number(self, capsys, argv):
        # a negative element used to end in a TypeError traceback, and 1.5
        # was reported as 1
        message = self.assert_input_error(capsys, *argv)
        assert "natural numbers" in message

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["synthesize", "--units", "abc"], "synthesize"),
            (["sigma", "--z", "1"], "sigma"),
            (["synthesize", "--k", "3"], "synthesize"),
            (["disintegrate", "--k", "3"], "disintegrate"),
            (["validate-tree", "--k", "3", "--tree", _ONE_NODE_MAP], "validate-tree"),
            ([], None),
            # only the identity reduction reads --n
            (["adversarial", "e0", "--n", "7"], "adversarial"),
            (["adversarial", "scale", "--n", "7"], "adversarial"),
            (["adversarial"], "adversarial"),
        ],
        ids=[
            "not-an-integer", "missing-option", "synthesize-k", "disintegrate-k",
            "validate-tree-k", "no-command",
            "e0-n", "scale-n", "no-reduction",
        ],
    )
    def test_argument_error(self, capsys, argv, command):
        # used to exit 2, the provisional code, with usage text on stderr
        code = main(argv)
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert (code, captured.err) == (1, "")
        assert out["command"] == command
        assert out["status"] == "error"
        assert out["error"]["type"] == "InvalidInputError"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["synthesize", "-h"])
        assert info.value.code == 0
        assert "--units" in capsys.readouterr().out

    def test_negative_unit_count(self, capsys):
        message = self.assert_input_error(capsys, "synthesize", "--units", "-3")
        assert "--units" in message

    def test_grid_without_cells(self, capsys):
        # the grid starts at t = 1, so --t-max 1/2 used to end in a traceback
        message = self.assert_input_error(capsys, "lamperti-grid", "--t-max", "1/2")
        assert "--t-max" in message

    @pytest.mark.parametrize(
        "argv",
        [["--theta-steps", "0"], ["--t-step", "0"], ["--t-step=-1/16"]],
        ids=["no-theta-steps", "zero-t-step", "negative-t-step"],
    )
    def test_grid_without_steps(self, capsys, argv):
        message = self.assert_input_error(capsys, "lamperti-grid", *argv)
        assert message == "--theta-steps must be >= 1 and --t-step > 0"

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (["--theta-steps", "100000000"], 11_300_000_113),
            (["--theta-steps", "1", "--t-max", "100000", "--t-step", "1/16"], 3_199_970),
        ],
        ids=["theta-steps", "t-max"],
    )
    def test_grid_above_the_cell_bound(self, capsys, argv, cells):
        # refused before any cell is evaluated: the loop would run for years
        start = time.monotonic()
        message = self.assert_input_error(capsys, "lamperti-grid", *argv)
        assert time.monotonic() - start < 5
        assert message == f"the grid has {cells} cells, more than {iso_cli.MAX_GRID_CELLS}"

    @pytest.mark.parametrize("bound, refused", [(27, False), (26, True)])
    def test_the_bound_counts_the_cells_the_grid_evaluates(
        self, capsys, monkeypatch, bound, refused
    ):
        # 9 angles times the 3 values t = 1, 3/2, 2
        monkeypatch.setattr(iso_cli, "MAX_GRID_CELLS", bound)
        argv = ["lamperti-grid", "--theta-steps", "8", "--t-max", "2", "--t-step", "1/2"]
        if refused:
            message = self.assert_input_error(capsys, *argv)
            assert message == "the grid has 27 cells, more than 26"
        else:
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["result"]["cells"] == 27

    def test_phi_tree_outside_psi_tree(self, capsys):
        # used to end in a ValueError traceback from the hypothesis check
        phi = json.dumps(
            {
                "tree": [[0], [1]],
                "map": {"[0]": {"entries": {"0": "1"}}, "[1]": {"entries": {"1": "1"}}},
            }
        )
        psi = json.dumps({"tree": [[0]], "map": {"[0]": {"entries": {"0": "1"}}}})
        message = self.assert_input_error(
            capsys, "project-hom", "--p", "1", "--phi", phi, "--psi", psi
        )
        assert "--phi" in message and "--psi" in message


    @pytest.mark.parametrize(
        "argv, option",
        [
            (["sigma", "--z", "1e2467", "--w", "1"], "--z"),
            (["sigma", "--p", "1e-2467", "--z", "1", "--w", "1"], "--p"),
            (["sigma", "--z", "1", "--w", "2E+5000"], "--w"),
            (["lamperti-grid", "--t-step", "1.5e-3000"], "--t-step"),
            (["synthesize", "--pres", '{"type": "standard", "p": "1e2467"}'], "--pres"),
            (["apply", "--vector", '{"entries": {"0": "1/2+3e2467i"}}'], "--vector"),
        ],
        ids=["sigma-z", "sigma-p", "sigma-w", "lamperti-grid-t-step", "descriptor-p", "apply-vector"],
    )
    def test_decimal_exponent_past_the_bound(self, capsys, argv, option):
        # Fraction builds 10**exponent in full, so '1e1000000000' used to
        # ask for a 3.3-billion-bit integer
        message = self.assert_input_error(capsys, *argv)
        assert message.startswith(f"bad {option}: decimal exponent ")
        assert "past 2466" in message

    @pytest.mark.parametrize(
        "pres, key",
        [
            ('{"type": "standard", "P": "3/2"}', "P"),
            ('{"type": "standard", "p": "1", "extra": 3}', "extra"),
            ('{"p": "1", "zeta": "i"}', "zeta"),
            ('{"type": "rotated", "p": "1", "zeta": "i", "ce": {"elements": [1]}}', "ce"),
            ('{"type": "adversarial", "p": "1", "ce": {"elements": [1]}, "zeta": "i"}', "zeta"),
            ('{"type": "adversarial", "p": "1", "ce": {"elements": [1], "name": "odds"}}', "name"),
            ('{"type": "adversarial", "p": "1", "ce": {"kind": "named", "name": "odds", '
             '"elements": [1]}}', "elements"),
        ],
        ids=[
            "standard-P", "standard-extra", "untyped-zeta", "rotated-ce", "adversarial-zeta",
            "explicit-set-name", "named-set-elements",
        ],
    )
    def test_unknown_descriptor_key(self, capsys, pres, key):
        # each used to be ignored: '"P": "3/2"' ran at the --p exponent
        message = self.assert_input_error(
            capsys, "synthesize", "--units", "2", "--p", "3", "--pres", pres
        )
        assert message.startswith("bad --pres: unknown ") and f"'{key}'" in message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synthesize", "--pres", '{"type": ["standard"], "p": "1"}'],
             "bad --pres: unknown presentation type ['standard']"),
            (["adversarial", "e0", "--ce", '{"kind": ["explicit"], "elements": [1]}'],
             "bad --ce: unknown ce-set kind ['explicit']"),
        ],
        ids=["presentation-type", "ce-set-kind"],
    )
    def test_list_typed_kind_is_unknown(self, capsys, argv, message):
        # the key check looks the kind up only when it is a string
        assert self.assert_input_error(capsys, *argv) == message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synthesize", "--pres", '{"type": "rotated", "p": "3"}'],
             "bad --pres: missing rotated descriptor keys ['zeta']"),
            (["synthesize", "--pres", '{"type": "adversarial", "p": "1"}'],
             "bad --pres: missing adversarial descriptor keys ['ce']"),
            (["synthesize", "--pres", '{"type": "adversarial", "p": "1", "ce": {"kind": "named"}}'],
             "bad --pres: missing named ce-set keys ['name']"),
            (["adversarial", "e0", "--ce", '{"kind": "explicit"}'],
             "bad --ce: missing explicit ce-set keys ['elements']"),
        ],
        ids=["rotated-zeta", "adversarial-ce", "named-name", "explicit-elements"],
    )
    def test_missing_descriptor_key(self, capsys, argv, message):
        # each used to give only Python's KeyError text, e.g. "bad --pres: 'zeta'"
        assert self.assert_input_error(capsys, *argv) == message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["adversarial", "e0", "--ce", '{"kind":"explicit","elements":[1],"stages":[]}'],
             "bad --ce: last stage must list every element"),
            (["synthesize", "--pres", '{"type":"adversarial","p":"1",'
              '"ce":{"kind":"explicit","elements":[1],"stages":[]}}'],
             "bad --pres: last stage must list every element"),
        ],
        ids=["adversarial-ce", "synthesize-pres"],
    )
    def test_explicit_set_without_stages(self, capsys, argv, message):
        # each used to stall through 65,536 stages into EnumerationStalledError
        assert self.assert_input_error(capsys, *argv) == message

    def test_unknown_ce_set_key(self, capsys):
        message = self.assert_input_error(
            capsys, "adversarial", "e0", "--ce", '{"kind": "explicit", "elements": [1], "extra": 3}'
        )
        assert message == "bad --ce: unknown explicit ce-set keys ['extra']"


_STAGED_CE = '{"kind":"explicit","elements":[1],"stages":[[1]]}'
_REPEATED_VALUE_MAP = (
    '{"tree": [[0], [1]], "map": {"[0]": {"entries": {"0": "1"}}, '
    '"[1]": {"entries": {"0": "1"}}}}'
)


class TestReportEnvelope:
    """Every command prints one envelope, written in one place: `command`,
    `inputs`, `result`, any `certificates` and `status`, or one of the two
    failure shapes; the status alone decides the exit code."""

    # per command: a valid argv, the command its report names, a failing argv
    CASES = [
        (["sigma", "--z", "1/2+i", "--w", "1"], "sigma", ["sigma", "--z", "abc", "--w", "1"]),
        (
            ["lamperti-check", "--z", "1", "--w", "1/2", "--k", "8"],
            "lamperti-check",
            ["lamperti-check", "--z", "1", "--w", "1", "--k", "-1"],
        ),
        (
            ["lamperti-grid", "--theta-steps", "1", "--t-max", "1"],
            "lamperti-grid",
            ["lamperti-grid", "--t-max", "1/2"],
        ),
        (
            ["validate-tree", "--tree", _ONE_NODE_MAP],
            "validate-tree",
            ["validate-tree", "--tree", _REPEATED_VALUE_MAP],
        ),
        (
            ["project-hom", "--phi", _ONE_NODE_MAP, "--psi", _ONE_NODE_MAP],
            "project-hom",
            ["project-hom", "--phi", _REPEATED_VALUE_MAP, "--psi", _ONE_NODE_MAP],
        ),
        (["extend", "--n", "1", "--k", "4"], "extend", ["extend", "--phi", _REPEATED_VALUE_MAP]),
        (
            ["disintegrate", "--stages", "1"],
            "disintegrate",
            ["disintegrate", "--pres", '{"type":"standard","p":"2"}'],
        ),
        (["chains", "--stages", "3", "--k", "4"], "chains", ["chains", "--stages", "-1"]),
        (
            ["synthesize", "--units", "2"],
            "synthesize",
            ["synthesize", "--units", "2", "--pres", '{"type":"standard","p":"2"}'],
        ),
        (
            ["apply", "--units", "2", "--vector", '{"entries":{"1":"1"}}'],
            "apply",
            ["apply", "--units", "2", "--vector", '{"entries":{"2":"1"}}'],
        ),
        (
            ["adversarial", "e0", "--k", "4"],
            "adversarial-e0",
            ["adversarial", "e0", "--ce", _STAGED_CE, "--staged"],
        ),
        (
            ["adversarial", "scale", "--k", "4"],
            "adversarial-scale",
            ["adversarial", "scale", "--ce", _STAGED_CE, "--staged"],
        ),
        (
            ["adversarial", "identity", "--n", "2", "--k", "4"],
            "adversarial-identity",
            ["adversarial", "identity", "--ce", _STAGED_CE, "--staged"],
        ),
        (
            ["recover-p", "--pres", '{"type":"standard","p":"3"}', "--k-bits", "2"],
            "recover-p",
            ["recover-p"],
        ),
    ]
    IDS = [command for _, command, _ in CASES]

    @staticmethod
    def envelope(capsys, argv):
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        assert code == {"ok": 0, "provisional": 2}.get(out["status"], 1)
        if "error" in out:
            assert out.keys() == {"command", "status", "error"}
            assert out["status"] == "error"
            assert out["error"].keys() == {"type", "message"}
        elif "detail" in out:
            assert out.keys() == {"command", "status", "detail"}
            assert out["status"] == "provisional"
        else:
            assert {"command", "inputs", "result", "status"} <= out.keys()
            assert out.keys() <= {"command", "inputs", "result", "certificates", "status"}
        return code, out

    @pytest.mark.parametrize("argv, command, failing", CASES, ids=IDS)
    def test_a_valid_run(self, capsys, argv, command, failing):
        code, out = self.envelope(capsys, argv)
        assert (code, out["command"], out["status"]) == (0, command, "ok")

    @pytest.mark.parametrize("valid, command, argv", CASES, ids=IDS)
    def test_a_failing_run(self, capsys, valid, command, argv):
        code, out = self.envelope(capsys, argv)
        # a failure names the subcommand, so every reduction reads "adversarial"
        assert code != 0 and out["command"] == argv[0]


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
        # the success index reads the backdoor for its greedy witness, so a
        # norm-only presentation is refused
        from conftest import OpaqueStandard
        from lpiso.tree_maps import FiniteTree, TreeMap, TreeNode, success_index

        pres = OpaqueStandard(P1)
        node = TreeNode.of(0)
        half = ComputableVector.constant(
            GenCombo({0: GaussianRational.of(Fraction(1, 2))}), pres
        )
        psi = TreeMap(FiniteTree([node]), {node: half}, P1)
        with pytest.raises(NoBackdoorError):
            success_index(psi, pres, 1)


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


_STANDARD_P1 = '{"type":"standard","p":"1"}'
_BASE_ONE_NODE = '{"tree":[[0]],"map":{"[0]":{"entries":{"0":"1","1":"1"}}}}'
_BASE_THREE_NODES = (
    '{"tree":[[0],[0,0],[1]],"map":{"[0]":{"entries":{"0":"1","1":"1/2"}},'
    '"[0,0]":{"entries":{"0":"1"}},"[1]":{"entries":{"2":"1/4"}}}}'
)


class TestExtendBaseMap:
    """extend validates a transparent --phi exactly, before it encodes it."""

    @pytest.mark.parametrize(
        "tree",
        [
            '{"tree":[[0]],"map":{"[0]":{"entries":{}}}}',
            '{"tree":[[0],[0,0]],"map":{"[0]":{"entries":{"0":"1"}},'
            '"[0,0]":{"entries":{"0":"1"}}}}',
        ],
        ids=["zero-node", "child-equals-parent"],
    )
    def test_invalid_base_map_gets_the_validate_tree_witness(self, capsys, tree):
        # encoded first, the map was checked through interval evidence,
        # which cannot certify a zero or a repeated value: the search ran
        # all its rounds and ended in BudgetExhaustedError
        assert main(["validate-tree", "--tree", tree]) == 1
        witness = json.loads(capsys.readouterr().out)["result"]["witness"]
        code = main(["extend", "--pres", _STANDARD_P1, "--phi", tree, "--n", "1", "--k", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"] == {"type": "NotPartialDisintegrationError", "message": witness}

    @pytest.mark.parametrize(
        "pres, phi, digest",
        [
            (
                _STANDARD_P1,
                _BASE_THREE_NODES,
                "96147db5a12029f0c0e9f56eef33d0a46d6391012c74cd84e6b1101883ff6384",
            ),
            (
                '{"type":"rotated","p":"3","zeta":"3/5+4/5i"}',
                _BASE_ONE_NODE,
                "537a2ed5111594a9c4fc7364e86cba017eb8b513e2ed3af55db62e858dbfe2f6",
            ),
            (
                '{"type":"adversarial","p":"1","ce":{"kind":"explicit","elements":[1,3]}}',
                _BASE_THREE_NODES,
                "64b4cef37839cbd5094e6e99dc83678326cc1f857e6f37110f6dcef34fa98a21",
            ),
        ],
        ids=["standard-p1", "rotated-p3", "adversarial-p1"],
    )
    def test_valid_base_map_report_is_unchanged(self, capsys, pres, phi, digest):
        # the digests are of the reports printed while the CLI encoded the
        # base map at k + 6 itself
        code = main(["extend", "--pres", pres, "--phi", phi, "--n", "1", "--k", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerbose:
    """--verbose traces each tried ball on stderr and leaves stdout alone.

    The first test runs subprocesses; the second runs in-process under the
    test runner's own logging handlers, which --verbose must not need."""

    ARGV = ["disintegrate", "--pres", _STANDARD_P1, "--stages", "3"]
    SHAPE = re.compile(r"ball tree=\{.*\} radius=2\^-\d+ hom_upper=\d+(/\d+)? precision=\d+")

    @staticmethod
    def count_tried_balls(monkeypatch) -> list:
        # a tried ball is one hom read after a granted radius pick
        tried = []
        hom_upper = extension_engine._ledger_hom_upper

        def counted(*args):
            tried.append(1)
            return hom_upper(*args)

        monkeypatch.setattr(extension_engine, "_ledger_hom_upper", counted)
        return tried

    @staticmethod
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lpiso.iso_cli", *argv],
            capture_output=True,
            text=True,
            env=cli_env(),
        )

    def test_one_line_per_tried_ball(self, monkeypatch, capsys):
        tried = self.count_tried_balls(monkeypatch)
        assert main(self.ARGV) == 0
        capsys.readouterr()

        quiet = self.run(*self.ARGV)
        verbose = self.run("--verbose", *self.ARGV)
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stderr == ""
        assert verbose.stdout == quiet.stdout
        lines = verbose.stderr.splitlines()
        assert len(lines) == len(tried) >= 3
        assert all(self.SHAPE.fullmatch(line) for line in lines), lines

    def test_in_process_synthesize(self, monkeypatch, capsys):
        argv = ["synthesize", "--units", "2"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        tried = self.count_tried_balls(monkeypatch)
        log = logging.getLogger("lpiso")
        before = (list(log.handlers), log.level, log.propagate)
        assert main(["--verbose", *argv]) == 0
        verbose = capsys.readouterr()
        # the run's handler, level and propagation are all put back
        assert (list(log.handlers), log.level, log.propagate) == before
        assert quiet.err == ""
        assert verbose.out == quiet.out
        lines = verbose.err.splitlines()
        assert len(lines) == len(tried) >= 2
        assert all(self.SHAPE.fullmatch(line) for line in lines), lines


def _old_generation_upper(iso, j):
    """The padded flattening synthesize_isometry ran inline before it called
    tree_maps.residual_norm: one query at generation_bits + 4, each witness
    term approximated finely enough to stay inside the padding, and never
    coarser than the atom peek's read at peek_prec + 1, as the program's
    unit views read it."""
    gen_bits = iso.generation_bits
    peek_prec = max(gen_bits, iso.pairwise_sigma1_bits) + 8
    beta = iso.witnesses[j]
    size_bits = max(1, len(beta)).bit_length()
    combo = GenCombo.single(j)
    pad = Fraction(0)
    for m, z in beta.items():
        inner_k = gen_bits + 4 + size_bits + _entry_bound_bits(z)
        combo = combo - iso.units[m].vector.approx(max(inner_k, peek_prec + 1)).scale(z)
        pad += _width_target(gen_bits + 4 + size_bits)
    return iso.pres.norm_enclosure(combo, gen_bits + 4).hi + pad


class TestGenerationWitness:
    @pytest.mark.parametrize(
        "pres",
        [
            StandardPresentation(P1),
            RotatedPresentation(P32, GaussianRational.parse("3/5+4/5i")),
            AdversarialPresentation(CeSet.explicit([2, 5]), P1),
        ],
        ids=["standard-p1", "rotated-p3/2", "adversarial-p1"],
    )
    def test_bound_equals_the_old_flattening(self, pres, monkeypatch):
        uppers = {}

        def recording_residual_norm(pres_, j, terms, k):
            box = residual_norm(pres_, j, terms, k)
            uppers[j] = box.hi
            return box

        monkeypatch.setattr(iso_cli, "residual_norm", recording_residual_norm)
        iso = synthesize_isometry(pres, 4)
        assert sorted(uppers) == [0, 1, 2, 3]
        for j, upper in uppers.items():
            assert upper == _old_generation_upper(iso, j)
            assert upper < _width_target(iso.generation_bits)


class TestAtomPeek:
    @pytest.mark.parametrize(
        "generation_bits,peek_prec",
        [(None, 20), (20, 28)],
        ids=["gen-below-cert", "gen-above-cert"],
    )
    def test_one_peek_per_unit(self, generation_bits, peek_prec, monkeypatch):
        # one peek at max(gen_bits, cert_bits) + 8 serves both the reported
        # atom coordinate and the generation witnesses
        precs = []

        def counting_peek(vec, prec):
            precs.append(prec)
            return peek(vec, prec)

        peek = iso_cli._transparent_atom_peek
        monkeypatch.setattr(iso_cli, "_transparent_atom_peek", counting_peek)
        iso = synthesize_isometry(
            StandardPresentation(P1), 4, generation_bits=generation_bits
        )
        assert precs == [peek_prec] * 4
        # each generator is witnessed by the unit peeked on its coordinate
        unit_on = {u.atom_coordinate: u.index for u in iso.units}
        assert sorted(unit_on) == [0, 1, 2, 3]
        assert {j: list(w) for j, w in iso.witnesses.items()} == {
            j: [unit_on[j]] for j in range(4)
        }


class TestOneApproximationPerUnit:
    @pytest.mark.parametrize(
        "pres,n_units",
        [
            (StandardPresentation(P1), 8),
            (RotatedPresentation(P32, GaussianRational.parse("3/5+4/5i")), 4),
            (AdversarialPresentation(CeSet.explicit([2, 5]), P1), 4),
        ],
        ids=["standard-p1-u8", "rotated-p3/2-u4", "adversarial-p1-u4"],
    )
    def test_every_certificate_reads_the_peek_approximation(self, pres, n_units, monkeypatch):
        # the norm, pairwise and witness checks read each unit at the atom
        # peek's precision, so each unit's approximator is asked exactly once
        asked = {}
        normalize = iso_cli._normalize

        def counting_normalize(vec, cert_bits):
            unit = normalize(vec, cert_bits)
            inner = unit._approx
            precs = asked[id(unit)] = []

            def counted(k):
                precs.append(k)
                return inner(k)

            unit._approx = counted
            return unit

        monkeypatch.setattr(iso_cli, "_normalize", counting_normalize)
        iso = synthesize_isometry(pres, n_units)
        peek_prec = max(iso.generation_bits, iso.pairwise_sigma1_bits) + 8
        assert len(asked) == n_units
        assert [asked[id(u.vector)] for u in iso.units] == [[peek_prec + 1]] * n_units
        # apply reads the raw unit, at a precision below the peek's
        unit = iso.units[0].vector
        apply_isometry(iso, FinSuppVector.basis(0), 4)
        assert len(asked[id(unit)]) == 2 and asked[id(unit)][1] < peek_prec + 1


class TestSharedWork:
    def test_no_power_memo_left_on_the_exponent(self):
        # conftest.P1 is shared by many tests: a memo left open would leak
        # enclosures from one test into the next
        from conftest import P1 as SHARED_P1
        from lpiso.lp_vectors import sigma1_vec
        from lpiso.scalar_core import sigma_scalar

        synthesize_isometry(StandardPresentation(SHARED_P1), 4)
        assert SHARED_P1._pow_memo is None
        z, w = GaussianRational.of(Fraction(3, 2), 1), GaussianRational.of(Fraction(1, 3))
        f = FinSuppVector({0: z, 1: w})
        g = FinSuppVector({1: z, 2: w})
        sigma_scalar(z, w, SHARED_P1, 20)
        norm_p(f, SHARED_P1, 20)
        sigma1_vec(f, g, SHARED_P1, 20)
        assert SHARED_P1._pow_memo is None

    def test_pairwise_phase_reads_each_unit_norm_once_per_precision(self, monkeypatch):
        # every norm the pairwise phase reads goes through _rounded_norm; the
        # units reach it as the views synthesize_isometry hands in
        queries = []
        views = []

        def spy_norm(vec, k):
            queries.append((id(vec), k))
            return rounded_norm(vec, k)

        def spy_pairwise(units, pres, cert_bits):
            views.extend(units)
            return certify_pairwise(units, pres, cert_bits)

        rounded_norm = iso_cli._rounded_norm
        certify_pairwise = iso_cli._certify_pairwise
        monkeypatch.setattr(iso_cli, "_rounded_norm", spy_norm)
        monkeypatch.setattr(iso_cli, "_certify_pairwise", spy_pairwise)
        synthesize_isometry(StandardPresentation(P1), 4)
        assert len(views) == 4
        unit_ids = {id(v) for v in views}
        unit_queries = [q for q in queries if q[0] in unit_ids]
        # every unit takes part in pairs, each (unit, precision) is read once
        assert {uid for uid, _ in unit_queries} == unit_ids
        assert len(unit_queries) == len(set(unit_queries))

    def test_power_memo_closed_when_the_pairwise_check_fails(self, monkeypatch):
        pres = StandardPresentation(PExponent.from_fraction(1))
        memo_open = []

        def spy_sigma1(*args, **kwargs):
            memo_open.append(pres.p._pow_memo is not None)
            return sigma1(*args, **kwargs)

        sigma1 = iso_cli.sigma1_from_norms
        monkeypatch.setattr(iso_cli, "sigma1_from_norms", spy_sigma1)
        with pytest.raises(PrecisionExhaustedError, match="units 0, 1"):
            iso_cli._certify_pairwise(_overlapping_units(pres, 1), pres, 12)
        assert memo_open == [True]
        assert pres.p._pow_memo is None

    def test_oracle_sees_short_dyadic_coefficients(self, monkeypatch, capsys):
        # the pairwise check must not hand the oracle the units' long
        # rationals: every coefficient it sends is a dyadic with at most
        # k + 8 fractional bits at oracle precision k, whatever the unit.
        # Queries made while a unit computes an approximation (its
        # normalization) are the unit's own and are not counted.
        seen = []
        in_pairwise = []
        in_approx = []

        def spy_pairwise(*args):
            in_pairwise.append(True)
            try:
                return certify_pairwise(*args)
            finally:
                in_pairwise.pop()

        def spy_approx(self, k):
            in_approx.append(True)
            try:
                return approx(self, k)
            finally:
                in_approx.pop()

        def spy_norm_approx(self, combo, k):
            if in_pairwise and not in_approx:
                seen.append((combo, k))
            return norm_approx(self, combo, k)

        certify_pairwise = iso_cli._certify_pairwise
        approx = ComputableVector.approx
        norm_approx = StandardPresentation.norm_approx
        monkeypatch.setattr(iso_cli, "_certify_pairwise", spy_pairwise)
        monkeypatch.setattr(ComputableVector, "approx", spy_approx)
        monkeypatch.setattr(StandardPresentation, "norm_approx", spy_norm_approx)
        assert main(["synthesize", "--units", "16"]) == 0
        capsys.readouterr()
        # all 16 unit norms and 120 pairs' a - b, a + b, at least once
        assert len(seen) >= 16 + 2 * 120
        for combo, k in seen:
            for z in combo.entries.values():
                for part in (z.re, z.im):
                    den = part.denominator
                    assert den & (den - 1) == 0, f"{part} is not dyadic"
                    assert den <= 2 ** (k + 8), f"{part} is too long at k={k}"


# a perturbation that gives a coefficient more than 200 bits
_LONG = Fraction(1, 3**130)


def _overlapping_units(pres, first, overlap=Fraction(1, 2**10)):
    """Units on generators first and first + 1 that share `overlap`
    of generator first, with coefficients of more than 200 bits."""
    a = GenCombo({first: GaussianRational.of(1 - _LONG)})
    b = GenCombo(
        {
            first: GaussianRational.of(overlap + _LONG),
            first + 1: GaussianRational.of(1 - overlap - _LONG),
        }
    )
    return [ComputableVector.constant(combo, pres) for combo in (a, b)]


class _SkewedStandard(StandardPresentation):
    """The standard oracle at p = 1, off by almost its whole allowance of
    2^-k: low when side is "hi" (pushing the true norm to the top of an
    enclosure), high when side is "lo"."""

    def __init__(self, side):
        super().__init__(P1)
        self.side = side

    def norm_approx(self, combo, k):
        tight = norm_p(FinSuppVector(combo.entries), self.p, k + 60)
        slack = _width_target(k) - _width_target(k + 30)
        return tight.lo - slack if self.side == "hi" else tight.hi + slack


def _long_combo_case(case):
    """(presentation, combination with 200+-bit coefficients, k -> a tight
    enclosure of the combination's true norm)."""
    if case == "standard-p1":
        pres = StandardPresentation(P1)
        combo = GenCombo(
            {
                0: GaussianRational.of(Fraction(1, 3) + _LONG),
                2: GaussianRational.of(Fraction(-5, 7) - _LONG),
                3: GaussianRational.of(Fraction(1, 2**9) + _LONG),
            }
        )
        exact = sum(abs(z.re) for z in combo.entries.values())
        return pres, combo, lambda k: DyadicInterval.point(exact)
    if case == "rotated-p3/2":
        pres = RotatedPresentation(P32, GaussianRational.parse("3/5+4/5i"))
        combo = GenCombo(
            {
                0: GaussianRational.of(Fraction(2, 3) + _LONG, Fraction(-1, 5) - _LONG),
                1: GaussianRational.of(-_LONG, Fraction(3, 11) + _LONG),
            }
        )
        return pres, combo, lambda k: norm_p(FinSuppVector(combo.entries), P32, k + 40)
    pres = AdversarialPresentation(CeSet.explicit([2, 5]), P1)
    combo = GenCombo(
        {
            0: GaussianRational.of(Fraction(3, 4) + _LONG),
            1: GaussianRational.of(Fraction(-1, 3) - _LONG),
            3: GaussianRational.of(Fraction(1, 7) + _LONG, _LONG),
        }
    )
    return pres, combo, lambda k: pres.norm_enclosure(combo, k + 40)


class TestRoundedNorm:
    """The pairwise phase's norm: an enclosure of the true norm, width at
    most 2^-k, although the oracle sees a dyadic rounding."""

    @pytest.mark.parametrize("k", [6, 14, 20])
    @pytest.mark.parametrize("case", ["standard-p1", "rotated-p3/2", "adversarial-p1"])
    def test_encloses_the_norm(self, case, k):
        pres, combo, tight_norm = _long_combo_case(case)
        assert max(
            part.denominator.bit_length()
            for z in combo.entries.values()
            for part in (z.re, z.im)
        ) > 200
        # approximations off by a third of their allowance on f_0, a
        # generator of norm 1 in all three presentations
        vec = ComputableVector(
            lambda kk: combo + GenCombo({0: GaussianRational.of(Fraction(1, 3 * 2**kk))}),
            pres,
        )
        enc = iso_cli._rounded_norm(vec, k)
        tight = tight_norm(k)
        assert enc.lo <= tight.lo and tight.hi <= enc.hi
        assert enc.width <= _width_target(k)

    @pytest.mark.parametrize("grid", ["own", "coarser"])
    @pytest.mark.parametrize("side", ["hi", "lo"])
    def test_encloses_the_norm_when_every_error_lines_up(self, side, grid):
        # a legal oracle and an approximation that each use almost their
        # whole allowance, and coefficients along 1 + i that the rounding
        # (at its own grid, or one step coarser) moves by almost half a
        # step in both parts, all pushing the true norm to one end of the
        # enclosure: a grid one step too coarse, or a missing rounding
        # pad, leaves the norm outside
        k, n = 10, 7
        pres = _SkewedStandard(side)
        m = k + 3 + ceil_log2(sum(pres.generator_norm_bound(j) for j in range(n)))
        g = m if grid == "own" else m - 1
        s = 1 if side == "hi" else -1
        # just below (s = 1) or above (s = -1) an odd multiple of 2^-(g+1),
        # so rounding to 2^-g shrinks (grows) every coefficient
        approx = {
            j: (Fraction((j + 1) << (g - 3)) + Fraction(1, 2) - s * _LONG) / 2**g
            for j in range(n)
        }
        # the true vector lies (1 - _LONG) r sqrt(2) 2^-(k+2) away along
        # 1 + i, r < 1/sqrt(2): approx(k + 2) is within its allowance
        eps = Fraction(7071067, 10**7) * (1 - _LONG) / (n * 2 ** (k + 2))

        def along_diagonal(coeffs):
            return GenCombo({j: GaussianRational.of(a, a) for j, a in coeffs.items()})

        approx_combo = along_diagonal(approx)
        true_combo = along_diagonal({j: a + s * eps for j, a in approx.items()})
        vec = ComputableVector(
            lambda kk: approx_combo if kk == k + 2 else true_combo, pres
        )
        enc = iso_cli._rounded_norm(vec, k)
        tight = norm_p(FinSuppVector(true_combo.entries), P1, k + 60)
        assert enc.lo <= tight.lo and tight.hi <= enc.hi
        assert enc.width <= _width_target(k)

    @pytest.mark.parametrize(
        "pres,first",
        [
            (StandardPresentation(P1), 0),
            (AdversarialPresentation(CeSet.explicit([2, 5]), P1), 1),
        ],
        ids=["standard-p1", "adversarial-p1"],
    )
    def test_overlap_of_2_to_minus_10_is_refused(self, pres, first):
        # sigma1 of the pair is about 2^-9, above the 2^-12 the check allows
        iso_cli._certify_pairwise(_overlapping_units(pres, first, Fraction(0)), pres, 12)
        with pytest.raises(PrecisionExhaustedError, match="units 0, 1"):
            iso_cli._certify_pairwise(_overlapping_units(pres, first), pres, 12)



class TestExactNormLane:
    def test_standard_p1_oracle_queries_reach_no_norm_power(self, monkeypatch, capsys):
        # every standard p = 1 query is a real combination, so norm_p
        # answers it with one exact sum and never enters the refine loops
        oracle = StandardPresentation.norm_approx
        norm_power = lp_vectors.norm_power_p
        seen = {"queries": 0, "norm_power": 0}
        inside = []

        def counted_oracle(self, combo, k):
            seen["queries"] += 1
            inside.append(combo)
            try:
                return oracle(self, combo, k)
            finally:
                inside.pop()

        def counted_norm_power(f, p, k):
            if inside:
                seen["norm_power"] += 1
            return norm_power(f, p, k)

        monkeypatch.setattr(StandardPresentation, "norm_approx", counted_oracle)
        monkeypatch.setattr(lp_vectors, "norm_power_p", counted_norm_power)
        code = main(["synthesize", "--units", "8", "--pres", '{"type":"standard","p":"1"}'])
        assert code == 0 and json.loads(capsys.readouterr().out)["status"] == "ok"
        assert seen["queries"] > 0
        assert seen["norm_power"] == 0


class TestChainLimitStatus:
    """synthesize_isometry skips a zero chain limit and a provisional one;
    a provisional limit taints the result."""

    @staticmethod
    def limits_with(monkeypatch, statuses):
        """chain_limit reporting `statuses` on the first chains, with the
        real limits following that many chains later.  Over the standard
        presentation chain c carries coordinate c, so the shifted units
        still cover every generator the witnesses ask for."""
        real = iso_cli.chain_limit

        def chain_limit(source, partition, cid, k):
            if cid < len(statuses):
                lim = real(source, partition, 0, k)
                return ChainLimit(lim.vector, lim.norm_power, statuses[cid])
            return real(source, partition, cid - len(statuses), k)

        monkeypatch.setattr(iso_cli, "chain_limit", chain_limit)

    def test_zero_limit_is_skipped(self, monkeypatch):
        # standard p = 1 at 2 units builds 3 stages and 4 chains
        self.limits_with(monkeypatch, ["zero"])
        iso = synthesize_isometry(StandardPresentation(P1), 2)
        assert [(u.index, u.chain_id, u.atom_coordinate) for u in iso.units] == [(0, 1, 0), (1, 2, 1)]
        assert iso.provisional is False

    def test_provisional_limit_is_skipped_and_taints(self, monkeypatch, capsys):
        self.limits_with(monkeypatch, ["provisional"])
        iso = synthesize_isometry(StandardPresentation(P1), 2)
        assert [(u.chain_id, u.atom_coordinate) for u in iso.units] == [(1, 0), (2, 1)]
        assert iso.provisional is True
        code = main(["synthesize", "--units", "2", "--pres", '{"type":"standard","p":"1"}'])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["status"], out["result"]["provisional"]) == (2, "provisional", True)
        assert [u["chain"] for u in out["result"]["units"]] == [1, 2]

    def test_too_few_units_left(self, monkeypatch):
        # 4 chains, 3 of them skipped: one unit for two requested
        self.limits_with(monkeypatch, ["zero", "provisional", "zero"])
        with pytest.raises(BudgetExhaustedError, match="only 1 nonzero chain limits at 2 stages") as info:
            synthesize_isometry(StandardPresentation(P1), 2)
        assert info.value.budget == 2


class TestHomPrecisionBound:
    def test_huge_exponent_ends_in_the_documented_error(self):
        # the hom test works at about ceil(p) (radius_bits + 4) bits, which
        # at p = 1000 passes MAX_WORKING_PREC; before the bound this run
        # raised long rationals to the 1000th power for minutes
        proc = subprocess.run(
            [sys.executable, "-m", "lpiso.iso_cli", "synthesize", "--units", "2",
             "--pres", '{"type":"standard","p":"1e3"}'],
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=5,
        )
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout) == {
            "command": "synthesize",
            "status": "error",
            "error": {
                "type": "PrecisionExhaustedError",
                "message": "the hom test's working precision passes MAX_WORKING_PREC = 8192 bits",
            },
        }


class TestHugeIntegerExponent:
    """A huge integer --p ends in the documented JSON error: an exact power
    past MAX_EXACT_POWER_BITS is refused before it is built, and a figure
    past Python's int-to-str digit limit is InvalidInputError."""

    @pytest.mark.parametrize("command", ["sigma", "lamperti-check"])
    @pytest.mark.parametrize(
        "p, error, message",
        [
            # used to end in a traceback: the exact 3**10000 has 4772 digits
            ("1e4", "InvalidInputError",
             "-bit figure is past the 4300-digit limit for printing an integer"),
            # used to hang building 2**(10**2466)
            ("1e2466", "PrecisionExhaustedError",
             "an exact power passes MAX_EXACT_POWER_BITS = 1048576 bits"),
        ],
        ids=["print-limit", "exact-power-bound"],
    )
    def test_documented_error(self, capsys, command, p, error, message):
        start = time.perf_counter()
        code = main([command, "--p", p, "--z", "2", "--w", "1"])
        assert time.perf_counter() - start < 10
        out = json.loads(capsys.readouterr().out)
        assert (code, out["status"], out["error"]["type"]) == (1, "error", error)
        assert out["error"]["message"].endswith(message)

    @pytest.mark.parametrize("p", ["10", "30"])
    def test_large_exponents_still_synthesize(self, capsys, p):
        code = main(["synthesize", "--units", "2", "--pres", f'{{"type":"standard","p":"{p}"}}'])
        assert code == 0 and json.loads(capsys.readouterr().out)["status"] == "ok"


_STANDARD_AND_ROTATED = [
    '{"type":"standard","p":"1"}',
    '{"type":"standard","p":"3/2"}',
    '{"type":"standard","p":"3"}',
    '{"type":"rotated","p":"3","zeta":"3/5+4/5i"}',
]


class TestChainsSpareStages:
    """chains builds the spare stages synthesize builds, so one or two
    requested stages still answer the chain searches' stage bounds."""

    @pytest.mark.parametrize("stages", [1, 2])
    @pytest.mark.parametrize(
        "pres", _STANDARD_AND_ROTATED, ids=["std-p1", "std-p3/2", "std-p3", "rot-p3"]
    )
    def test_few_stages(self, capsys, pres, stages):
        code = main(["chains", "--stages", str(stages), "--pres", pres])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, out
        assert out["inputs"]["stages"] == stages
        assert out["result"]["limits"]

    def test_both_commands_build_alike(self, monkeypatch, capsys):
        built = []
        build = iso_cli.build_disintegration

        def recording(pres, n_target):
            built.append(n_target)
            return build(pres, n_target)

        monkeypatch.setattr(iso_cli, "build_disintegration", recording)
        for count in (1, 2, 4):
            assert main(["chains", "--stages", str(count)]) == 0
            assert main(["synthesize", "--units", str(count)]) == 0
        capsys.readouterr()
        assert built == [3, 3, 3, 3, 4, 4]


_ERROR_TYPES = {
    name for name, cls in vars(lpiso.errors).items()
    if isinstance(cls, type) and issubclass(cls, lpiso.errors.LpisoError)
}
_P_VALUES = st.one_of(
    st.sampled_from(
        ["1", "3/2", "3", "7/3", "1e0", "1e3", "1e2466", "1e99999", "1e-3", "2", "0", "-1",
         "-3/2", "1/2", "1/0", "abc", "", " 3 "]
    ),
    st.integers(-2, 4),
    st.floats(min_value=-4, max_value=4),
    st.sampled_from([None, True, [1], {"p": "1"}]),
)
_ZETAS = st.sampled_from(["3/5+4/5i", "-1", "i", "12/13-5/13i", "2", "1/0i", "0", "x", 1, None])
_CES = st.sampled_from(
    [
        {"kind": "explicit", "elements": [2]},
        {"kind": "explicit", "elements": []},
        {"kind": "explicit", "elements": [-1]},
        {"kind": "explicit", "elements": [0]},
        {"kind": "explicit", "elements": "x"},
        {"kind": "explicit"},
        {"kind": "odd"},
        {"kind": ["explicit"], "elements": [1]},
        {"kind": "explicit", "elements": [1], "extra": 1},
        "explicit",
        None,
    ]
)
_DESCRIPTORS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.sampled_from(["standard", "rotated", "adversarial", "triangular", 3, None])},
        optional={"p": _P_VALUES, "zeta": _ZETAS, "ce": _CES, "extra": st.integers(0, 2)},
    ).map(json.dumps),
    st.sampled_from(["", "{", "[]", "null", "3", '"standard"', "@no-such-file.json"]),
)
_FLAGS = st.lists(
    st.sampled_from(
        [["--p", "3/2"], ["--p", "1e3"], ["--p", "1/0"], ["--p", "-2"], ["--k", "x"],
         ["--k", "-1"], ["--k", "99999"], ["--cert-bits", "99999"], ["--generation-bits", "0"],
         ["--bogus"]]
    ),
    max_size=2,
)


_COMMANDS = st.sampled_from(
    [("synthesize", "--units"), ("disintegrate", "--stages"), ("chains", "--stages")]
)
_WELL_FORMED = [
    {"type": "rotated", "p": "3", "zeta": "3/5+4/5i"},
    {"type": "adversarial", "p": "1", "ce": {"elements": [2]}},
    {"type": "adversarial", "p": "3/2", "ce": {"kind": "named", "name": "odds"}},
]
_NEEDED_KEYS = ("zeta", "ce", "elements", "name")


@st.composite
def _missing_key_descriptors(draw):
    """A well-formed descriptor with one key that it or its set needs
    dropped (`p` is not needed: the command's --p default stands in)."""
    desc = json.loads(json.dumps(draw(st.sampled_from(_WELL_FORMED))))
    holder = draw(st.sampled_from([desc, desc.get("ce", desc)]))
    del holder[draw(st.sampled_from([key for key in _NEEDED_KEYS if key in holder]))]
    return json.dumps(desc)


# huge integer exponents, written in decimal-exponent and in plain form,
# on both sides of MAX_EXACT_POWER_BITS
_HUGE_P = st.sampled_from(
    ["1e4", "3e4", "1e5", "1e6", "1e9", "1e2466", "9e2466", str(10**4 + 1), str(10**6 + 1),
     str(10**2466 + 1)]
)
_SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2", "i", "1+i", "3/2+1/3i"])


class TestCliEdges:
    """Malformed descriptors and argv end in a report or the documented
    JSON error, never a traceback, and in bounded time; sizes stay at two
    units or stages."""

    @staticmethod
    def assert_documented(argv) -> dict:
        name = argv[0]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert time.perf_counter() - start < 10, argv
        report = json.loads(out.getvalue())
        assert report["command"] == name
        if code == 1:
            assert report["status"] == "error", argv
            assert set(report["error"]) == {"type", "message"}
            assert report["error"]["type"] in _ERROR_TYPES
        else:
            # 2 is the documented provisional report
            assert (code, report["status"]) in ((0, "ok"), (2, "provisional")), argv
            assert "result" in report
        return report

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(command=_COMMANDS, size=st.sampled_from(["1", "2"]), pres=_DESCRIPTORS)
    @example(command=("synthesize", "--units"), size="2", pres='{"type":"standard","p":"1e3"}')
    @example(command=("chains", "--stages"), size="1", pres='{"type":"standard","p":"1e2466"}')
    def test_malformed_descriptor(self, command, size, pres):
        self.assert_documented([command[0], command[1], size, "--pres", pres])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command=_COMMANDS,
        size=st.sampled_from(["0", "1", "2", "-1", "x", "1.5", "+2", " 1"]),
        pres=st.sampled_from(['{"type":"standard"}', '{"type":"rotated","zeta":"-1"}']),
        flags=_FLAGS,
    )
    def test_malformed_argv(self, command, size, pres, flags):
        argv = [command[0], command[1], size, "--pres", pres]
        self.assert_documented(argv + [arg for flag in flags for arg in flag])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(command=_COMMANDS, size=st.sampled_from(["1", "2"]), pres=_missing_key_descriptors())
    def test_missing_descriptor_key(self, command, size, pres):
        report = self.assert_documented([command[0], command[1], size, "--pres", pres])
        assert report["error"]["type"] == "InvalidInputError"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["sigma", "lamperti-check"]),
        p=_HUGE_P,
        z=_SCALARS,
        w=_SCALARS,
    )
    def test_huge_integer_exponent(self, command, p, z, w):
        self.assert_documented([command, "--p", p, "--z", z, "--w", w, "--k", "20"])
