"""The exact routes for Kaehler forms in degree 2 and codegree 2, checked
against the tangential ascent and the sampled membership they replace there,
and against closed forms computed here from `complex_structure`."""

import json

import numpy as np
import pytest

import calibr.cli
import calibr.cones
import calibr.grassmann
from calibr.calibrations import Calibration, catalogue, complex_structure
from scipy.optimize import linprog

from calibr.cli import main
from calibr.cones import cone_membership, mass_norm_estimate
from calibr.exterior import (ExteriorElement, SimplePlane, form_to_json,
                             hodge_star, lex_indices, pairing,
                             simple_from_frame, wedge)
from calibr.fields import builtin_field, quadratic_field
from calibr.grassmann import (FormEvaluator, PlaneSampleSet,
                              _ascent_source, _collect_planes,
                              _tangential_extremum,
                              constrained_extremum,
                              kaehler_matrix, kaehler_planes,
                              kaehler_structure, pullback, random_plane_set,
                              sample_grassmannian)
from calibr.hessian import phi_flat_check, psh_classify
from test_grassmann import BLOCK_FORMS, block_form

KAEHLER = [(2, 1), (3, 1), (3, 2)]


def random_form(n, p, rng):
    return ExteriorElement(n, p, {idx: rng.standard_normal()
                                  for idx in lex_indices(n, p)})


def min_over_lines(alpha, m):
    """min of alpha over the complex lines of C^m (over their complements
    for a (2m-2)-form): lambda_min(sym(A J)) with J from
    `complex_structure`."""
    return float(np.linalg.eigvalsh(
        kaehler_matrix(alpha, complex_structure(m)))[0])


def force_sampled_route(monkeypatch):
    """Send every later cone query down the tangential and sampled routes,
    which it takes once kaehler_structure finds nothing."""
    for mod in (calibr.cones, calibr.grassmann):
        monkeypatch.setattr(mod, "kaehler_structure", lambda phi: None)


def complex_plane(cal, v):
    """The phi-plane of the complex line of v's projection to the top
    block E."""
    J, E = kaehler_structure(cal.form)
    v = np.asarray(v, dtype=float) @ E.T @ E
    return SimplePlane(kaehler_planes((v / np.linalg.norm(v))[None], J,
                                      cal.form)[0].T)


def member(cal, rng):
    """A positive sum of three complex lines (or complex hyperplanes), as
    the benchmark's positivity workload builds its members."""
    out = ExteriorElement.zero(cal.n, cal.p)
    for w in rng.uniform(0.5, 1.5, 3):
        line = complex_plane(cal, rng.standard_normal(cal.n))
        out = out + w * line.pvector()
    return out


def non_member(cal, rng):
    return member(cal, rng) - 5.0 * complex_plane(
        cal, rng.standard_normal(cal.n)).pvector()


class TestDetection:
    @pytest.mark.parametrize("nc,power", KAEHLER)
    def test_structure_matches_catalogue_convention(self, nc, power):
        J, E = kaehler_structure(catalogue("kaehler", nc, power).form)
        assert np.array_equal(J, complex_structure(nc))
        assert np.array_equal(E, np.eye(2 * nc))

    def test_volume_two_is_kaehler(self):
        J, E = kaehler_structure(catalogue("volume", 2).form)
        assert np.array_equal(J, complex_structure(1))
        assert np.array_equal(E, np.eye(2))

    @pytest.mark.parametrize("name,params", [
        ("cayley", ()), ("associative", ()),
        ("coassociative", ()), ("special_lagrangian", (3,)),
        ("quaternionic", (1,)), ("volume", (3,)), ("volume", (4,)),
        ("kaehler", (2, 2))])
    def test_other_forms_rejected(self, name, params):
        assert kaehler_structure(catalogue(name, *params).form) is None

    def test_detected_from_the_form_not_the_name(self):
        # 2 omega has the same name's planes but is not a calibration
        assert kaehler_structure(2.0 * catalogue("kaehler", 2, 1).form) is None


class TestExtremumAgainstPenalty:
    @pytest.mark.parametrize("nc,power", KAEHLER)
    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_agrees_with_penalty_ascent(self, nc, power, mode):
        cal = catalogue("kaehler", nc, power)
        ss = sample_grassmannian(cal, count=20, seed=4)
        alpha = random_form(cal.n, cal.p, np.random.default_rng(7))
        exact = constrained_extremum(alpha, cal, ss, mode)
        ref = _tangential_extremum(alpha, cal, ss, mode, starts_limit=4,
                                   extra_starts=2)
        assert exact.exact and not ref.exact
        # the polished witness may sit 1e-8 off G(phi), where phi is still
        # one to rounding, so it can beat the exact value by as much
        assert abs(exact.value - ref.value) < 1e-6
        U = exact.plane.frame.T
        assert abs(FormEvaluator(cal.form).value(U) - 1.0) < 1e-12
        assert abs(exact.phi_value - 1.0) < 1e-12
        assert abs(FormEvaluator(alpha).value(U) - exact.value) < 1e-12
        if mode == "min":
            assert abs(exact.value - min_over_lines(alpha, nc)) < 1e-12

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_volume_two(self, mode):
        # G(e12) on R^2 is the one plane e12, a complex line of C^1
        cal = catalogue("volume", 2)
        ss = sample_grassmannian(cal, count=1, seed=1)
        alpha = ExteriorElement(2, 2, {(1, 2): -0.7})
        res = constrained_extremum(alpha, cal, ss, mode)
        assert res.exact and res.value == -0.7 and res.phi_value == 1.0
        ref = _tangential_extremum(alpha, cal, ss, mode)
        assert abs(res.value - ref.value) < 1e-9


class TestSampleAgainstAscent:
    def test_ascended_planes_are_complex_lines(self):
        # the sample of a Kaehler form is drawn as complex lines; the
        # ascent finds them too (criterion 3 before the draw)
        cal = catalogue("kaehler", 2, 1)
        ss = _collect_planes(cal, _ascent_source(cal, 1729), 1e-6, 100)
        assert len(ss) == 100 and not ss.exact
        J = complex_structure(2)
        for pl in ss.planes:
            sing = np.linalg.svd(pl.frame @ (pl.frame @ J.T).T,
                                 compute_uv=False)
            assert np.arccos(np.clip(sing.min(), -1.0, 1.0)) <= 1e-3


class TestMembershipAgainstSampled:
    def verdicts(self, cal, xs, ss, monkeypatch):
        """Reports on the exact route, then on the sampled route."""
        exact = [cone_membership(xi, cal, ss, seed=3) for xi in xs]
        force_sampled_route(monkeypatch)
        sampled = [cone_membership(xi, cal, ss, seed=3) for xi in xs]
        return exact, sampled

    @staticmethod
    def check_certificate(cal, xi, rep):
        recon = ExteriorElement.zero(cal.n, cal.p)
        cert = rep.certificate
        for w, pl in zip(cert["weights"], cert["planes"]):
            assert w > 0.0
            assert abs(pairing(cal.form, pl.pvector()) - 1.0) < 1e-12
            recon = recon + w * pl.pvector()
        assert (recon - xi).norm() < 1e-10

    def test_kaehler_2_1(self, monkeypatch):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=40, seed=5)
        rng = np.random.default_rng(2)
        xs = [member(cal, rng) for _ in range(2)]
        xs += [non_member(cal, rng) for _ in range(2)]
        exact, sampled = self.verdicts(cal, xs, ss, monkeypatch)
        for xi, ex, sm in zip(xs, exact, sampled):
            assert ex.meta["exact"] and not sm.meta["exact"]
            assert (ex.status == "Outside") == (sm.status == "Outside")
            # the sampled cone lies inside the exact one
            assert ex.meta["residual"] <= sm.meta["residual"] + 1e-12
            if ex.status != "Outside":
                self.check_certificate(cal, xi, ex)
        assert [ex.status for ex in exact].count("Outside") == 2

    @pytest.mark.parametrize("nc,power", [(3, 1), (3, 2)])
    def test_three_complex_dimensions(self, nc, power, monkeypatch):
        # the sampled route costs seconds here, so it decides one
        # non-member; members are checked against P = X J directly
        cal = catalogue("kaehler", nc, power)
        ss = sample_grassmannian(cal, count=20, seed=5)
        rng = np.random.default_rng(4)
        for xi in (member(cal, rng), member(cal, rng)):
            rep = cone_membership(xi, cal, ss)
            assert rep.status == "Interior" and rep.meta["exact"]
            assert len(rep.meta["planes"]) == nc
            self.check_certificate(cal, xi, rep)
            lam_min = min_over_lines(xi, nc)
            assert abs(rep.margin - lam_min / xi.norm()) < 1e-12
        exact, sampled = self.verdicts(cal, [non_member(cal, rng)], ss,
                                       monkeypatch)
        assert exact[0].status == sampled[0].status == "Outside"
        assert exact[0].meta["residual"] <= sampled[0].meta["residual"] + 1e-12

    def test_volume_two(self, monkeypatch):
        cal = catalogue("volume", 2)
        ss = sample_grassmannian(cal, count=1, seed=1)
        xs = [ExteriorElement(2, 2, {(1, 2): 2.0}),
              ExteriorElement(2, 2, {(1, 2): -1.0})]
        exact, sampled = self.verdicts(cal, xs, ss, monkeypatch)
        assert [r.status for r in exact] == [r.status for r in sampled] \
            == ["Interior", "Outside"]
        assert abs(exact[0].margin - 1.0) < 1e-12
        assert np.allclose(exact[0].certificate["weights"], [2.0], rtol=1e-12)
        sep = exact[1].meta["separating_form"]
        assert (sep - ExteriorElement.basis(2, (1, 2))).norm() < 1e-12
        assert abs(exact[1].meta["separating_min"].value - 1.0) < 1e-12


class TestSampledRouteOnOmega:
    """The sampled membership LP and the tangential ascent on kaehler(2,1),
    checked as tests/test_cones.py and tests/test_ascent.py checked them
    before omega took the exact route."""

    @pytest.fixture(scope="class")
    def omega(self):
        return catalogue("kaehler", 2, 1)

    @pytest.fixture(scope="class")
    def ss_omega(self, omega):
        return sample_grassmannian(omega, tol=1e-6, count=40, seed=5)

    @pytest.mark.parametrize("picks", [(0,), (0, 1), (2, 3, 5), range(40)])
    def test_margin_matches_highs(self, omega, ss_omega, picks, monkeypatch):
        force_sampled_route(monkeypatch)
        xi = ExteriorElement.zero(4, 2)
        for k in picks:
            xi = xi + (1.0 + 0.1 * k) * ss_omega.planes[k].pvector()
        rep = cone_membership(xi, omega, ss_omega)
        assert not rep.meta["exact"]
        A = np.column_stack([pl.pvector().to_coeff_vector()
                             for pl in rep.meta["planes"]])
        recon = A @ rep.meta["weights"]
        # max t subject to A (d + t 1) = recon, d >= 0, t >= 0
        m = A.shape[1]
        c = np.append(np.zeros(m), -1.0)
        ref = linprog(c, A_eq=np.column_stack([A, A.sum(axis=1)]),
                      b_eq=recon, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(rep.margin - (-ref.fun) / xi.norm()) <= 1e-9

    @pytest.mark.parametrize("make_xi, status, lo, hi", [
        (lambda ss: ExteriorElement(4, 2, {(1, 2): 1.0, (3, 4): 1.0}),
         "Interior", 1e-3, np.inf),
        (lambda ss: 0.5 * (ss.planes[0].pvector() + ss.planes[1].pvector()),
         "Interior", 1e-6, np.inf),
        (lambda ss: ss.planes[0].pvector(), "Boundary", -1e-6, 1e-6),
    ], ids=["e12+e34", "midpoint", "atom"])
    def test_relative_interior_split(self, omega, ss_omega, make_xi, status,
                                     lo, hi, monkeypatch):
        force_sampled_route(monkeypatch)
        rep = cone_membership(make_xi(ss_omega), omega, ss_omega)
        assert not rep.meta["exact"]
        assert rep.status == status
        assert lo <= rep.margin <= hi

    def test_random_simple_verdicts(self, omega, ss_omega, monkeypatch):
        # eq. 2.4: a unit simple 2-vector is a member iff phi(xi) is 1
        rng = np.random.default_rng(31)
        xs = [simple_from_frame(rng.standard_normal((2, 4)))[1]
              for _ in range(3)]
        exact = [cone_membership(xi, omega, ss_omega) for xi in xs]
        force_sampled_route(monkeypatch)
        for xi, ex in zip(xs, exact):
            sm = cone_membership(xi, omega, ss_omega)
            member = abs(pairing(omega.form, xi) - 1.0) <= 1e-6
            assert (sm.status != "Outside") == (ex.status != "Outside") \
                == member

    def test_nothing_stranded(self, omega):
        ss = sample_grassmannian(omega, count=20, seed=4)
        res = _tangential_extremum(omega.form, omega, ss, "min",
                                   starts_limit=8)
        assert res.stranded == 0 and not res.exact
        assert abs(res.value - 1.0) < 1e-9


class TestSeparatingForm:
    @pytest.mark.parametrize("nc,power", KAEHLER)
    def test_exact_route(self, nc, power):
        cal = catalogue("kaehler", nc, power)
        ss = sample_grassmannian(cal, count=10, seed=5)
        rng = np.random.default_rng(9)
        for _ in range(3):
            xi = non_member(cal, rng)
            rep = cone_membership(xi, cal, ss)
            assert rep.status == "Outside" and rep.certificate is None
            sep = rep.meta["separating_form"]
            assert abs(sep.norm() - 1.0) < 1e-12
            assert pairing(sep, xi) < 0.0
            # -r pairs with xi to -|r|^2: r is orthogonal to its projection
            assert abs(pairing(sep, xi) + rep.meta["residual"] * xi.norm()) \
                < 1e-9 * xi.norm()
            found = min_over_lines(sep, nc)
            assert found >= -1e-12
            assert rep.meta["separating_min"].exact
            assert abs(rep.meta["separating_min"].value - found) < 1e-12

    def test_sampled_route(self):
        # e124 pairs to 0 with the associative form, so it is no member
        cal = catalogue("associative")
        ss = sample_grassmannian(cal, count=10, seed=5)
        xi = ExteriorElement.basis(7, (1, 2, 4))
        rep = cone_membership(xi, cal, ss)
        assert rep.status == "Outside" and not rep.meta["exact"]
        sep = rep.meta["separating_form"]
        assert pairing(sep, xi) < 0.0
        # KKT of the final NNLS: A^T r <= 0 on every atom
        for pl in rep.meta["planes"]:
            assert pairing(sep, pl.pvector()) >= -1e-12
        assert not rep.meta["separating_min"].exact
        # the pricing is attained on G(phi)
        assert abs(rep.meta["separating_min"].phi_value - 1.0) <= 1e-6

    def test_sampled_route_against_lines(self, monkeypatch):
        # the loop's last pricing is the separating_min; on omega it must
        # match the exact minimum over complex lines
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=10, seed=5)
        rng = np.random.default_rng(9)
        xs = [non_member(cal, rng) for _ in range(3)]
        force_sampled_route(monkeypatch)
        for xi in xs:
            rep = cone_membership(xi, cal, ss)
            assert rep.status == "Outside" and not rep.meta["exact"]
            sep = rep.meta["separating_form"]
            assert pairing(sep, xi) < 0.0
            for pl in rep.meta["planes"]:
                assert pairing(sep, pl.pvector()) >= -1e-12
            assert abs(rep.meta["separating_min"].value
                       - min_over_lines(sep, 2)) < 1e-6

    def test_round_cap_reported(self, monkeypatch):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=10, seed=5)
        xi = non_member(cal, np.random.default_rng(9))
        assert cone_membership(xi, cal, ss, max_rounds=0).meta["capped"] \
            is False
        force_sampled_route(monkeypatch)
        rep = cone_membership(xi, cal, ss, max_rounds=0)
        assert rep.status == "Outside" and rep.meta["capped"] is True
        assert rep.meta["separating_min"].value < 0.0


class TestExactLabel:
    def test_positivity_meta(self):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=10, seed=5)
        alpha = random_form(4, 2, np.random.default_rng(1))
        assert calibr.cones.positivity_classify(alpha, cal, ss).meta["exact"]
        assoc = catalogue("associative")
        ss = sample_grassmannian(assoc, count=5, seed=5)
        alpha = random_form(7, 3, np.random.default_rng(1))
        rep = calibr.cones.positivity_classify(alpha, assoc, ss,
                                               starts_limit=4)
        assert rep.meta["exact"] is False

    def test_cli_reports(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): 1.0, (1, 3): 0.4}))))
        path7 = tmp_path / "alpha7.json"
        path7.write_text(json.dumps(form_to_json(
            ExteriorElement(7, 3, {(1, 2, 3): 1.0, (1, 2, 4): 0.4}))))
        for cal, form, exact in (("omega4", path, True),
                                 ("lambda:0.5", path, True),
                                 ("associative", path7, False)):
            main(["positivity", "--form", str(form), "--cal", cal,
                  "--count", "8"])
            assert json.loads(capsys.readouterr().out)["report"]["exact"] \
                is exact
        xi = tmp_path / "xi.json"
        xi.write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): 0.5, (3, 4): 0.5}))))
        assert main(["lemma25", "--pvector", str(xi), "--cal", "omega4",
                     "--count", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["exact"] is True


class TestNoSample:
    """The exact routes read no sample, so an empty one gives the same
    answers, and the CLI draws none for them."""

    @pytest.mark.parametrize("nc,power", KAEHLER)
    def test_cone_queries(self, nc, power):
        cal = catalogue("kaehler", nc, power)
        ss = sample_grassmannian(cal, count=5, seed=3)
        empty = PlaneSampleSet(np.empty((0, cal.n, cal.p)), [], 1e-6, 0)
        rng = np.random.default_rng(5)
        alpha = random_form(cal.n, cal.p, rng)
        for mode in ("min", "max"):
            a = constrained_extremum(alpha, cal, ss, mode)
            b = constrained_extremum(alpha, cal, empty, mode)
            assert a.value == b.value
        a = calibr.cones.positivity_classify(alpha, cal, ss)
        b = calibr.cones.positivity_classify(alpha, cal, empty)
        assert (a.status, a.margin) == (b.status, b.margin)
        assert b.meta["sample_count"] == 0
        for xi in (member(cal, rng), non_member(cal, rng)):
            a = cone_membership(xi, cal, ss)
            b = cone_membership(xi, cal, empty)
            assert (a.status, a.margin) == (b.status, b.margin)
            assert b.meta["sample_count"] == 0

    def test_psh(self):
        cal = catalogue("kaehler", 2, 1)
        empty = PlaneSampleSet(np.empty((0, 4, 2)), [], 1e-6, 0)
        marks = psh_classify(builtin_field("abs_z1_sq", 4), np.zeros((1, 4)),
                             cal, empty)
        assert marks[0].status == "Psh"
        with pytest.raises(ValueError, match="empty sample"):
            psh_classify(builtin_field("normsq", 7), np.zeros((1, 7)),
                         catalogue("associative"),
                         PlaneSampleSet(np.empty((0, 7, 3)), [], 1e-6, 0))

    def test_cli_draws_no_sample(self, capsys, tmp_path, monkeypatch):
        drawn = []
        sample = calibr.grassmann.sample_grassmannian

        def spy(cal, *args, **kwargs):
            drawn.append(cal.name)
            return sample(cal, *args, **kwargs)
        monkeypatch.setattr(calibr.cli.grassmann, "sample_grassmannian", spy)
        alpha = tmp_path / "alpha.json"
        alpha.write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): 1.0, (1, 3): 0.4}))))
        xi = tmp_path / "xi.json"
        xi.write_text(json.dumps(form_to_json(
            ExteriorElement(4, 2, {(1, 2): 0.5, (3, 4): 0.5}))))
        main(["positivity", "--form", str(alpha), "--cal", "omega4"])
        assert json.loads(capsys.readouterr().out)["report"][
            "sample_count"] == 0
        main(["lemma25", "--pvector", str(xi), "--cal", "omega4"])
        main(["psh", "--cal", "omega4", "--field", "builtin:normsq",
              "--probes", "grid:-1..1:2"])
        capsys.readouterr()
        assert drawn == []
        main(["positivity", "--form", str(alpha), "--cal", "lambda:0.5"])
        capsys.readouterr()
        assert drawn == []
        alpha7 = tmp_path / "alpha7.json"
        alpha7.write_text(json.dumps(form_to_json(
            ExteriorElement(7, 3, {(1, 2, 3): 1.0, (1, 2, 4): 0.4}))))
        main(["positivity", "--form", str(alpha7), "--cal", "associative",
              "--count", "8"])
        assert json.loads(capsys.readouterr().out)["report"][
            "sample_count"] == 8
        assert drawn == ["associative"]


class TestBlockRoutes:
    """Calibrations Kaehler on a proper top block E take the exact routes
    too: randomly rotated normal forms on R^5 and R^6 with dim E 2 and 4,
    and their Hodge stars, against the tangential and sampled routes."""

    @pytest.fixture(params=[(case, co) for case in BLOCK_FORMS
                            for co in (False, True)],
                    ids=lambda c: f"n{c[0][0]}-E{c[0][2]}"
                    + ("-star" if c[1] else ""))
    def block(self, request):
        (n, lams, dim), codegree = request.param
        phi, P = block_form(n, lams, 67 + n + dim, codegree)
        cal = Calibration(phi, "block")
        return cal, P, sample_grassmannian(cal, count=12, seed=5)

    def test_extremum_against_the_tangential_route(self, block,
                                                   monkeypatch):
        cal, _, ss = block
        c = np.random.default_rng(7).standard_normal(
            len(lex_indices(cal.n, cal.p)))
        alpha = ExteriorElement.from_coeff_vector(cal.n, cal.p,
                                                  c / np.linalg.norm(c))
        exact = [constrained_extremum(alpha, cal, ss, mode)
                 for mode in ("min", "max")]
        rep = calibr.cones.positivity_classify(alpha, cal, ss)
        assert rep.meta["exact"] and rep.margin == exact[0].value
        force_sampled_route(monkeypatch)
        for sgn, ex in zip((-1.0, 1.0), exact):
            ref = constrained_extremum(alpha, cal, ss, ex.mode)
            assert ex.exact and not ref.exact
            assert abs(ex.value - ref.value) <= 1e-7
            # no less extreme, up to rounding where G(phi) is one plane
            assert sgn * (ex.value - ref.value) >= -1e-12
            U = ex.plane.frame.T
            assert abs(FormEvaluator(cal.form).value(U) - 1.0) < 1e-12
            assert abs(FormEvaluator(alpha).value(U) - ex.value) < 1e-12

    def test_sum_of_lines_is_interior(self, block, monkeypatch):
        cal, _, ss = block
        xi = member(cal, np.random.default_rng(11))
        rep = cone_membership(xi, cal, ss)
        assert rep.status == "Interior" and rep.meta["exact"]
        TestMembershipAgainstSampled.check_certificate(cal, xi, rep)
        force_sampled_route(monkeypatch)
        ref = cone_membership(xi, cal, ss, seed=3)
        assert not ref.meta["exact"] and ref.status != "Outside"

    def test_part_outside_the_block_is_outside(self, block, monkeypatch):
        # a 2-vector w ^ v with w orthogonal to E (its star in codegree 2)
        # is orthogonal to every phi-plane
        cal, P, ss = block
        rng = np.random.default_rng(13)
        out = wedge(ExteriorElement.from_vector(
            rng.standard_normal(cal.n) @ (np.eye(cal.n) - P)),
            ExteriorElement.from_vector(rng.standard_normal(cal.n)))
        xi = member(cal, rng) + (out if cal.p == 2 else hodge_star(out))
        rep = cone_membership(xi, cal, ss)
        assert rep.status == "Outside" and rep.meta["exact"]
        assert rep.meta["separating_min"].exact
        assert rep.meta["separating_min"].value >= -1e-12
        assert pairing(rep.meta["separating_form"], xi) < 0.0
        force_sampled_route(monkeypatch)
        ref = cone_membership(xi, cal, ss, seed=3)
        assert ref.status == "Outside" and not ref.meta["exact"]
        # the sampled cone lies inside the exact one
        assert rep.meta["residual"] <= ref.meta["residual"] + 1e-12

    SWAP = np.eye(6)[:, [1, 0, 2, 3, 4, 5]]

    @pytest.mark.parametrize("cal", [
        catalogue("special_lagrangian", 3),
        Calibration(pullback(catalogue("special_lagrangian", 3).form, SWAP),
                    "sl3swap"),
        Calibration(ExteriorElement(8, 2, {(1, 2): 1.0, (3, 4): 1.0,
                                           (5, 6): 1.0, (7, 8): 0.5}),
                    "e12+e34+e56+0.5e78")], ids=lambda cal: cal.name)
    def test_flatness_against_the_tangential_route(self, cal, monkeypatch):
        # special_lagrangian(3), swapped or not, restricts to a hyperplane
        # as a codegree-2 calibration, Kaehler on a proper block
        B = np.random.default_rng([0, 5, 0]).standard_normal((cal.n, cal.n))
        x = np.random.default_rng(1).standard_normal(cal.n)
        f = quadratic_field(B + B.T)
        rep = phi_flat_check(f, x, cal, seed=1729)
        assert rep.exact and not rep.vacuous
        assert abs(pairing(cal.form, rep.worst_plane.pvector()) - 1.0) \
            < 1e-12
        force_sampled_route(monkeypatch)
        ref = phi_flat_check(f, x, cal, seed=1729)
        assert not ref.exact
        assert abs(rep.worst_value - ref.worst_value) <= 1e-7
        assert abs(rep.worst_value) >= abs(ref.worst_value) - 1e-12


def test_mass_norm_needs_a_round():
    gens = random_plane_set(4, 2, count=10, seed=9)
    with pytest.raises(ValueError, match="max_rounds"):
        mass_norm_estimate(ExteriorElement.basis(4, (1, 2)), gens,
                           max_rounds=0)
