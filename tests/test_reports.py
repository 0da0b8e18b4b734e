"""Every subcommand's report, run as the installed CLI would be.

Each row of REPORTS runs ``python -m calibr.cli`` in two subprocesses,
under PYTHONHASHSEED 1 and 2, each in its own empty directory beside the
input files.  Both must exit with the row's code, print byte-identical
reports and write byte-identical files, and the report must carry the
row's fields: a dotted path into the JSON and its value, compared with its
type, or a type the value must have.  The first run logs its imports
(``-X importtime``); a row that may not load scipy fails on any scipy
module in that log.  The rows share one pool of two workers.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from calibr import cli, duality

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_IMPORT = re.compile(rb"\| +scipy(\.|$)", re.MULTILINE)

XI6 = {"n": 6, "p": 3, "terms": [
    {"indices": [1, 2, 3], "coeff": 1.0},
    {"indices": [1, 4, 5], "coeff": -0.6},
    {"indices": [2, 4, 6], "coeff": 0.8},
    {"indices": [3, 5, 6], "coeff": 0.5},
    {"indices": [1, 2, 6], "coeff": -0.3},
    {"indices": [2, 3, 4], "coeff": 0.7}]}

# input files, written once beside the run directories; argv names them
# as ../NAME
INPUTS = {
    "sites4.json": [[0.3, -0.2, 0.5, 0.1], [-0.6, 0.4, 0.0, -0.3],
                    [0.1, 0.7, -0.4, 0.2]],
    "xi6.json": XI6,
    "xi6-lex.json": {**XI6, "terms": sorted(XI6["terms"],
                                            key=lambda t: t["indices"])},
    "xi4m.json": {"n": 4, "p": 2, "terms": [
        {"indices": [1, 2], "coeff": 1.0},
        {"indices": [1, 3], "coeff": -0.4},
        {"indices": [2, 4], "coeff": 0.3},
        {"indices": [3, 4], "coeff": 0.6}]},
    "xi5.json": {"n": 5, "p": 3, "terms": [
        {"indices": [1, 2, 3], "coeff": 1.0},
        {"indices": [1, 4, 5], "coeff": -0.6},
        {"indices": [2, 3, 5], "coeff": 0.8},
        {"indices": [2, 4, 5], "coeff": 0.3}]},
    "phi7.json": {"n": 7, "p": 3, "terms": [
        {"indices": [1, 2, 3], "coeff": 1.0},
        {"indices": [1, 4, 5], "coeff": 0.7},
        {"indices": [2, 4, 6], "coeff": -0.6},
        {"indices": [3, 5, 7], "coeff": 0.5},
        {"indices": [1, 6, 7], "coeff": 0.4},
        {"indices": [2, 5, 7], "coeff": 0.3},
        {"indices": [3, 4, 6], "coeff": -0.8}]},
    "alpha4.json": {"n": 4, "p": 2, "terms": [
        {"indices": [1, 2], "coeff": 1.0},
        {"indices": [3, 4], "coeff": 0.8},
        {"indices": [1, 3], "coeff": 0.3},
        {"indices": [2, 4], "coeff": -0.2}]},
    "xi4.json": {"n": 4, "p": 2, "terms": [
        {"indices": [1, 2], "coeff": 0.5},
        {"indices": [3, 4], "coeff": 0.5}]},
    "alpha6.json": {"n": 6, "p": 4, "terms": [
        {"indices": [1, 2, 3, 4], "coeff": 1.0},
        {"indices": [1, 2, 5, 6], "coeff": 0.9},
        {"indices": [3, 4, 5, 6], "coeff": 1.1},
        {"indices": [1, 3, 5, 6], "coeff": 0.2},
        {"indices": [2, 4, 5, 6], "coeff": -0.3}]},
    "e124.json": {"n": 7, "p": 3, "terms": [
        {"indices": [1, 2, 4], "coeff": 1.0}]},
    # special_lagrangian(3) with x1 and y1 swapped: no detected structure
    "sl3swap.json": {"n": 6, "p": 3, "terms": [
        {"indices": [1, 3, 6], "coeff": -1.0},
        {"indices": [1, 4, 5], "coeff": -1.0},
        {"indices": [2, 3, 5], "coeff": 1.0},
        {"indices": [2, 4, 6], "coeff": -1.0}]},
    "q6.json": {"n": 6, "terms": [
        {"exps": [2, 0, 0, 0, 0, 0], "coeff": 1.0},
        {"exps": [1, 1, 0, 0, 0, 0], "coeff": 0.5},
        {"exps": [0, 0, 1, 1, 0, 0], "coeff": -0.8},
        {"exps": [0, 0, 0, 0, 2, 0], "coeff": 0.7},
        {"exps": [0, 1, 0, 0, 0, 1], "coeff": 0.3},
        {"exps": [0, 0, 2, 0, 0, 0], "coeff": -0.4}]},
    "q7.json": {"n": 7, "terms": [
        {"exps": [2, 0, 0, 0, 0, 0, 0], "coeff": 1.0},
        {"exps": [1, 1, 0, 0, 0, 0, 0], "coeff": 0.5},
        {"exps": [0, 0, 1, 1, 0, 0, 0], "coeff": -0.8},
        {"exps": [0, 0, 0, 0, 2, 0, 0], "coeff": 0.7},
        {"exps": [0, 1, 0, 0, 0, 1, 0], "coeff": 0.3},
        {"exps": [0, 0, 2, 0, 0, 0, 0], "coeff": -0.4},
        {"exps": [0, 0, 0, 1, 0, 0, 1], "coeff": 0.6}]},
    # 16 equispaced sites on the unit circle of the z1-line of omega4, then
    # x = (1.2, 0, 0, 0), outside their hull (the closed unit disc)
    "circle17.json": np.column_stack(
        [np.cos(np.arange(16) * np.pi / 8), np.sin(np.arange(16) * np.pi / 8),
         np.zeros((16, 2))]).tolist() + [[1.2, 0.0, 0.0, 0.0]],
    # two tetrahedra sharing the face 1 2 3, which cancels from the boundary
    "tets.mesh": "3 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 1 1 1\n"
                 "s 0 1 2 3 1\ns 4 3 2 1 1\n",
}


def boundary_values(sites_path):
    """Boundary values S = A c, c >= 0 of mass 1.2, on the model that
    ``duality --cal omega4 --sites`` builds: above lam = 0.5, so the
    min-mass LP's dual separates."""
    args = cli.build_parser().parse_args(["duality", "--cal", "omega4"])
    cal = cli._load_cal(args)
    model = duality.build_boundary_model(cal, cli._load_array(sites_path),
                                         cli._samples_for(cal, args),
                                         degree=args.deg)
    A, _ = duality.assemble_boundary_model(model,
                                           np.zeros(len(model.test_family)))
    return list(A @ np.linspace(0.0, 0.1, A.shape[1]))


class Row(NamedTuple):
    name: str
    argv: str
    code: int = 0
    fields: dict = {}
    scipy: bool = False     # the run may load scipy


EXACT, INEXACT = {"report.exact": True}, {"report.exact": False}
NOT_FLAT = {"report.exact": True, "report.flat": False}
CLOSED_MASS = {"report.rounds": 0, "report.lower_certified": True}

REPORTS = [
    Row("catalogue", "catalogue"),
    Row("catalogue-dump", "catalogue --dump omega4"),
    # exact routes: comass by the closed form or read off a drawn plane
    Row("comass-omega4", "comass --cal omega4"),
    Row("comass-associative", "comass --cal associative", 0, EXACT),
    Row("comass-cayley", "comass --cal cayley", 0, EXACT),
    Row("comass-coassociative", "comass --cal coassociative", 0, EXACT),
    Row("comass-sl3", "comass --cal special_lagrangian:3", 0, EXACT),
    Row("comass-quaternionic", "comass --cal quaternionic:2", 0, EXACT),
    # no structure and no closed form: every start ascends, none capped
    Row("comass-phi7", "comass --form ../phi7.json", 0,
        {"report.exact": False, "report.capped": 0}),
    # drawn from G(phi), or from the complex lines of lambda:0.5's top
    # singular block; the swapped form's sample is the ascent's
    Row("gsample-omega4", "gsample --cal omega4"),
    Row("gsample-associative", "gsample --cal associative --count 8", 0,
        EXACT),
    Row("gsample-cayley", "gsample --cal cayley --count 6", 0, EXACT),
    Row("gsample-lambda", "gsample --cal lambda:0.5 --count 4", 0, EXACT),
    Row("gsample-sl3swap", "gsample --cal ../sl3swap.json --count 8", 0,
        INEXACT),
    Row("reduce-lambda", "reduce --cal lambda:0.5", 0,
        {"report.elliptic": False, "report.dim_W": 2}),
    Row("reduce-associative", "reduce --cal associative --count 8", 0,
        {"report.elliptic": True}),
    # Kaehler cones, in degree 2 and through the Hodge star, are exact
    Row("positivity-omega4", "positivity --cal omega4 --form ../alpha4.json",
        0, EXACT),
    Row("positivity-kaehler32",
        "positivity --cal kaehler:3,2 --form ../alpha6.json", 0, EXACT),
    Row("positivity-associative",
        "positivity --cal associative --form ../e124.json --count 8", 1,
        {"report.status": "Outside", "report.exact": False}),
    # a zero margin is written 0.0, as a float
    Row("lemma25-omega4", "lemma25 --cal omega4 --pvector ../xi4.json", 0,
        {**EXACT, "report.conditions.hull_membership.margin": float}),
    Row("lemma25-lambda",
        "lemma25 --cal lambda:0.5 --pvector ../xi4.json --count 8", 0, EXACT),
    # associative is not Kaehler: membership is sampled column generation
    # on the in-repo simplex, so it loads no scipy either
    Row("lemma25-associative",
        "lemma25 --cal associative --pvector ../e124.json --count 8", 0,
        INEXACT),
    # p = 3 in R^6 has no exact path: all 25 LP rounds run
    Row("massnorm-xi6", "massnorm --pvector ../xi6.json", 0,
        {"report.rounds": 25, "report.capped": True,
         "report.lower_certified": False}),
    Row("massnorm-xi6-lex", "massnorm --pvector ../xi6-lex.json"),
    Row("massnorm-xi4m", "massnorm --pvector ../xi4m.json", 0, CLOSED_MASS),
    Row("massnorm-xi5", "massnorm --pvector ../xi5.json", 0, CLOSED_MASS),
    Row("psh-omega4", "psh --cal omega4 --field builtin:normsq "
        "--probes grid:-1..1:3", 0, {"report.all_psh": True}),
    # the config echoes the sample count the residual depends on
    Row("modd-associative", "modd --cal associative --field builtin:normsq "
        "--point 1,0.5,0,0,0.2,0,0 --count 8", 0, {"config.count": 8}),
    # Kaehler on a top singular block, or a single phi-plane in the
    # hyperplane: one eigendecomposition or the drawn plane, never flat
    Row("flat-coassociative", "flat --cal coassociative --field "
        "builtin:normsq --point 1,0.5,0,0,0.2,0,0", 1, NOT_FLAT),
    Row("flat-quaternionic", "flat --cal quaternionic:2 --field "
        "builtin:normsq --point 1,0.5,0,0,0.2,0,0,0.1", 1, NOT_FLAT),
    Row("flat-omega4", "flat --cal omega4 --field builtin:normsq "
        "--point 1,0.5,0,0.2", 1, NOT_FLAT),
    Row("flat-kaehler31", "flat --cal kaehler:3,1 --field builtin:normsq "
        "--point 1,0.5,0,0.2,0,0.1", 1, NOT_FLAT),
    Row("flat-sl3", "flat --cal special_lagrangian:3 --field ../q6.json "
        "--point 1,0.5,0,0.3,0.2,0", 1, NOT_FLAT),
    # associative restricted to a hyperplane is refined tangentially;
    # lambda:0.5 restricts to 0.5 e34 at e1, so the vacuous answer is exact
    Row("flat-associative", "flat --cal associative --field ../q7.json "
        "--point 1,0.5,0,0.3,0.2,0,0.1", 1, INEXACT),
    Row("flat-lambda", "flat --cal lambda:0.5 --field builtin:normsq "
        "--point 1,0,0,0", 0, {"report.exact": True, "report.vacuous": True}),
    # drawn planes, and the swapped form's ascended planes
    Row("normality-omega4", "normality --cal omega4"),
    Row("normality-associative", "normality --cal associative --trials 4",
        0, {"report.normal": True}),
    Row("normality-quaternionic", "normality --cal quaternionic:2", 0,
        {"report.normal": True}),
    Row("normality-sl3swap", "normality --cal ../sl3swap.json --trials 4", 0,
        {"report.normal": True, "report.degenerate": 0}),
    Row("current-check-disc", "current-check --cal omega4 "
        "--mesh builtin:disc:6", 0, {"report.positive": True}),
    Row("current-check-tets", "current-check --cal volume:3 "
        "--mesh ../tets.mesh", 0,
        {"report.boundary_simplices": 6, "report.positive": True,
         "report.mass": 0.5}),
    # green gives no verdict, and solves its Laplace system with scipy
    Row("green-disc", "green --cal omega4 --mesh builtin:disc:8", scipy=True),
    Row("maxprinciple-bounds", "maxprinciple --cal omega4 "
        "--mesh builtin:disc:6 --field builtin:re_z1", 0,
        {"report.ok": True, "report.precondition_ok": True}),
    Row("maxprinciple-lemma58", "maxprinciple --cal omega4 "
        "--mesh builtin:disc:6 --field builtin:re_z1 --mode lemma58", 1,
        {"report.ok": False}),
    Row("duality-random3", "duality --cal omega4 --random 3 --seed 3"),
    Row("duality-random20", "duality --cal omega4 --random 20 --seed 3 "
        "--emit-csv duality.csv"),
    Row("duality-lam", "duality --cal omega4 --sites ../sites4.json "
        "--boundary ../boundary4.json --lam 0.5", 0,
        {"report.model.lp_status.min_mass": "optimal",
         "report.model.lambda_threshold": float}),
    Row("jensen-random3", "jensen --cal omega4 --random 3 --seed 3"),
    Row("jensen-random10", "jensen --cal omega4 --random 10 --seed 3"),
    # the separation LP of x outside the circle's hull, above degree 2
    *(Row(f"jensen-circle-deg{d}", "jensen --cal omega4 --sites "
          f"../circle17.json --K {','.join(map(str, range(16)))} --x 16 "
          f"--deg {d}", 0, {"report.dual": "Certificate",
                            "report.consistent": True}) for d in (3, 4)),
]


def _run(row, root, hashseed):
    """(exit code, stdout, stderr, written files) of one run of the row in
    its own directory; the hash seed 1 run logs its imports."""
    cwd = root / f"{row.name}-{hashseed}"
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": str(hashseed)}
    flags = ["-X", "importtime"] if hashseed == 1 else []
    done = subprocess.run([sys.executable, *flags, "-m", "calibr.cli",
                           *row.argv.split()], cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return done.returncode, done.stdout, done.stderr, files


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    for name, data in INPUTS.items():
        (root / name).write_text(data if isinstance(data, str)
                                 else json.dumps(data))
    (root / "boundary4.json").write_text(
        json.dumps(boundary_values(root / "sites4.json")))
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {(row.name, h): pool.submit(_run, row, root, h)
                   for row in REPORTS for h in (1, 2)}
    return {key: fut.result() for key, fut in futures.items()}


def _field(payload, path):
    for key in path.split("."):
        payload = payload[key]
    return payload


@pytest.mark.parametrize("row", REPORTS, ids=[r.name for r in REPORTS])
def test_report(runs, row):
    (code1, out1, log, files1), (code2, out2, err2, files2) = (
        runs[row.name, 1], runs[row.name, 2])
    assert (code1, code2) == (row.code, row.code), log[-2000:] + err2
    assert out1 == out2
    assert files1 == files2
    payload = json.loads(out1)
    for path, want in row.fields.items():
        got = _field(payload, path)
        if isinstance(want, type):
            assert type(got) is want, path
        else:
            assert (type(got), got) == (type(want), want), path
    if not row.scipy:
        assert not SCIPY_IMPORT.search(log), f"calibr {row.argv} loaded scipy"


def test_lex_ordered_terms_give_the_same_massnorm(runs):
    given, lex = runs["massnorm-xi6", 1][1], runs["massnorm-xi6-lex", 1][1]
    assert lex.replace(b"xi6-lex.json", b"xi6.json") == given


def test_every_subcommand_has_a_row():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    names = [row.name for row in REPORTS]
    assert len(set(names)) == len(names)
    assert set(sub.choices) - {"verify-all"} <= {
        row.argv.split()[0] for row in REPORTS}
