"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion, each run through `run_criterion` at the default
seed and printing its pass/fail line; the same checks run under
`calibr verify-all`.
"""

import pytest

from calibr import acceptance


def _report(criterion):
    result = acceptance.run_criterion(criterion)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} - {result.name}: {result.summary} [{result.seconds:.1f}s]")
    assert result.passed, f"{result.name}: {result.summary}\n{result.details}"


def test_criterion_1_catalogue_comass():
    _report(acceptance.criterion_1_catalogue_comass)


def test_criterion_2_lambda_collapse():
    _report(acceptance.criterion_2_lambda_collapse)


def test_criterion_3_kaehler_J_invariance():
    _report(acceptance.criterion_3_kaehler_J_invariance)


def test_criterion_4_trace_identity():
    _report(acceptance.criterion_4_trace_identity)


def test_criterion_5_symbol_projection():
    _report(acceptance.criterion_5_symbol_projection)


def test_criterion_6_wirtinger():
    _report(acceptance.criterion_6_wirtinger)


def test_criterion_7_poisson_jensen():
    _report(acceptance.criterion_7_poisson_jensen)


def test_criterion_8_farkas():
    _report(acceptance.criterion_8_farkas)


def test_samples_keep_their_tolerance():
    # criterion 8 samples at tol=1e-8, the others at the default 1e-6
    for tol in (1e-6, 1e-8):
        ss = acceptance._samples("kaehler", (2, 1), count=8, tol=tol)
        assert ss.tolerance == tol


def test_criterion_9_reduction():
    _report(acceptance.criterion_9_reduction)


def test_criterion_10_normality():
    _report(acceptance.criterion_10_normality)


def test_criterion_11_restriction_subharmonic():
    _report(acceptance.criterion_11_restriction_subharmonic)


def test_criterion_12_mass_bracket():
    _report(acceptance.criterion_12_mass_bracket)


def test_criterion_4_reports_the_pairs_it_checked():
    result = acceptance.criterion_4_trace_identity(
        acceptance.DEFAULT_SEED, pairs_per_entry=30)
    assert result.passed
    assert [row["pairs"] for row in result.details["rows"]] == [30] * 8
    assert result.summary.startswith("240 pairs over 8 entries, worst gap ")
