"""Verdict pins: what `opconvex verify --json` decides, on any BLAS kernel.

For each command line of the golden report grid (``test_golden_reports``),
this pins the exit code and, per theorem tag, the trial and failure counts
and the worst slack, the last to within ``SLACK_ATOL``. Another OpenBLAS
kernel moves printed slacks in their last bits and may pick another
noise-level trial as the worst witness, so most byte pins fail under it;
these pins hold. Witness coordinates and bytes stay out.

The slacks were recorded with numpy 2.4.6 on its default kernel. Other
numpy builds may draw other instances, so the test skips under them.
"""
import contextlib
import io
import json

import numpy as np
import pytest

from opconvex.cli import main
from test_golden_reports import GOLDEN_NUMPY, _grid

# every pinned campaign runs at the default relative tolerance
TOLERANCE = 1e-8
# how far a worst slack may move between kernels; the Haswell and Prescott
# kernels moved none by more than 1.1e-4 * TOLERANCE
SLACK_ATOL = 1e-3 * TOLERANCE

# command line: (exit code, [(theorem, trials, failures, worst_slack)])
VERDICTS = {
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem all":
        (0, [
            ("hp", 6, 0, 9.218688911781922e-05),
            ("hp-contractive", 6, 0, 0.0003801949100675927),
            ("perspective", 6, 0, -7.969530403994953e-15),
            ("marechal", 6, 0, -1.039324916834458e-16),
            ("rel-entropy-convexity", 6, 0, 0.0),
            ("lieb-s", 6, 0, 0.0),
            ("lieb-pq", 6, 0, 0.0),
            ("classical", 6, 0, 0.0),
        ]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom neg_log":
        (0, [("hp", 6, 0, 0.0003210901016009091)]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom neg_log":
        (2, []),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom neg_log":
        (0, [("perspective", 6, 0, -1.934643732115221e-15)]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom neg_log":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom square":
        (0, [("hp", 6, 0, 0.0028561409003163138)]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom square":
        (0, [("hp-contractive", 6, 0, 7.757075503511663e-05)]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom square":
        (0, [("perspective", 6, 0, -4.2100329946571135e-14)]),
    "verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom square":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem all":
        (0, [
            ("hp", 6, 0, 0.0011035926713676481),
            ("hp-contractive", 6, 0, 0.004779395967503324),
            ("perspective", 6, 0, -9.938831837222222e-15),
            ("marechal", 6, 0, -1.6578123719704948e-14),
            ("rel-entropy-convexity", 6, 0, 0.0),
            ("lieb-s", 6, 0, 0.0),
            ("lieb-pq", 6, 0, 0.0),
            ("classical", 6, 0, 0.0),
        ]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log":
        (0, [("hp", 6, 0, 0.001393446900113381)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log":
        (2, []),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log":
        (0, [("perspective", 6, 0, -3.409866961832714e-15)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom square":
        (0, [("hp", 6, 0, 0.005074825733367167)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square":
        (0, [("hp-contractive", 6, 0, 0.13661863474825475)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom square":
        (0, [("perspective", 6, 0, -3.278941855065332e-14)]),
    "verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom square":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem all":
        (0, [
            ("hp", 6, 0, -6.3577936342598304e-15),
            ("hp-contractive", 6, 0, 0.010083053380337553),
            ("perspective", 6, 0, -4.99195283101822e-15),
            ("marechal", 6, 0, -7.905212623221804e-15),
            ("rel-entropy-convexity", 6, 0, 0.0),
            ("lieb-s", 6, 0, 0.0),
            ("lieb-pq", 6, 0, 0.0),
            ("classical", 6, 0, 0.0),
        ]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log":
        (0, [("hp", 6, 0, -3.115444316724251e-15)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log":
        (2, []),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log":
        (0, [("perspective", 6, 0, -5.263638729697455e-15)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom square":
        (0, [("hp", 6, 0, -2.0577619290033154e-14)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square":
        (0, [("hp-contractive", 6, 0, 0.0030592529801580126)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom square":
        (0, [("perspective", 6, 0, -3.9825963803284463e-14)]),
    "verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom square":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem all":
        (0, [
            ("hp", 6, 0, 0.0022927459048470433),
            ("hp-contractive", 6, 0, 0.0320604498426948),
            ("perspective", 6, 0, -9.613343754922137e-15),
            ("marechal", 6, 0, -6.239666586948858e-17),
            ("rel-entropy-convexity", 6, 0, 0.0),
            ("lieb-s", 6, 0, 0.0),
            ("lieb-pq", 6, 0, 0.0),
            ("classical", 6, 0, 0.0),
        ]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom neg_log":
        (0, [("hp", 6, 0, 0.0005705787679748525)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom neg_log":
        (2, []),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom neg_log":
        (0, [("perspective", 6, 0, 2.9453468882158767e-16)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom neg_log":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom square":
        (0, [("hp", 6, 0, 0.0083744755539846)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom square":
        (0, [("hp-contractive", 6, 0, 0.5392873180736156)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom square":
        (0, [("perspective", 6, 0, -2.457725128071791e-14)]),
    "verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom square":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem all":
        (0, [
            ("hp", 6, 0, 0.0004982185030022778),
            ("hp-contractive", 6, 0, 0.009562228099948847),
            ("perspective", 6, 0, -9.201769944040987e-14),
            ("marechal", 6, 0, -1.2561339932941414e-15),
            ("rel-entropy-convexity", 6, 0, 0.0),
            ("lieb-s", 6, 0, 0.0),
            ("lieb-pq", 6, 0, 0.0),
            ("classical", 6, 0, 0.0),
        ]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log":
        (0, [("hp", 6, 0, 5.3340540018609576e-05)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log":
        (2, []),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log":
        (0, [("perspective", 6, 0, -3.2183626400756114e-13)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom square":
        (0, [("hp", 6, 0, 0.00046648698836244056)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square":
        (0, [("hp-contractive", 6, 0, 0.08757819203477747)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom square":
        (0, [("perspective", 6, 0, -1.1291727975467488e-12)]),
    "verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom square":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem all":
        (0, [
            ("hp", 6, 0, -2.5486945845716917e-14),
            ("hp-contractive", 6, 0, 0.0054803600971223354),
            ("perspective", 6, 0, -1.162714380961568e-13),
            ("marechal", 6, 0, -2.2719163565062036e-15),
            ("rel-entropy-convexity", 6, 0, 0.0),
            ("lieb-s", 6, 0, 0.0),
            ("lieb-pq", 6, 0, 0.0),
            ("classical", 6, 0, 0.0),
        ]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log":
        (0, [("hp", 6, 0, -3.5075627353581776e-15)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log":
        (2, []),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log":
        (0, [("perspective", 6, 0, -8.747372574945297e-14)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom square":
        (0, [("hp", 6, 0, -3.000157015736363e-14)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square":
        (0, [("hp-contractive", 6, 0, 6.884079425635583e-05)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom square":
        (0, [("perspective", 6, 0, -6.342289754191264e-13)]),
    "verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom square":
        (0, [("classical", 6, 0, 0.0)]),
    "verify --theorem hp --atom quartic --negative-control --dim 2 --trials 2000 --seed 7 --json":
        (0, [("hp", 2000, 1, -0.04502733044295759)]),
    "verify --theorem all --dim 2 --trials 600 --seed 0 --json":
        (0, [
            ("hp", 600, 0, 7.646958703011052e-05),
            ("hp-contractive", 600, 0, 2.0979699290077318e-05),
            ("perspective", 600, 0, -7.969530403994953e-15),
            ("marechal", 600, 0, -1.039324916834458e-16),
            ("rel-entropy-convexity", 600, 0, 0.0),
            ("lieb-s", 600, 0, 0.0),
            ("lieb-pq", 600, 0, 0.0),
            ("classical", 600, 0, 0.0),
        ]),
    "verify --theorem all --trials 1 --seed 3 --json":
        (0, [
            ("hp", 1, 0, 0.006956866690102258),
            ("hp-contractive", 1, 0, 0.5414439168926954),
            ("perspective", 1, 0, -6.01385430403242e-16),
            ("marechal", 1, 0, -8.284459187291987e-14),
            ("rel-entropy-convexity", 1, 0, 0.0),
            ("lieb-s", 1, 0, 0.0),
            ("lieb-pq", 1, 0, 0.0),
            ("classical", 1, 0, 0.0),
        ]),
    "verify --theorem hp --atom quartic --trials 1 --json":
        (0, [("hp", 1, 0, 15.357028614713485)]),
    "verify --theorem marechal --floor 2 --dim 3 --trials 40 --json":
        (0, [("marechal", 40, 0, -1.6829877880855143e-14)]),
    "verify --theorem all --floor 2 --dim 3 --trials 40 --seed 5 --json":
        (0, [
            ("hp", 40, 0, 0.00011889254857370788),
            ("hp-contractive", 40, 0, 0.008208372018872302),
            ("perspective", 40, 0, -6.895816951770418e-15),
            ("marechal", 40, 0, -1.0562945000669223e-14),
            ("rel-entropy-convexity", 40, 0, 0.0),
            ("lieb-s", 40, 0, 0.0),
            ("lieb-pq", 40, 0, 0.0),
            ("classical", 40, 0, 0.0),
        ]),
    "verify --theorem marechal --floor 9 --trials 3 --json":
        (2, []),
    "verify --theorem all --dim 12 --dim-m 12 --trials 3 --seed 0 --json":
        (0, [
            ("hp", 3, 0, 0.009397889304067035),
            ("hp-contractive", 3, 0, 0.06799595871499822),
            ("perspective", 3, 0, -4.3710999517559214e-14),
            ("marechal", 3, 0, -3.325315125405892e-14),
            ("rel-entropy-convexity", 3, 0, 0.0),
            ("lieb-s", 3, 0, 0.0),
            ("lieb-pq", 3, 0, 0.0),
            ("classical", 3, 0, 0.0),
        ]),
    "verify --theorem all --dim 12 --dim-m 7 --trials 3 --seed 0 --json":
        (0, [
            ("hp", 3, 0, 3.2468677279345676e-11),
            ("hp-contractive", 3, 0, 0.009064868280454564),
            ("perspective", 3, 0, -4.3710999517559214e-14),
            ("marechal", 3, 0, -3.325315125405892e-14),
            ("rel-entropy-convexity", 3, 0, 0.0),
            ("lieb-s", 3, 0, 0.0),
            ("lieb-pq", 3, 0, 0.0),
            ("classical", 3, 0, 0.0),
        ]),
}


def _reports(argv):
    """The exit code and the reports ``main`` prints for ``argv``."""
    out = io.StringIO()
    with (contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(io.StringIO())):
        code = main(argv)
    doc = json.loads(out.getvalue()) if out.getvalue() else []
    return code, doc if isinstance(doc, list) else [doc]


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"verdicts were recorded with numpy "
                           f"{GOLDEN_NUMPY}")
@pytest.mark.parametrize("argv", [" ".join(a) for a in _grid()])
def test_report_verdicts_match_pins(argv):
    code, reports = _reports(argv.split())
    pinned_code, pins = VERDICTS[argv]
    assert code == pinned_code
    assert ([(r["theorem"], r["trials"], r["failures"]) for r in reports]
            == [pin[:3] for pin in pins])
    for r, (theorem, _, _, slack) in zip(reports, pins):
        assert r["tolerance"] == TOLERANCE, theorem
        assert abs(r["worst_slack"] - slack) <= SLACK_ATOL, theorem
