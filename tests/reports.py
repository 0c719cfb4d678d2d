"""Compare campaign results by the text ``--json`` prints for them.

Witness matrices are 2-D complex arrays, which ``==`` cannot compare as a
whole, and ``CheckReport`` compares by identity. Printed text is also the
stricter test: -0.0 == 0.0, but the two print differently.
"""
from opconvex.cli import _dump
from opconvex.verify import CheckReport, _report_witness


def printed(x) -> str:
    """``cli._dump`` text of a CheckReport, a list of them, or a witness,
    raw (as ``run_single`` returns it) or as a report holds it."""
    if isinstance(x, list):
        return _dump([r.to_json() for r in x])
    if isinstance(x, CheckReport):
        return _dump(x.to_json())
    return _dump(_report_witness(x))
