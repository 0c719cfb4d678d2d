"""Compare campaign results by the text ``--json`` prints for them.

Witness matrices are ``matrix_wire`` dicts holding float64 arrays, which
``==`` cannot compare as a whole, and ``CheckReport`` compares by identity.
Printed text is also the stricter test: -0.0 == 0.0, but the two print
differently.
"""
from opconvex.cli import _dump
from opconvex.verify import CheckReport, _encode_witness


def printed(x) -> str:
    """``cli._dump`` text of a CheckReport, a list of them, or a witness,
    raw (as ``run_single`` returns it) or encoded."""
    if isinstance(x, list):
        return _dump([r.to_json() for r in x])
    if isinstance(x, CheckReport):
        return _dump(x.to_json())
    return _dump(_encode_witness(x))
