"""The global and complete Table 3 models keep their standard-form bytes.

The complete formulation writes its rows coefficient by coefficient and
:class:`~repro.ilp.LinExpr` carries no variable names; neither may change
a coefficient, a right-hand side (``-0.0`` included), a bound or a name.
The digests below hash every array of each standard form by its bytes,
for both models of the nine scaled points (design seed 0).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.designpoints import default_design_points
from repro.core import CompleteMapper, GlobalMapper
from repro.ilp import to_standard_form

#: label -> (global form digest, complete form digest)
DIGESTS = {
    "point1[6seg/4banks/7ports/10cfg]": ("83d849f280a7a3f2", "879fd722e370b61d"),
    "point2[8seg/6banks/11ports/25cfg]": ("d16a85d6c34c47bf", "4c41ae5eb3d28646"),
    "point3[8seg/11banks/19ports/35cfg]": ("6cf6d8c9e6ed3870", "def2da7610508373"),
    "point4[11seg/11banks/19ports/35cfg]": ("c3f5358ba3175b04", "db79736cacba4872"),
    "point5[8seg/16banks/26ports/40cfg]": ("b9fc6f209e12e459", "31240f9be3ce9060"),
    "point6[16seg/16banks/26ports/40cfg]": ("2f57f61fcfebbca6", "acb2f0984369c7e6"),
    "point7[8seg/45banks/66ports/95cfg]": ("a0bf50667c436764", "76217e769de20772"),
    "point8[16seg/45banks/66ports/95cfg]": ("44efc4f30d2bcfbd", "a5cfb5259d009e72"),
    "point9[33seg/45banks/66ports/95cfg]": ("bfe7bc71296ce7ef", "7cc51f041a3eafe6"),
}


def form_digest(form) -> str:
    digest = hashlib.sha256()
    arrays = (
        form.c,
        form.A_ub_sparse.data, form.A_ub_sparse.indices, form.A_ub_sparse.indptr,
        form.b_ub,
        form.A_eq_sparse.data, form.A_eq_sparse.indices, form.A_eq_sparse.indptr,
        form.b_eq, form.lb, form.ub, form.integrality,
        np.array([form.objective_offset, form.objective_scale]),
    )
    for array in arrays:
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    for names in (form.variable_names, form.row_names_ub, form.row_names_eq):
        digest.update("\x00".join(names).encode() + b"\x01")
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("point", default_design_points(full=False),
                         ids=lambda point: point.label())
def test_standard_forms_keep_their_bytes(point):
    design, board = point.build(seed=0)
    global_form = to_standard_form(GlobalMapper(board).build_model(design).model)
    complete_form = to_standard_form(CompleteMapper(board).build_model(design).model)
    assert (form_digest(global_form), form_digest(complete_form)) == DIGESTS[point.label()]
