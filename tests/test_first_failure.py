"""First-failure pins for every checker that walks an index grid.

Each checker is driven to FAIL by a one-entry perturbation of certified
data, and its whole report is pinned check by check: the names in order,
which checks pass, and for each failure the witness of the first failing
index in lexicographic order.  A passing check carries no witness, so a
report is pinned by its check names and its failures.

A guard covers every one-entry perturbation of what a mapping system
hands to left_partial_dual: each is rejected, or it builds the unperturbed
document byte for byte.
"""

import functools
import itertools

import pytest

from partialdual.coideal import _CERTIFIED, CoidealQuotient, CoidealSubalgebra, build_quotient, certify_coideal
from partialdual.examples import cyclic, group_algebra, taft4
from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    verify_hopf,
)
from partialdual.linalg import QQ, Matrix, Tensor3, Vector
from partialdual.pams import (
    _CERTIFIED as _PAMS_CERTIFIED,
    Pams,
    _check_primal,
    certify_pams,
    find_cointegral,
    induced_pams,
)
from partialdual.partial_dual import (
    QuasiHopfAlgebra,
    biop_iso_check,
    left_partial_dual,
    op_iso_check,
    right_partial_dual,
    verify_quasi_hopf,
)
from partialdual.serialize import serialize


def _bump_tensor(t, i, j, k):
    data = [[list(row) for row in plane] for plane in t.data]
    data[i][j][k] = data[i][j][k] + t.field.one
    return Tensor3(t.field, data, dims=t.dims)


def _bump_matrix(m, i, j):
    rows = [list(row) for row in m.rows]
    rows[i][j] = rows[i][j] + m.field.one
    return Matrix(m.field, rows, ncols=m.ncols)


def _bump_vector(v, i):
    entries = list(v.entries)
    entries[i] = entries[i] + v.field.one
    return Vector(v.field, entries)


def _bump_delta(qh, row, col):
    """qh's coalgebra with 1 added to entry (row, col) of the n^2 x n matrix
    of Delta: the coefficient of e_{row // n} (x) e_{row % n} in Delta(e_col)."""
    c = qh.coalgebra
    return Coalgebra(c.field, _bump_tensor(c.comult, col, *divmod(row, c.dim)), c.counit)


def _bump_counit(qh, i):
    c = qh.coalgebra
    return Coalgebra(c.field, c.comult, _bump_vector(c.counit, i))


def _expected(names, failures):
    """The report.checks triples of a report with these names and failures."""
    failed = dict(failures)
    assert len(failed) == len(failures) and set(failed) <= set(names)
    return [(name, name not in failed, failed.get(name, "")) for name in names]


def _raised_report(build):
    with pytest.raises(CertificationError) as err:
        build()
    assert err.value.report is not None
    return err.value.report


def _replace(obj, cls, fields, **changes):
    return cls(**{name: changes[name] if name in changes else getattr(obj, name) for name in fields})


def _with_quasi_hopf(qh, **changes):
    fields = ("algebra", "coalgebra", "phi", "phi_inv", "t_map", "upsilon", "antipodes", "pams", "report")
    return _replace(qh, QuasiHopfAlgebra, fields, **changes)


def _with_coideal(b, **changes):
    """A copy of a certified coideal with corrupted data, built past certify_coideal."""
    fields = ("parent", "iota", "mult", "unit", "counit", "coaction", "report")
    return _replace(b, functools.partial(CoidealSubalgebra, _CERTIFIED), fields, **changes)


def _with_quotient(q, **changes):
    """A copy of a certified quotient with corrupted data, built past build_quotient."""
    changes.setdefault("b", q.coideal)
    fields = ("b", "pi", "lift", "coalgebra", "action", "ideal_basis", "canonical", "report")
    return _replace(q, functools.partial(CoidealQuotient, _CERTIFIED), fields, **changes)


def _with_algebra_mult(qh, i, j, k):
    return _with_quasi_hopf(qh, algebra=Algebra(QQ, _bump_tensor(qh.algebra.mult, i, j, k), qh.algebra.unit))


@functools.cache
def _system(name):
    """(pams, left partial dual) of Taft-4 at lambda = 1, or of kC4 over
    its order-two subgroup (strictly quasi), both over Q."""
    if name == "taft":
        _, b, zeta = taft4(QQ, 1)
        p = certify_pams(build_quotient(b), zeta)
    else:
        h = group_algebra(cyclic(4), QQ)
        q = build_quotient(certify_coideal(h, LinMap(Matrix(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]]))))
        p = certify_pams(q, find_cointegral(q))
    return p, left_partial_dual(p)


@functools.cache
def _induced(name, kind):
    p, _ = _system(name)
    return left_partial_dual(induced_pams(p, kind))


def _with_pams(name, **changes):
    p, _ = _system(name)
    fields = ("quotient", "zeta", "gamma", "zeta_bar", "gamma_bar", "report")
    return _replace(p, functools.partial(Pams, _PAMS_CERTIFIED), fields, **changes)


def _taft_hopf(mult=None, comult=None, antipode=None):
    """Taft-4's parent with bumped tensors, rebuilding only the parts they change."""
    h = _system("taft")[0].parent
    algebra = h.algebra if mult is None else Algebra(QQ, mult, h.unit)
    coalgebra = h.coalgebra if comult is None else Coalgebra(QQ, comult, h.counit)
    return HopfAlgebra(algebra, coalgebra, h.antipode if antipode is None else antipode, name=h.name)


def _kc4_coideal(*columns):
    h = group_algebra(cyclic(4), QQ)
    cols = [sum((h.basis(i) for i in col[1:]), h.basis(col[0])) for col in columns]
    return lambda: certify_coideal(h, LinMap(Matrix.from_columns(QQ, cols, nrows=4)))


def _quotient_under(**changes):
    """build_quotient of Taft-4's coideal, read inside a corrupted parent."""
    b = _system("taft")[0].coideal
    return lambda: build_quotient(_with_coideal(b, parent=_taft_hopf(**changes)))


def _primal_report(**changes):
    p, _ = _system("taft")
    maps = {"zeta": p.zeta, "gamma": p.gamma, "zeta_bar": p.zeta_bar, "gamma_bar": p.gamma_bar}
    bumped = {name: LinMap(_bump_matrix(maps[name].matrix, *at)) for name, at in changes.items()}
    report = Report("primal")
    _check_primal(p.quotient, report=report, **dict(maps, **bumped))
    return report


def _taft_quotient(**changes):
    return _with_quotient(_system("taft")[0].quotient, **changes)


def _taft_coideal(**changes):
    return _with_coideal(_system("taft")[0].coideal, **changes)


def _left(name):
    return _system(name)[1]


HOPF_CHECKS = [
    "associativity", "unit-law", "coassociativity", "counit-law", "comult-algebra-map",
    "comult-unital", "counit-algebra-map", "counit-unital", "antipode-left", "antipode-right",
]
PRIMAL_CHECKS = [
    "gamma-comodule-map", "gamma-biunitary", "zetabar-biunitary", "gammabar-biunitary",
    "conv-unit", "zeta-splits-iota", "gamma-splits-pi", "gamma-pi-convolution",
    "gammabar-formula", "zeta-gamma-triviality", "pi-s-inv-iota-trivial",
]
QUASI_HOPF_CHECKS = [
    "associativity", "unit-law", "comult-algebra-map", "comult-unital", "counit-algebra-map",
    "counit-unital", "counit-law-left", "counit-law-right", "associator-invertible",
    "associator-normalized", "quasi-coassociativity", "pentagon", "upsilon-is-t-of-unit",
    "preantipode-left", "preantipode-right", "preantipode-associator",
    "preantipode-associator-inverse", "antipode-availability",
] + [
    f"{label}-{name}"
    for label in ("s1", "s2")
    for name in (
        "antipode-left", "antipode-right", "associator-antipode",
        "associator-inverse-antipode", "upsilon-factorization", "preantipode-factorization",
    )
]
RIGHT_CHECKS = [
    "coassociativity", "counit-law", "unit-law", "multiplication-comultiplication-duality",
    "comultiplication-multiplication-duality", "unit-counit-duality", "counit-unit-duality",
]
BIOP_CHECKS = [
    "algebra-anti-map", "unit-transport", "comultiplication-transport", "counit-transport",
    "associator-transport", "associator-inverse-transport", "upsilon-transport",
    "preantipode-transport", "antipode-availability-matches",
] + [
    f"transported-{label}-{name}"
    for label in ("s1", "s2")
    for name in ("antipode-left", "antipode-right", "associator-antipode", "associator-inverse-antipode")
]
OP_CHECKS = [
    "map-forms-agree", "mutually-inverse", "algebra-anti-map", "unit-transport",
    "comultiplication-transport", "counit-transport", "associator-transport",
    "associator-inverse-transport",
]

# checker -> (check names, perturbation -> the report it produces); a raised
# report has no fixed names, so its whole report.checks is pinned
CASES = {
    "verify_hopf": (HOPF_CHECKS, {
        "taft4": lambda: verify_hopf(_taft_hopf()),
        "mult[0,1,1]+1": lambda: verify_hopf(_taft_hopf(mult=_bump_tensor(_taft_hopf().mult, 0, 1, 1))),
        "mult[1,2,3]+1": lambda: verify_hopf(_taft_hopf(mult=_bump_tensor(_taft_hopf().mult, 1, 2, 3))),
        "comult[2,2,0]+1": lambda: verify_hopf(_taft_hopf(comult=_bump_tensor(_taft_hopf().comult, 2, 2, 0))),
        "antipode[0,3]+1": lambda: verify_hopf(_taft_hopf(antipode=_bump_matrix(_taft_hopf().antipode, 0, 3))),
    }),
    "certify_coideal": (None, {
        "kC4 span(e0, e1, e2)": lambda: _raised_report(_kc4_coideal((0,), (1,), (2,))),
        "kC4 span(e0, e1 + e3, e2)": lambda: _raised_report(_kc4_coideal((0,), (1, 3), (2,))),
    }),
    "build_quotient": (None, {
        "comult[2,0,0]+1": lambda: _raised_report(
            _quotient_under(comult=_bump_tensor(_taft_hopf().comult, 2, 0, 0))
        ),
        "mult[3,2,1]+1": lambda: _raised_report(_quotient_under(mult=_bump_tensor(_taft_hopf().mult, 3, 2, 1))),
    }),
    "_check_primal": (PRIMAL_CHECKS, {
        "zeta[0,2]+1": lambda: _primal_report(zeta=(0, 2)),
        "gamma[0,1]+1": lambda: _primal_report(gamma=(0, 1)),
        "gamma[3,0]+1": lambda: _primal_report(gamma=(3, 0)),
        "zeta_bar[0,1]+1": lambda: _primal_report(zeta_bar=(0, 1)),
        "gamma_bar[0,1]+1": lambda: _primal_report(gamma_bar=(0, 1)),
    }),
    "verify_quasi_hopf": (QUASI_HOPF_CHECKS, {
        "taft phi[0]+1": lambda: verify_quasi_hopf(
            _with_quasi_hopf(_left("taft"), phi=_bump_vector(_left("taft").phi, 0))
        ),
        "taft delta[6,3]+1": lambda: verify_quasi_hopf(
            _with_quasi_hopf(_left("taft"), coalgebra=_bump_delta(_left("taft"), 6, 3))
        ),
        "taft T[3,1]+1": lambda: verify_quasi_hopf(
            _with_quasi_hopf(_left("taft"), t_map=_bump_matrix(_left("taft").t_map, 3, 1))
        ),
        "c4 delta[15,3]+1": lambda: verify_quasi_hopf(
            _with_quasi_hopf(_left("c4"), coalgebra=_bump_delta(_left("c4"), 15, 3))
        ),
        "c4 T[2,3]+1": lambda: verify_quasi_hopf(
            _with_quasi_hopf(_left("c4"), t_map=_bump_matrix(_left("c4").t_map, 2, 3))
        ),
    }),
    # the constructor adds no check: its report is the verifier's
    "left_partial_dual": (QUASI_HOPF_CHECKS, {
        "action[0,1,0]+1": lambda: _raised_report(lambda: left_partial_dual(_with_pams(
            "taft", quotient=_taft_quotient(action=_bump_tensor(_taft_quotient().action, 0, 1, 0))
        ))),
        "mult_B[1,1,0]+1": lambda: _raised_report(lambda: left_partial_dual(_with_pams(
            "taft", quotient=_taft_quotient(b=_taft_coideal(mult=_bump_tensor(_taft_coideal().mult, 1, 1, 0)))
        ))),
    }),
    "right_partial_dual": (RIGHT_CHECKS, {
        "taft left mult[1,2,3]+1": lambda: _raised_report(
            lambda: right_partial_dual(_system("taft")[0], _with_algebra_mult(_left("taft"), 1, 2, 3))
        ),
        "taft left delta[6,1]+1": lambda: _raised_report(lambda: right_partial_dual(
            _system("taft")[0], _with_quasi_hopf(_left("taft"), coalgebra=_bump_delta(_left("taft"), 6, 1))
        )),
        "taft left eps[1]+1": lambda: _raised_report(lambda: right_partial_dual(
            _system("taft")[0], _with_quasi_hopf(_left("taft"), coalgebra=_bump_counit(_left("taft"), 1))
        )),
        "taft gamma[0,1]+1": lambda: _raised_report(lambda: right_partial_dual(
            _with_pams("taft", gamma=LinMap(_bump_matrix(_system("taft")[0].gamma.matrix, 0, 1))), _left("taft")
        )),
        "c4 zeta[0,1]+1": lambda: _raised_report(lambda: right_partial_dual(
            _with_pams("c4", zeta=LinMap(_bump_matrix(_system("c4")[0].zeta.matrix, 0, 1))), _left("c4")
        )),
    }),
    "biop_iso_check": (BIOP_CHECKS, {
        "taft mult[1,2,3]+1": lambda: _raised_report(
            lambda: biop_iso_check(_left("taft"), _with_algebra_mult(_induced("taft", "biop-dual"), 1, 2, 3))
        ),
        "taft delta[6,1]+1": lambda: _raised_report(lambda: biop_iso_check(_left("taft"), _with_quasi_hopf(
            _induced("taft", "biop-dual"), coalgebra=_bump_delta(_induced("taft", "biop-dual"), 6, 1)
        ))),
        "c4 mult[1,2,3]+1": lambda: _raised_report(
            lambda: biop_iso_check(_left("c4"), _with_algebra_mult(_induced("c4", "biop-dual"), 1, 2, 3))
        ),
        "c4 delta[13,3]+1": lambda: _raised_report(lambda: biop_iso_check(_left("c4"), _with_quasi_hopf(
            _induced("c4", "biop-dual"), coalgebra=_bump_delta(_induced("c4", "biop-dual"), 13, 3)
        ))),
    }),
    "op_iso_check": (OP_CHECKS, {
        "taft source mult[1,2,3]+1": lambda: _raised_report(
            lambda: op_iso_check(_with_algebra_mult(_left("taft"), 1, 2, 3), _induced("taft", "op"))
        ),
        "taft target mult[1,2,3]+1": lambda: _raised_report(
            lambda: op_iso_check(_left("taft"), _with_algebra_mult(_induced("taft", "op"), 1, 2, 3))
        ),
        "taft target delta[6,1]+1": lambda: _raised_report(lambda: op_iso_check(_left("taft"), _with_quasi_hopf(
            _induced("taft", "op"), coalgebra=_bump_delta(_induced("taft", "op"), 6, 1)
        ))),
        "c4 source mult[1,2,3]+1": lambda: _raised_report(
            lambda: op_iso_check(_with_algebra_mult(_left("c4"), 1, 2, 3), _induced("c4", "op"))
        ),
    }),
}


# checker -> perturbation -> its failures (name, witness); where the check
# names are None, the whole report.checks of the raised report
FAILURES = {
    "verify_hopf": {
        "taft4": [],
        "mult[0,1,1]+1": [
            ("associativity", "(e0 e0) e1 != e0 (e0 e1); coordinate 1: 2 != 4"),
            ("unit-law", "unit fails at e1"),
            ("comult-algebra-map", "Delta(e0 e1): coordinate 5: 2 != 4"),
            ("counit-algebra-map", "eps(e0 e1) = 2 != 1"),
        ],
        "mult[1,2,3]+1": [
            ("associativity", "(e1 e1) e2 != e1 (e1 e2); coordinate 2: 1 != 0"),
            ("comult-algebra-map", "Delta(e2 e2): coordinate 14: 0 != 1"),
            ("antipode-left", "at e2: coordinate 3: 1 != 0"),
        ],
        "comult[2,2,0]+1": [
            ("coassociativity", "at e2: coordinate 32: 4 != 2"),
            ("counit-law", "(eps (x) id)Delta or (id (x) eps)Delta is not the identity"),
            ("comult-algebra-map", "Delta(e1 e2): coordinate 13: -1 != -2"),
            ("antipode-left", "at e2: coordinate 3: 1 != 0"),
            ("antipode-right", "at e2: coordinate 2: 1 != 0"),
        ],
        "antipode[0,3]+1": [
            ("antipode-left", "at e3: coordinate 1: 1 != 0"),
            ("antipode-right", "at e3: coordinate 0: 1 != 0"),
        ],
    },
    "certify_coideal": {
        # e1 e2 and e2 e1 both leave span(e0, e1, e2), and Delta(e1 + e3) =
        # e1 (x) e1 + e3 (x) e3 leaves B at e1 and at e3: the witness names
        # the first failing index
        "kC4 span(e0, e1, e2)": [
            ("iota-injective", True, ""),
            ("contains-unit", True, ""),
            ("closed-under-multiplication", False, "iota(e1) iota(e2) is not in the image of iota"),
        ],
        "kC4 span(e0, e1 + e3, e2)": [
            ("iota-injective", True, ""),
            ("contains-unit", True, ""),
            ("closed-under-multiplication", True, ""),
            ("left-coideal", False, "Delta(iota(e1)) has second leg outside iota(B) at e1 (x) -"),
        ],
    },
    "build_quotient": {
        "comult[2,0,0]+1": [
            ("dim-product-law", True, ""),
            ("pi-splits-lift", True, ""),
            ("pi-kills-ideal", True, ""),
            ("pi-surjective", True, ""),
            ("pi-coalgebra-map", False, "Delta_C(pi(e2)) disagrees with (pi (x) pi)Delta(e2)"),
            ("action-well-defined", True, ""),
            ("coinvariants-equal-image", False, "coinvariants of h -> sum h_1 (x) pi(h_2) differ from iota(B)"),
        ],
        "mult[3,2,1]+1": [
            ("dim-product-law", True, ""),
            ("pi-splits-lift", True, ""),
            ("pi-kills-ideal", True, ""),
            ("pi-surjective", True, ""),
            ("pi-coalgebra-map", True, ""),
            ("action-well-defined", False, "pi((B+ H) e2) != 0 at ideal basis row 1"),
            ("coinvariants-equal-image", True, ""),
        ],
    },
    "_check_primal": {
        "zeta[0,2]+1": [
            ("conv-unit", "(iota zeta) * (gamma pi) != id"),
            ("zeta-splits-iota", "zeta iota != id_B"),
            ("gammabar-formula", "gamma_bar pi != S * (iota zeta)"),
        ],
        "gamma[0,1]+1": [
            ("gamma-comodule-map", "(id (x) pi) Delta(gamma(x1)) != (gamma (x) id) Delta_C(x1)"),
            ("gamma-biunitary", "eps(gamma(x1)) != eps_C(x1)"),
            ("conv-unit", "(iota zeta) * (gamma pi) != id"),
            ("gamma-splits-pi", "pi gamma != id_C"),
            ("gamma-pi-convolution", "gamma pi != (iota zeta_bar) * id"),
            ("zeta-gamma-triviality", "zeta gamma != eps_C(-) 1_B"),
        ],
        "gamma[3,0]+1": [
            ("gamma-comodule-map", "(id (x) pi) Delta(gamma(x0)) != (gamma (x) id) Delta_C(x0)"),
            ("gamma-biunitary", "gamma(pi(1)) != 1"),
            ("conv-unit", "(iota zeta) * (gamma pi) != id"),
            ("gamma-pi-convolution", "gamma pi != (iota zeta_bar) * id"),
            ("zeta-gamma-triviality", "zeta gamma != eps_C(-) 1_B"),
        ],
        "zeta_bar[0,1]+1": [
            ("zetabar-biunitary", "eps_B(zeta_bar(e1)) != eps(e1)"),
            ("gamma-pi-convolution", "gamma pi != (iota zeta_bar) * id"),
        ],
        "gamma_bar[0,1]+1": [
            ("gammabar-biunitary", "eps(gamma_bar(x1)) != eps_C(x1)"),
            ("gammabar-formula", "gamma_bar pi != S * (iota zeta)"),
        ],
    },
    "verify_quasi_hopf": {
        "taft phi[0]+1": [
            ("associator-invertible", "phi phi_inv != 1"),
            ("associator-normalized", "eps on a leg of phi"),
            ("quasi-coassociativity", "basis 1"),
            ("pentagon", "pentagon identity"),
            ("preantipode-associator", "sum phi1 T(phi2) phi3"),
            ("s1-associator-antipode", "sum phi1 beta S(phi2) alpha phi3"),
            ("s2-associator-antipode", "sum phi1 beta S(phi2) alpha phi3"),
        ],
        "taft delta[6,3]+1": [
            ("comult-algebra-map", "Delta(e1 e3): coordinate 5: 0 != 1"),
            ("quasi-coassociativity", "basis 0"),
            ("preantipode-right", "pair (3,2)"),
            ("s1-antipode-right", "basis 3"),
            ("s2-antipode-right", "basis 3"),
        ],
        "taft T[3,1]+1": [
            ("preantipode-left", "pair (1,2)"),
            ("preantipode-right", "pair (3,0)"),
            ("s1-preantipode-factorization", "basis 1"),
            ("s2-preantipode-factorization", "basis 1"),
        ],
        "c4 delta[15,3]+1": [
            ("comult-algebra-map", "Delta(e0 e3): coordinate 15: 0 != 1"),
            ("pentagon", "pentagon identity"),
            ("preantipode-left", "pair (3,2)"),
            ("preantipode-right", "pair (3,2)"),
            ("s1-antipode-left", "basis 3"),
            ("s1-antipode-right", "basis 3"),
            ("s2-antipode-left", "basis 3"),
            ("s2-antipode-right", "basis 3"),
        ],
        "c4 T[2,3]+1": [
            ("preantipode-left", "pair (1,2)"),
            ("preantipode-right", "pair (1,2)"),
            ("preantipode-associator-inverse", "sum T(phibar1) phibar2 T(phibar3) != T(eps#1)"),
            ("s1-preantipode-factorization", "basis 3"),
            ("s2-preantipode-factorization", "basis 3"),
        ],
    },
    "left_partial_dual": {
        "action[0,1,0]+1": [
            ("associativity", "(e1 e0) e2 != e1 (e0 e2); coordinate 1: 1 != 0"),
            ("unit-law", "unit fails at e1"),
            ("comult-algebra-map", "Delta(e0 e0): coordinate 14: 1 != 2"),
            ("comult-unital", "Delta(1) != 1 (x) 1"),
            ("counit-law-left", "basis 0"),
            ("quasi-coassociativity", "basis 0"),
            ("pentagon", "pentagon identity"),
            ("preantipode-left", "pair (0,0)"),
            ("preantipode-right", "pair (0,1)"),
            ("s1-antipode-left", "basis 0"),
            ("s1-antipode-right", "basis 2"),
            ("s1-preantipode-factorization", "basis 0"),
            ("s2-antipode-left", "basis 0"),
            ("s2-antipode-right", "basis 2"),
            ("s2-preantipode-factorization", "basis 0"),
        ],
        "mult_B[1,1,0]+1": [
            ("comult-algebra-map", "Delta(e0 e0): coordinate 2: 0 != -1"),
            ("counit-algebra-map", "eps(e1 e3) = 1 != 0"),
            ("counit-law-left", "basis 1"),
            ("quasi-coassociativity", "basis 0"),
            ("preantipode-left", "pair (0,1)"),
            ("preantipode-right", "pair (0,1)"),
            ("s1-antipode-left", "basis 1"),
            ("s1-antipode-right", "basis 0"),
            ("s2-antipode-left", "basis 1"),
            ("s2-antipode-right", "basis 0"),
        ],
    },
    "right_partial_dual": {
        "taft left mult[1,2,3]+1": [
            ("multiplication-comultiplication-duality", "entry (1,2,3)"),
        ],
        "taft left delta[6,1]+1": [
            ("comultiplication-multiplication-duality", "entry (1,1,2)"),
        ],
        "taft left eps[1]+1": [
            ("counit-unit-duality", "counit vs unit"),
        ],
        "taft gamma[0,1]+1": [
            ("unit-law", "basis 2"),
            ("comultiplication-multiplication-duality", "entry (0,0,2)"),
        ],
        "c4 zeta[0,1]+1": [
            ("unit-law", "basis 3"),
            ("comultiplication-multiplication-duality", "entry (1,2,3)"),
        ],
    },
    "biop_iso_check": {
        "taft mult[1,2,3]+1": [
            ("algebra-anti-map", "pair (1,2)"),
            ("transported-s1-antipode-left", "basis 0"),
            ("transported-s1-antipode-right", "basis 2"),
            ("transported-s2-antipode-left", "basis 0"),
            ("transported-s2-antipode-right", "basis 2"),
        ],
        "taft delta[6,1]+1": [
            ("comultiplication-transport", "basis 2"),
            ("transported-s1-antipode-left", "basis 1"),
            ("transported-s2-antipode-left", "basis 1"),
        ],
        "c4 mult[1,2,3]+1": [
            ("algebra-anti-map", "pair (1,2)"),
            ("transported-s1-antipode-right", "basis 3"),
            ("transported-s1-associator-antipode", "sum phi1 beta S(phi2) alpha phi3"),
            ("transported-s1-associator-inverse-antipode", "sum S(phibar1) alpha phibar2 beta S(phibar3)"),
            ("transported-s2-antipode-left", "basis 3"),
            ("transported-s2-associator-antipode", "sum phi1 beta S(phi2) alpha phi3"),
            ("transported-s2-associator-inverse-antipode", "sum S(phibar1) alpha phibar2 beta S(phibar3)"),
        ],
        "c4 delta[13,3]+1": [
            ("comultiplication-transport", "basis 3"),
            ("transported-s1-antipode-left", "basis 3"),
            ("transported-s1-antipode-right", "basis 3"),
            ("transported-s2-antipode-left", "basis 3"),
            ("transported-s2-antipode-right", "basis 3"),
        ],
    },
    "op_iso_check": {
        "taft source mult[1,2,3]+1": [
            ("map-forms-agree", "basis (1,1)"),
            ("mutually-inverse", "composite"),
            ("algebra-anti-map", "pair (0,3)"),
            ("comultiplication-transport", "basis 0"),
        ],
        "taft target mult[1,2,3]+1": [
            ("algebra-anti-map", "pair (2,3)"),
        ],
        "taft target delta[6,1]+1": [
            ("comultiplication-transport", "basis 3"),
        ],
        "c4 source mult[1,2,3]+1": [
            ("map-forms-agree", "basis (1,1)"),
            ("mutually-inverse", "composite"),
            ("algebra-anti-map", "pair (1,2)"),
            ("comultiplication-transport", "basis 1"),
            ("associator-transport", "phi inverse to phi"),
            ("associator-inverse-transport", "phi to phi inverse"),
        ],
    },
}


@pytest.mark.parametrize(
    "checker, label",
    [(checker, label) for checker, (_, cases) in CASES.items() for label in cases],
    ids=lambda value: value,
)
def test_report_pins_names_failures_and_witnesses(checker, label):
    names, cases = CASES[checker]
    report = cases[label]()
    expected = FAILURES[checker][label]
    assert report.checks == (expected if names is None else _expected(names, expected))


def _perturbations(name):
    """Every one-entry bump of the data a certified mapping system hands to
    left_partial_dual, built past the certifiers: the quotient's action,
    B's multiplication and coaction, C's comultiplication, and the zeta,
    gamma, zeta_bar, gamma_bar and pi matrices."""
    p, _ = _system(name)
    q, b, c = p.quotient, p.coideal, p.quotient.coalgebra

    def cells(dims):
        return itertools.product(*map(range, dims))

    def in_quotient(**changes):
        return _with_pams(name, quotient=_with_quotient(q, **changes))

    for at in cells(q.action.dims):
        yield in_quotient(action=_bump_tensor(q.action, *at))
    for part in ("mult", "coaction"):
        t = getattr(b, part)
        for at in cells(t.dims):
            yield in_quotient(b=_with_coideal(b, **{part: _bump_tensor(t, *at)}))
    for at in cells(c.comult.dims):
        yield in_quotient(coalgebra=Coalgebra(c.field, _bump_tensor(c.comult, *at), c.counit))
    for map_name in ("zeta", "gamma", "zeta_bar", "gamma_bar"):
        m = getattr(p, map_name).matrix
        for at in cells((m.nrows, m.ncols)):
            yield _with_pams(name, **{map_name: LinMap(_bump_matrix(m, *at))})
    for at in cells((q.pi.matrix.nrows, q.pi.matrix.ncols)):
        yield in_quotient(pi=LinMap(_bump_matrix(q.pi.matrix, *at)))


@pytest.mark.parametrize("name", ["taft", "c4"])
def test_every_one_entry_perturbation_is_caught_or_changes_nothing(name):
    """left_partial_dual adds no check of its own, so a perturbed input it
    accepts must build the very same document: whatever the verifier
    lets through is not a change of the left partial dual."""
    reference = serialize(_left(name))
    perturbed = list(_perturbations(name))
    assert len(perturbed) == 88
    for p in perturbed:
        try:
            doc = serialize(left_partial_dual(p))
        except CertificationError:
            continue
        assert doc == reference
