"""First-failure pins for every checker that walks an index grid.

Each checker is driven to FAIL by a one-entry perturbation of certified
data, and its whole report is pinned check by check: the names in order,
which checks pass, and for each failure the witness of the first failing
index in lexicographic order.  A passing check carries no witness, so a
report is pinned by its check names and its failures.  The quasi-Hopf
pins include a fully dense associator (kC4 over k1 with zeta = eps, over
Q and F_7), under every one-entry bump of phi, phi^-1, Delta and the
product.

A guard covers every one-entry perturbation of what a mapping system
hands to left_partial_dual: each is rejected, or it builds the unperturbed
document byte for byte.
"""

import functools
import hashlib
import itertools

import pytest

from partialdual.cli import _split_fixture
from partialdual.coideal import (
    _CERTIFIED,
    CoidealQuotient,
    CoidealSubalgebra,
    _certify_inclusion,
    build_quotient,
    certify_coideal,
)
from partialdual.examples import cyclic, group_algebra, pams_from_split_projection, symmetric, taft4
from partialdual.hopf import (
    Algebra,
    CertificationError,
    Coalgebra,
    HopfAlgebra,
    LinMap,
    Report,
    _cut,
    _flat,
    verify_hopf,
)
from partialdual.linalg import QQ, Matrix, PrimeField, Tensor3, Vector
from partialdual.pams import (
    _CERTIFIED as _PAMS_CERTIFIED,
    Pams,
    _check_primal,
    certify_pams,
    find_cointegral,
    gamma_from_zeta,
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


def _table(t):
    """A dense tensor as the table the certified types store: its first leg's images."""
    return _cut(_flat(t), t.dims[0], t.dims[1] * t.dims[2])


def _with_coideal(b, mult=None, coaction=None, **changes):
    """A copy of a certified coideal with corrupted data, built past certify_coideal;
    a corrupted multiplication tensor `mult` replaces its algebra, and a
    corrupted coaction tensor `coaction` its int_coaction."""
    if mult is not None:
        changes["algebra"] = Algebra(b.field, mult, b.unit)
    if coaction is not None:
        changes["int_coaction"] = _table(coaction)
    fields = ("parent", "iota", "algebra", "counit", "int_coaction", "report")
    return _replace(b, functools.partial(CoidealSubalgebra, _CERTIFIED), fields, **changes)


def _with_quotient(q, action=None, **changes):
    """A copy of a certified quotient with corrupted data, built past
    build_quotient; a corrupted action tensor `action` replaces its int_action."""
    changes.setdefault("b", q.coideal)
    if action is not None:
        changes["int_action"] = _table(action)
    fields = ("b", "pi", "lift", "coalgebra", "int_action", "ideal_basis", "canonical", "report")
    return _replace(q, functools.partial(CoidealQuotient, _CERTIFIED), fields, **changes)


def _with_algebra_mult(qh, i, j, k):
    return _with_quasi_hopf(qh, algebra=Algebra(QQ, _bump_tensor(qh.algebra.mult, i, j, k), qh.algebra.unit))


@functools.cache
def _system(name):
    """(pams, left partial dual) of Taft-4 at lambda = 1, of kC4 over its
    order-two subgroup (strictly quasi) or of kS3 over kA3, all over Q."""
    if name == "taft":
        _, b, zeta = taft4(QQ, 1)
        p = certify_pams(build_quotient(b), zeta)
    else:
        # kA3 is spanned by the identity and the two 3-cycles, indices 3 and 4 of S3
        group, k = (cyclic(4), (0, 2)) if name == "c4" else (symmetric(3), (0, 3, 4))
        h = group_algebra(group, QQ)
        q = build_quotient(certify_coideal(h, LinMap(Matrix.from_columns(QQ, [h.basis(i) for i in k], nrows=h.dim))))
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


@functools.cache
def _dense_left(field_name):
    """The left partial dual of kC4 over the trivial coideal k1 with zeta =
    eps, over Q or F_7: its phi and phi^-1 are fully dense, so every product
    of the associator checks is a dense one."""
    field, group = QQ if field_name == "Q" else PrimeField(7), cyclic(4)
    h = group_algebra(group, field)
    q = build_quotient(certify_coideal(h, LinMap(Matrix.from_columns(field, [h.basis(group.identity)], nrows=4))))
    return left_partial_dual(certify_pams(q, LinMap(Matrix(field, [[field.one] * 4]))))


def _dense_bumped(field_name, part, at):
    """verify_quasi_hopf of _dense_left with one entry of phi, phi^-1, Delta or the product bumped."""
    qh = _dense_left(field_name)
    if part in ("phi", "phi_inv"):
        return verify_quasi_hopf(_with_quasi_hopf(qh, **{part: _bump_vector(getattr(qh, part), *at)}))
    if part == "delta":
        return verify_quasi_hopf(_with_quasi_hopf(qh, coalgebra=_bump_delta(qh, *at)))
    mult = Algebra(qh.field, _bump_tensor(qh.algebra.mult, *at), qh.algebra.unit)
    return verify_quasi_hopf(_with_quasi_hopf(qh, algebra=mult))


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
        "mult[3,2,1]+1": lambda: _quotient_under(mult=_bump_tensor(_taft_hopf().mult, 3, 2, 1))().report,
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
        # a fully dense phi, over Q and over F_7
        **{
            f"c4/k1 {field} {part}[{','.join(map(str, at))}]+1": functools.partial(_dense_bumped, field, part, at)
            for field, part, at in (
                ("Q", "phi", (37,)), ("Q", "phi_inv", (0,)), ("Q", "delta", (5, 2)),
                ("F7", "phi", (0,)), ("F7", "phi_inv", (37,)), ("F7", "delta", (5, 2)),
            )
        },
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
            ("coinvariants-equal-image", False, "coinvariants of h -> sum h_1 (x) pi(h_2) differ from iota(B)"),
        ],
        # a non-associative parent, which certify_coideal rejects: build_quotient
        # proves pi a module map from associativity and checks nothing of it
        "mult[3,2,1]+1": [
            ("dim-product-law", True, ""),
            ("pi-splits-lift", True, ""),
            ("pi-kills-ideal", True, ""),
            ("pi-surjective", True, ""),
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
        "c4/k1 Q phi[37]+1": [
            ("associator-invertible", "phi phi_inv != 1"),
            ("pentagon", "pentagon identity"),
        ],
        "c4/k1 Q phi_inv[0]+1": [
            ("associator-invertible", "phi phi_inv != 1"),
            ("preantipode-associator-inverse", "sum T(phibar1) phibar2 T(phibar3) != T(eps#1)"),
            ("s1-associator-inverse-antipode", "sum S(phibar1) alpha phibar2 beta S(phibar3)"),
            ("s2-associator-inverse-antipode", "sum S(phibar1) alpha phibar2 beta S(phibar3)"),
        ],
        "c4/k1 Q delta[5,2]+1": [
            ("comult-algebra-map", "Delta(e2 e2): coordinate 5: 2 != 4"),
            ("comult-unital", "Delta(1) != 1 (x) 1"),
            ("quasi-coassociativity", "basis 0"),
            ("pentagon", "pentagon identity"),
        ],
        "c4/k1 F7 phi[0]+1": [
            ("associator-invertible", "phi phi_inv != 1"),
            ("associator-normalized", "eps on a leg of phi"),
            ("pentagon", "pentagon identity"),
            ("preantipode-associator", "sum phi1 T(phi2) phi3"),
            ("s1-associator-antipode", "sum phi1 beta S(phi2) alpha phi3"),
            ("s2-associator-antipode", "sum phi1 beta S(phi2) alpha phi3"),
        ],
        "c4/k1 F7 phi_inv[37]+1": [
            ("associator-invertible", "phi phi_inv != 1"),
        ],
        "c4/k1 F7 delta[5,2]+1": [
            ("comult-algebra-map", "Delta(e2 e2): coordinate 5: 2 != 4"),
            ("comult-unital", "Delta(1) != 1 (x) 1"),
            ("quasi-coassociativity", "basis 0"),
            ("pentagon", "pentagon identity"),
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


def _checks(report):
    """The checks of report(), a Report returned or carried by the CertificationError raised."""
    try:
        return report().checks
    except CertificationError as err:
        return err.report.checks


def _left_checks(p):
    """The report.checks of left_partial_dual(p), raised or returned."""
    return _checks(lambda: left_partial_dual(p).report)


def _taft_hopf_bumps():
    """verify_hopf's report.checks under every one-entry bump of Taft-4's
    multiplication, comultiplication and antipode."""
    h = _taft_hopf()
    for part in ("mult", "comult"):
        t = getattr(h, part)
        for at in itertools.product(*map(range, t.dims)):
            yield verify_hopf(_taft_hopf(**{part: _bump_tensor(t, *at)})).checks
    for at in itertools.product(range(h.dim), repeat=2):
        yield verify_hopf(_taft_hopf(antipode=_bump_matrix(h.antipode, *at))).checks


def _cells(*dims):
    return itertools.product(*map(range, dims))


def _pams_bumps(name):
    """certify_pams's report.checks under every one-entry bump of zeta and
    of gamma, the other map unchanged."""
    p, _ = _system(name)
    for map_name in ("zeta", "gamma"):
        m = getattr(p, map_name).matrix
        for at in _cells(m.nrows, m.ncols):
            maps = {"zeta": p.zeta, "gamma": p.gamma, map_name: LinMap(_bump_matrix(m, *at))}
            yield _checks(lambda: certify_pams(p.quotient, **maps).report)


def _parent_bumps(h):
    """h with one entry of its multiplication or comultiplication bumped, every way."""
    for at in _cells(*h.mult.dims):
        yield HopfAlgebra(Algebra(QQ, _bump_tensor(h.mult, *at), h.unit), h.coalgebra, h.antipode)
    for at in _cells(*h.comult.dims):
        yield HopfAlgebra(h.algebra, Coalgebra(QQ, _bump_tensor(h.comult, *at), h.counit), h.antipode)


def _supplied_zeta_bumps(name):
    """The (kind, witness) raised by find_cointegral on a supplied zeta,
    then by gamma_from_zeta, under every one-entry bump of zeta; None
    where the call passes."""
    p, _ = _system(name)
    m = p.zeta.matrix
    for at in _cells(m.nrows, m.ncols):
        zeta = LinMap(_bump_matrix(m, *at))
        for build in (
            lambda: find_cointegral(p.quotient, {"kind": "user-supplied", "zeta": zeta}),
            lambda: gamma_from_zeta(p.quotient, zeta),
        ):
            try:
                build()
                yield None
            except CertificationError as err:
                yield err.kind, err.witness


def _primal_bumps(name):
    """_check_primal's report.checks under every one-entry bump of zeta,
    gamma, zeta_bar and gamma_bar, the other three unchanged."""
    p, _ = _system(name)
    maps = {"zeta": p.zeta, "gamma": p.gamma, "zeta_bar": p.zeta_bar, "gamma_bar": p.gamma_bar}
    for map_name, f in maps.items():
        for at in _cells(f.matrix.nrows, f.matrix.ncols):
            report = Report("primal")
            _check_primal(p.quotient, report=report, **dict(maps, **{map_name: LinMap(_bump_matrix(f.matrix, *at))}))
            yield report.checks


def _inclusion_bumps(name):
    """_certify_inclusion's report.checks under every one-entry bump of
    iota, then of the parent's multiplication and comultiplication."""
    b = _system(name)[0].coideal
    m = b.iota.matrix
    for at in _cells(m.nrows, m.ncols):
        yield _checks(lambda: _certify_inclusion(b.parent, LinMap(_bump_matrix(m, *at))).report)
    for h in _parent_bumps(b.parent):
        yield _checks(lambda: _certify_inclusion(h, b.iota).report)


def _quotient_bumps(name):
    """build_quotient's report.checks with B read inside a parent whose
    multiplication or comultiplication has one entry bumped."""
    b = _system(name)[0].coideal
    for h in _parent_bumps(b.parent):
        yield _checks(lambda: build_quotient(_with_coideal(b, parent=h)).report)


def _structure_bumps(qh):
    """qh with one entry of its multiplication or comultiplication bumped, every way."""
    for at in _cells(*qh.algebra.mult.dims):
        yield _with_algebra_mult(qh, *at)
    c = qh.coalgebra
    for at in _cells(*c.comult.dims):
        yield _with_quasi_hopf(qh, coalgebra=Coalgebra(c.field, _bump_tensor(c.comult, *at), c.counit))


def _iso_bumps(name, check):
    """The iso check's report.checks under every bump of the second
    side's structure and, for op_iso_check, which reads the first side's
    products for its map, every bump of the first side's multiplication."""
    left, kind = _left(name), {biop_iso_check: "biop-dual", op_iso_check: "op"}[check]
    for other in _structure_bumps(_induced(name, kind)):
        yield _checks(lambda: check(left, other))
    if check is op_iso_check:
        for at in _cells(*left.algebra.mult.dims):
            yield _checks(lambda: check(_with_algebra_mult(left, *at), _induced(name, kind)))


def _split_bumps(fixture):
    """The (kind, witness) raised by pams_from_split_projection, over Q
    and F_7, under every one-entry bump of pi and of gamma of a split
    fixture of the CLI, the other map unchanged; None where it passes."""
    for field in (QQ, PrimeField(7)):
        h, a, pi, gamma = _split_fixture(fixture, field)
        for map_name, m in (("pi", pi.matrix), ("gamma", gamma.matrix)):
            for at in _cells(m.nrows, m.ncols):
                maps = {"pi": pi, "gamma": gamma, map_name: LinMap(_bump_matrix(m, *at))}
                try:
                    pams_from_split_projection(h, a, **maps)
                    yield None
                except CertificationError as err:
                    yield err.kind, err.witness


def _dense_bumps(field_name):
    """verify_quasi_hopf's report.checks on the dense-phi system under every
    one-entry bump of phi, of phi^-1, of Delta and of the product: a bumped
    product breaks the unit law, which the pentagon must not lean on."""
    for part, dims in (("phi", (64,)), ("phi_inv", (64,)), ("delta", (16, 4)), ("mult", (4, 4, 4))):
        for at in _cells(*dims):
            yield _dense_bumped(field_name, part, at).checks


def _digest(reports):
    digest = hashlib.sha256()
    for checks in reports:
        digest.update(repr(checks).encode())
    return digest.hexdigest()


# one SHA-256 over the report.checks, or the raised (kind, witness), of every
# one-entry perturbation
DIGESTS = {
    "taft left_partial_dual": "834b43ed9d346476a87e3ef9a215eb31932894b8e0b2cc46837455f9fe7e5f1b",
    "c4 left_partial_dual": "960794eb77375b9274b85a8394795bbd75b99de1ba62418f419bb40fd2c9959c",
    "taft4 verify_hopf": "db8bf08edf29291ff2c71a78e25680e2afdf4e89e1b14f9d03587dc69f8d6f78",
    "taft certify_pams": "d2c25778fd33c0ea1fff19d3873b9ada6892285d6907d4da39eec89c4fa3b32b",
    "c4 certify_pams": "7665b53fc358c2e573b3a7e3d591af315a755642cb38cd7763644fcd21c0d4a9",
    "s3 certify_pams": "94ff95756d82f0cd4fcd1f3d6158a7127283b814a71761c0e2ea80f9b14666b8",
    "taft supplied zeta": "3b7d2cbff5cfe6269ea48cae6096d8411414e9bbea7e8569929f37b00fcc9e42",
    "c4 supplied zeta": "085cb12618c073c90d34e913e65b105349b564031f9c366aa952f5f7cead0d7b",
    "s3 supplied zeta": "df352b5860b22212d1a64e4af00a1968a086c1a8cbed09cc14c836076bd32620",
    "taft _check_primal": "2f0ec5985fa7cb6cac4dd87bd136a9386c06b45b77e990646bc2bdb33f05e7f3",
    "c4 _check_primal": "6c838dae13162d3269a14b0cfdf821e476aba2cbe2c4e2736b7af8356a3b651a",
    "s3 _check_primal": "df672df5f3d20316bd8c680af1ae11bb7e37fb428892cd567825a620a2cc70a6",
    "taft _certify_inclusion": "0702838987d732b6cd0b698bbafd19d9aaa917e006069f0925a5fada024ff314",
    "c4 _certify_inclusion": "a67bf441667a5d1879b2b2efd521aece4bcc29654691dd18554a01f857455043",
    "taft build_quotient": "f7bfdc3f22e3a2eb53a945da224fdabca786c649f6b432b4e937c2f39f08e590",
    "c4 build_quotient": "847da4ee3be0d5c659a486e830b2bf51df4df171816613500ba9ecb5d5bf178f",
    "taft biop_iso_check": "08bda3c05a7f37f9f14b1f5aad243a0c6e4fd680a6eabaa245eaacfeb6dda4bd",
    "taft op_iso_check": "ac2eabf5843f1636e5a57dfdd053c3105990742aa6089df5c1bdf33579e25d1b",
    "c4 biop_iso_check": "0939cc6046d6ac90946e20ccc960d3bebbf7a103faeb49d3a604de08565c1fff",
    "c4 op_iso_check": "0ab9f78b1256e0f2b2540baacf4e114613a309686200141f323a345e0dff9d1c",
    "s3-sign split projection": "002788df371b4469a445df13b5a2851fe49f679aa5259e6bafe684e0ec9adc3c",
    "c2xc3-to-c3 split projection": "144ce0277921cefffe902e13fced528fd0830a842f3f62e9e55d8eee0b32ff6a",
    "taft split projection": "986272e9f23470132b6321c47f19630ff9bf221f5d3589dddd6f34793e9f32c7",
    "c4/k1 Q dense phi": "7b563d9dc74ae4dd4db76dec751d5d2559947a192416682da03e861b6dc5f40f",
    "c4/k1 F7 dense phi": "54bd23d9182961d71ca9eadf78a0c5b43cb81a14b8a89c8730322d051759814f",
}
PERTURBED_REPORTS = {
    "taft left_partial_dual": lambda: map(_left_checks, _perturbations("taft")),
    "c4 left_partial_dual": lambda: map(_left_checks, _perturbations("c4")),
    "taft4 verify_hopf": _taft_hopf_bumps,
    **{f"{name} certify_pams": functools.partial(_pams_bumps, name) for name in ("taft", "c4", "s3")},
    **{f"{name} supplied zeta": functools.partial(_supplied_zeta_bumps, name) for name in ("taft", "c4", "s3")},
    **{f"{name} _check_primal": functools.partial(_primal_bumps, name) for name in ("taft", "c4", "s3")},
    **{f"{name} _certify_inclusion": functools.partial(_inclusion_bumps, name) for name in ("taft", "c4")},
    **{f"{name} build_quotient": functools.partial(_quotient_bumps, name) for name in ("taft", "c4")},
    **{
        f"{name} {check.__name__}": functools.partial(_iso_bumps, name, check)
        for name in ("taft", "c4")
        for check in (biop_iso_check, op_iso_check)
    },
    **{
        f"{fixture} split projection": functools.partial(_split_bumps, fixture)
        for fixture in ("s3-sign", "c2xc3-to-c3", "taft")
    },
    **{f"c4/k1 {field} dense phi": functools.partial(_dense_bumps, field) for field in ("Q", "F7")},
}


@pytest.mark.parametrize("name", DIGESTS)
def test_every_first_failure_witness_is_pinned(name):
    """The whole report (names, pass/fail, witnesses) of every one-entry
    perturbation is pinned: a check that compares its sides another way
    must name the same first failing index with the same text."""
    assert _digest(PERTURBED_REPORTS[name]()) == DIGESTS[name]
