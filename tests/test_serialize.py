"""Document round trips, canonical form, and rejection of bad input."""

import json
import random

import pytest

from partialdual.coideal import CoidealSubalgebra, build_quotient, certify_coideal
from partialdual.examples import (
    MatchedPair,
    cyclic,
    direct_product_pair,
    group_algebra,
    s3_pair,
    symmetric,
    taft4,
)
from partialdual.hopf import CertificationError, HopfAlgebra
from partialdual.linalg import QQ, PrimeField
from partialdual.pams import Pams, certify_pams
from partialdual.partial_dual import (
    CoquasiHopfAlgebra,
    QuasiHopfAlgebra,
    left_partial_dual,
    right_partial_dual,
    verify_quasi_hopf,
)
from partialdual.serialize import DocumentError, parse, parse_matrix_text, serialize


@pytest.fixture(scope="module")
def taft_pams():
    h, b, zeta = taft4(QQ, 1)
    return certify_pams(build_quotient(b), zeta)


def reloaded(obj):
    return parse(serialize(obj))


def test_hopf_round_trip():
    for h in (group_algebra(symmetric(3), QQ), taft4(PrimeField(5), 2)[0]):
        h2 = reloaded(h)
        assert isinstance(h2, HopfAlgebra)
        assert h2 == h
        assert serialize(h2) == serialize(h)


def test_coideal_round_trip(taft_pams):
    b = taft_pams.quotient.coideal
    b2 = reloaded(b)
    assert isinstance(b2, CoidealSubalgebra)
    assert b2.parent == b.parent
    assert b2.iota.matrix == b.iota.matrix
    assert b2.mult == b.mult
    assert b2.coaction == b.coaction
    assert b2.report.ok
    assert serialize(b2) == serialize(b)


def test_pams_round_trip(taft_pams):
    p = taft_pams
    p2 = reloaded(p)
    assert isinstance(p2, Pams)
    assert p2.zeta.matrix == p.zeta.matrix
    assert p2.gamma.matrix == p.gamma.matrix
    assert p2.quotient.pi.matrix == p.quotient.pi.matrix
    assert p2.quotient.lift.matrix == p.quotient.lift.matrix
    assert p2.quotient.parent == p.quotient.parent
    assert p2.report.ok
    assert serialize(p2) == serialize(p)


def test_quasi_hopf_round_trip(taft_pams):
    qh = left_partial_dual(taft_pams)
    q2 = reloaded(qh)
    assert isinstance(q2, QuasiHopfAlgebra)
    assert q2.algebra.mult == qh.algebra.mult
    assert q2.algebra.unit == qh.algebra.unit
    assert q2.coalgebra.comult == qh.coalgebra.comult
    assert q2.coalgebra.counit == qh.coalgebra.counit
    assert q2.phi == qh.phi
    assert q2.phi_inv == qh.phi_inv
    assert q2.t_map == qh.t_map
    assert q2.upsilon == qh.upsilon
    # the antipode triples come back from t and upsilon, not from the file
    assert q2.antipodes == qh.antipodes
    assert q2.pams is None
    assert verify_quasi_hopf(q2).ok
    assert serialize(q2) == serialize(qh)


def test_coquasi_hopf_round_trip(taft_pams):
    co = right_partial_dual(taft_pams)
    c2 = reloaded(co)
    assert isinstance(c2, CoquasiHopfAlgebra)
    assert c2 == co
    assert c2.hopf_view() == co.hopf_view()
    assert serialize(c2) == serialize(co)


def test_matched_pair_round_trip():
    for m in (s3_pair(), direct_product_pair(cyclic(2), cyclic(3))):
        m2 = reloaded(m)
        assert isinstance(m2, MatchedPair)
        assert m2.f.table == m.f.table
        assert m2.g.table == m.g.table
        assert m2.act_on_f == m.act_on_f
        assert m2.act_on_g == m.act_on_g


def test_matched_pair_keeps_its_field():
    doc = serialize(s3_pair()).replace('"field": "Q"', '"field": "Fp:5"')
    assert '"field": "Fp:5"' in doc
    assert parse(doc).field is PrimeField(5)
    assert serialize(parse(doc)) == doc


def test_canonical_form(taft_pams):
    text = serialize(taft_pams)
    assert text == serialize(taft_pams)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["format"] == "pams-cas/1"
    assert doc["kind"] == "pams"
    assert list(doc) == sorted(doc)
    for name, entries in doc["tensors"].items():
        indices = [tuple(idx) for idx, _ in entries]
        assert indices == sorted(indices), name
        assert all(scalar != "0" for _, scalar in entries), name


def test_parse_accepts_non_canonical_scalars():
    h = group_algebra(cyclic(2), QQ)
    doc = json.loads(serialize(h))
    doc["tensors"]["unit"] = [[[0], "2/2"]]
    assert parse(json.dumps(doc)) == h


def test_quasi_hopf_document_with_shuffled_phi_reads_back_canonically(taft_pams):
    """phi's entries in another order, with an explicit "0" and a "2/2", parse
    to the same associator, and the object writes the canonical text again."""
    qh = left_partial_dual(taft_pams)
    text = serialize(qh)
    doc = json.loads(text)
    entries = doc["tensors"]["phi"]
    assert [1, 1, 1] not in [idx for idx, _ in entries] and entries[0][1] == "1"
    entries[0][1] = "2/2"
    entries.append([[1, 1, 1], "0"])
    random.Random(0).shuffle(entries)
    q2 = parse(json.dumps(doc))
    assert q2.phi == qh.phi
    assert verify_quasi_hopf(q2).ok
    assert serialize(q2) == text


def corrupt(obj, mutate):
    doc = json.loads(serialize(obj))
    mutate(doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def c2():
    return group_algebra(cyclic(2), QQ)


def test_rejects_syntax_error():
    with pytest.raises(DocumentError, match=r"line 2, column 7"):
        parse('{\n "x": }')


def test_rejects_non_object():
    with pytest.raises(DocumentError, match="JSON object"):
        parse("[1, 2]")


def test_rejects_bad_envelope(c2):
    with pytest.raises(DocumentError, match="unsupported format"):
        parse(corrupt(c2, lambda d: d.update(format="pams-cas/9")))
    with pytest.raises(DocumentError, match="unknown kind"):
        parse(corrupt(c2, lambda d: d.update(kind="bialgebra")))
    with pytest.raises(DocumentError, match="missing key 'tensors'"):
        parse(corrupt(c2, lambda d: d.pop("tensors")))
    with pytest.raises(DocumentError, match="field descriptor"):
        parse(corrupt(c2, lambda d: d.update(field="R")))
    with pytest.raises(DocumentError, match="positive integer"):
        parse(corrupt(c2, lambda d: d["dims"].update(dim=0)))


def test_rejects_bad_entries(c2):
    with pytest.raises(DocumentError, match="out of range"):
        parse(corrupt(c2, lambda d: d["tensors"]["unit"].append([[5], "1"])))
    with pytest.raises(DocumentError, match="duplicate index"):
        parse(corrupt(c2, lambda d: d["tensors"]["unit"].append([[0], "2"])))
    with pytest.raises(DocumentError, match="must be 3 integers"):
        parse(corrupt(c2, lambda d: d["tensors"]["mult"].append([[0, 1], "1"])))
    # a JSON boolean is no index, though Python counts it an int
    with pytest.raises(DocumentError, match=r"'unit' entry 0: index must be 1 integers"):
        parse(corrupt(c2, lambda d: d["tensors"]["unit"][0].__setitem__(0, [False])))
    with pytest.raises(DocumentError, match="malformed rational"):
        parse(corrupt(c2, lambda d: d["tensors"]["counit"][0].__setitem__(1, "1/0")))
    with pytest.raises(DocumentError, match="index-list, scalar-string"):
        parse(corrupt(c2, lambda d: d["tensors"]["counit"].append([[1], 3])))


def test_parse_reruns_certification(taft_pams):
    bad = corrupt(taft_pams, lambda d: d["tensors"]["zeta"].__setitem__(0, [[0, 0], "7"]))
    with pytest.raises(CertificationError) as err:
        parse(bad)
    assert err.value.report is not None
    assert not err.value.report.ok


def test_matched_pair_table_validation():
    m = s3_pair()
    with pytest.raises(DocumentError, match="out of range"):
        parse(corrupt(m, lambda d: d["tables"]["f"][0].__setitem__(0, 9)))
    with pytest.raises(DocumentError, match=r"expected 3 rows"):
        parse(corrupt(m, lambda d: d["tables"]["g"].pop()))
    # structurally fine tables that fail the matched-pair laws
    with pytest.raises(ValueError, match="act trivially"):
        parse(corrupt(m, lambda d: d["tables"]["act_on_f"][0].__setitem__(1, 0)))


def test_matrix_text():
    m = parse_matrix_text('[["1", "-2/3"], ["0", "4"]]', QQ)
    assert m.nrows == 2 and m.ncols == 2
    assert m.rows[0][1] == QQ.from_str("-2/3")
    with pytest.raises(DocumentError, match="ragged"):
        parse_matrix_text('[["1"], ["0", "1"]]', QQ)
    with pytest.raises(DocumentError, match="scalar string"):
        parse_matrix_text('[[1]]', QQ)
    with pytest.raises(DocumentError, match="nonempty JSON array"):
        parse_matrix_text("{}", QQ)
