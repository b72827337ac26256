"""Command-line front end over the document formats described in FORMAT.md.

Documents are written to stdout and certification reports to stderr, so
transform commands compose in a shell pipe.  The verify commands print
their report to stdout instead; the report is the product there.  Every
FILE argument accepts ``-`` for stdin and defaults to it.  Exit status
is 0 exactly when everything that was asked for certified.

Each process runs one command, so each command imports what it runs:
only linalg, hopf and serialize are imported up front, and coideal,
pams, partial_dual and examples by the commands that call them (parse
imports the certifiers of the kind it reads).  A command on Hopf
documents compiles none of the certifiers.
"""

from __future__ import annotations

import functools
import sys
from itertools import permutations
from typing import TYPE_CHECKING

import click

from partialdual.hopf import (
    INDUCED_KINDS,
    CertificationError,
    HopfAlgebra,
    LinMap,
    Report,
    biopposite,
    coopposite,
    dual,
    opposite,
    verify_hopf,
)
from partialdual.linalg import Matrix, field_from_descriptor
from partialdual.serialize import DocumentError, parse, parse_matrix_text, serialize

if TYPE_CHECKING:
    from partialdual.coideal import CoidealSubalgebra
    from partialdual.examples import MatchedPair

__all__ = ["main"]


def _read(path: str) -> str:
    with click.open_file(path, "r") as fh:
        return fh.read()


def _load(path: str, kind: str):
    """The document at path, refused unless it is of this kind."""
    return parse(_read(path), kind)


def _emit(obj) -> None:
    click.echo(serialize(obj), nl=False)


def _note(report: Report) -> None:
    click.echo(report.render(), err=True)


def _verdict(report: Report) -> None:
    click.echo(report.render())
    if not report.ok:
        sys.exit(1)


def checked(fn):
    """Map certification, document and file failures onto exit status 1."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except CertificationError as exc:
            if exc.report is not None:
                click.echo(exc.report.render(), err=True)
            click.echo(f"certification failed: {exc}", err=True)
            sys.exit(1)
        except DocumentError as exc:
            click.echo(f"document error: {exc}", err=True)
            sys.exit(1)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return inner


FILE = click.argument("file", default="-")


@click.group()
def main() -> None:
    """Exact partial dualization of finite-dimensional Hopf algebras.

    Structure constants are exact (rationals or a prime field), every
    identity is checked bit for bit, and all randomness is driven by the
    explicit --seed flag of `pams find` (default 0), so each command is
    a deterministic function of its inputs and flags.
    """


@main.command("verify-hopf")
@FILE
@checked
def verify_hopf_cmd(file: str) -> None:
    """Check every axiom of a Hopf algebra document."""
    h = _load(file, "hopf")
    _verdict(verify_hopf(h))


def _transform(file: str, op) -> None:
    # the input is verified, not the output: a transport of a Hopf algebra is Hopf
    h = _load(file, "hopf")
    rep = verify_hopf(h)
    _note(rep)
    if not rep.ok:
        sys.exit(1)
    _emit(op(h))


@main.command("dual")
@FILE
@checked
def dual_cmd(file: str) -> None:
    """Write the dual Hopf algebra."""
    _transform(file, dual)


@main.command("op")
@FILE
@checked
def op_cmd(file: str) -> None:
    """Write the Hopf algebra with reversed multiplication."""
    _transform(file, opposite)


@main.command("cop")
@FILE
@checked
def cop_cmd(file: str) -> None:
    """Write the Hopf algebra with reversed comultiplication."""
    _transform(file, coopposite)


@main.command("biop")
@FILE
@checked
def biop_cmd(file: str) -> None:
    """Reverse both the multiplication and the comultiplication."""
    _transform(file, biopposite)


@main.command("coideal")
@FILE
@click.option("--iota", "iota_file", required=True, metavar="FILE", help="Matrix whose columns span B inside H.")
@checked
def coideal_cmd(file: str, iota_file: str) -> None:
    """Certify a left coideal subalgebra given by an inclusion matrix."""
    from partialdual.coideal import certify_coideal

    h = _load(file, "hopf")
    iota = LinMap(parse_matrix_text(_read(iota_file), h.field))
    b = certify_coideal(h, iota)
    _note(b.report)
    _emit(b)


@main.group("pams")
def pams_group() -> None:
    """Find, re-verify, and transform partially admissible mapping systems."""


def _coideal_from(h: HopfAlgebra, text: str) -> CoidealSubalgebra:
    # a bare JSON array is an inclusion matrix; anything else must be a document
    if text.lstrip()[:1] == "[":
        from partialdual.coideal import certify_coideal

        return certify_coideal(h, LinMap(parse_matrix_text(text, h.field)))
    b = parse(text, "coideal")
    if b.parent != h:
        raise DocumentError("the coideal document was built over a different parent")
    return b


@pams_group.command("find")
@FILE
@click.option("--coideal", "coideal_file", required=True, metavar="FILE", help="Coideal document or inclusion matrix.")
@click.option("--seed", default=0, show_default=True, help="Seed for the deterministic search order.")
@click.option("--bound", default=2, show_default=True, help="Coefficient bound for the small-combination phase.")
@click.option("--max", "max_attempts", default=200, show_default=True, help="Candidates tried before giving up.")
@checked
def pams_find(file: str, coideal_file: str, seed: int, bound: int, max_attempts: int) -> None:
    """Search for a certified mapping system on H over the given coideal."""
    from partialdual.coideal import build_quotient
    from partialdual.pams import certify_pams, find_cointegral

    h = _load(file, "hopf")
    b = _coideal_from(h, _read(coideal_file))
    q = build_quotient(b)
    zeta = find_cointegral(
        q,
        {"kind": "deterministic-search", "seed": seed, "bound": bound, "max_attempts": max_attempts},
    )
    p = certify_pams(q, zeta)
    _note(p.report)
    _emit(p)


@pams_group.command("verify")
@FILE
@checked
def pams_verify(file: str) -> None:
    """Re-run the whole certification of a mapping-system document."""
    p = _load(file, "pams")
    _verdict(p.report)


@pams_group.command("induce")
@FILE
@click.option("--kind", required=True, type=click.Choice(INDUCED_KINDS), help="Which induced system to build.")
@checked
def pams_induce(file: str, kind: str) -> None:
    """Derive one of the induced mapping systems and re-certify it."""
    from partialdual.pams import induced_pams

    p = _load(file, "pams")
    out = induced_pams(p, kind)
    _note(out.report)
    _emit(out)


@main.group("partial-dual")
def partial_dual_group() -> None:
    """Dualize along a certified mapping system."""


@partial_dual_group.command("left")
@click.argument("pamsfile", default="-")
@checked
def partial_dual_left(pamsfile: str) -> None:
    """Build the left partial dual, a quasi-Hopf algebra."""
    from partialdual.partial_dual import left_partial_dual

    p = _load(pamsfile, "pams")
    qh = left_partial_dual(p)
    _note(qh.report)
    _emit(qh)


@partial_dual_group.command("right")
@click.argument("pamsfile", default="-")
@checked
def partial_dual_right(pamsfile: str) -> None:
    """Build the right partial dual, a coquasi-Hopf algebra."""
    from partialdual.partial_dual import right_partial_dual

    p = _load(pamsfile, "pams")
    co = right_partial_dual(p)
    _note(co.report)
    _emit(co)


@main.command("verify-quasi-hopf")
@FILE
@checked
def verify_quasi_hopf_cmd(file: str) -> None:
    """Check every quasi-Hopf axiom of a document, antipodes included."""
    from partialdual.partial_dual import verify_quasi_hopf

    qh = _load(file, "quasi-hopf")
    _verdict(verify_quasi_hopf(qh))


@main.group("example")
def example_group() -> None:
    """Built-in worked examples, emitted as documents."""


@example_group.command("taft4")
@click.option("--lambda", "lam", default="0", show_default=True, help="Deformation scalar, parsed in the field.")
@click.option("--field", "field_desc", default="Q", show_default=True, metavar="F", help="Q or Fp:<p>.")
@checked
def example_taft4(lam: str, field_desc: str) -> None:
    """The 4-dimensional Taft algebra with its canonical mapping system."""
    from partialdual.coideal import build_quotient
    from partialdual.examples import taft4
    from partialdual.pams import certify_pams

    field = field_from_descriptor(field_desc)
    h, b, zeta = taft4(field, field.from_str(lam))
    q = build_quotient(b)
    p = certify_pams(q, zeta)
    _note(p.report)
    _emit(p)


_PAIR_FIXTURES = ("s3", "c2xc3")
_PAIR_FIELD_HELP = "Q or Fp:<p>  [default: the field of the pair; Q for s3 and c2xc3]"


def _pair_from(arg: str, field_desc: str | None) -> MatchedPair:
    """The pair, over `field_desc` when given and over its own field otherwise."""
    from partialdual.examples import MatchedPair, cyclic, direct_product_pair, s3_pair

    if arg == "s3":
        m = s3_pair()
    elif arg == "c2xc3":
        m = direct_product_pair(cyclic(2), cyclic(3))
    else:
        m = parse(_read(arg), "matched-pair")
    if field_desc is None:
        return m
    return MatchedPair(m.f, m.g, m.act_on_f, m.act_on_g, field_from_descriptor(field_desc))


@example_group.command("matched-pair")
@click.argument("fixture", default="s3")
@click.option("--field", "field_desc", metavar="F", help=_PAIR_FIELD_HELP)
@click.option(
    "--emit",
    type=click.Choice(("pams", "pair")),
    default="pams",
    show_default=True,
    help="Emit the certified mapping system or the bare group data.",
)
@checked
def example_matched_pair(fixture: str, field_desc: str | None, emit: str) -> None:
    """A matched pair of groups: built in (s3, c2xc3) or from a file."""
    from partialdual.examples import matched_pair_hopf

    m = _pair_from(fixture, field_desc)
    if emit == "pair":
        _emit(m)
        return
    _, _, p = matched_pair_hopf(m, m.field)
    _note(p.report)
    _emit(p)


@example_group.command("bismash")
@click.argument("fixture", default="s3")
@click.option("--field", "field_desc", metavar="F", help=_PAIR_FIELD_HELP)
@checked
def example_bismash(fixture: str, field_desc: str | None) -> None:
    """The bismash product Hopf algebra of a matched pair."""
    from partialdual.examples import bismash_product

    m = _pair_from(fixture, field_desc)
    h = bismash_product(m, m.field)
    rep = verify_hopf(h)
    _note(rep)
    if not rep.ok:
        sys.exit(1)
    _emit(h)


def _split_fixture(name: str, field):
    from partialdual.examples import cyclic, direct_product_pair, group_algebra, symmetric, taft4

    if name == "s3-sign":
        perms = sorted(permutations(range(3)))

        def parity(p):
            return sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2

        h = group_algebra(symmetric(3), field)
        a = group_algebra(cyclic(2), field)
        pi = LinMap(Matrix(field, [[1 if parity(p) == y else 0 for p in perms] for y in range(2)]))
        gamma = LinMap(Matrix.from_columns(field, [h.basis(0), h.basis(perms.index((1, 0, 2)))], nrows=6))
        return h, a, pi, gamma
    if name == "c2xc3-to-c3":
        m = direct_product_pair(cyclic(2), cyclic(3))
        h = group_algebra(m.group, field)
        a = group_algebra(cyclic(3), field)
        pi = LinMap(Matrix(field, [[1 if i % 3 == y else 0 for i in range(6)] for y in range(3)]))
        gamma = LinMap(Matrix.from_columns(field, [h.basis(y) for y in range(3)], nrows=6))
        return h, a, pi, gamma
    # taft: project onto the group of group-likes
    h = taft4(field, field.one)[0]
    a = group_algebra(cyclic(2), field)
    pi = LinMap(Matrix(field, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    gamma = LinMap(Matrix.from_columns(field, [h.basis(0), h.basis(1)], nrows=4))
    return h, a, pi, gamma


@example_group.command("split-projection")
@click.argument("fixture", type=click.Choice(("s3-sign", "c2xc3-to-c3", "taft")), default="s3-sign")
@click.option("--field", "field_desc", default="Q", show_default=True, metavar="F", help="Q or Fp:<p>.")
@checked
def example_split_projection(fixture: str, field_desc: str) -> None:
    """A mapping system induced by a split projection of Hopf algebras."""
    from partialdual.examples import pams_from_split_projection

    field = field_from_descriptor(field_desc)
    h, a, pi, gamma = _split_fixture(fixture, field)
    p = pams_from_split_projection(h, a, pi, gamma)
    _note(p.report)
    _emit(p)


if __name__ == "__main__":
    main()
