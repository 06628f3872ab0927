"""A byte pin over the printed text of every element model.

One seeded draw builds residues (levels 0-2, negative exponents), digit
ring elements with their squares (p <= 7, E in {1, 2, p}, twist +-1,
plain and Gauss, exact and capped), series, and elements of the top
tower of each construction family; the sha256 of their to_text lines
was recorded before the term writer was shared by the models.
"""

import hashlib
import random
from fractions import Fraction as F

from helpers import series
from vallab.constructions import (build_2ext, build_as_resf, build_as_valgp,
                                  build_kummer_resf, build_kummer_valgp,
                                  build_lemma_3_3)
from vallab.ogroup import ogroup
from vallab.resfield import ResField
from vallab.tower import TElem, to_text
from vallab.values import INFINITE
from vallab.vbase import EqBase, PadicBase, PadicElem

PRIMES = (2, 3, 5, 7)


def _residue(rng, field):
    """A Laurent polynomial of up to four terms; ints only over F_p."""
    p = field.char
    if not field.has_variable():
        return field.elem(rng.randint(0, p - 1))
    return field.elem({rng.randint(-4, 4): rng.randint(1, p - 1)
                       for _ in range(rng.randint(0, 4))})


def _padic(rng, base):
    us = (-1, 0, 1) if base.gauss else (0,)
    digits = {(rng.randint(-2, 8), rng.choice(us)):
              rng.randint(-2 * base.p ** 2, 2 * base.p ** 2)
              for _ in range(rng.randint(0, 4))}
    return PadicElem(base, digits, rng.choice((INFINITE, rng.randint(3, 12))))


def _series(rng, base):
    terms = {F(rng.randint(-6, 6), rng.choice((1, 1, base.p))):
             _residue(rng, base.res.at_level(rng.randint(0, 1))
                      if base.res.has_variable() else base.res)
             for _ in range(rng.randint(0, 4))}
    return series(base, terms)


def _coeff(rng, base):
    if isinstance(base, PadicBase):
        return _padic(rng, base)
    return _series(rng, base)


def _tower_elem(rng, tw):
    exps = [tuple(rng.randint(0, tw.p - 1) for _ in tw.gens)
            for _ in range(rng.randint(0, 4))]
    return TElem(tw, {e: _coeff(rng, tw.base) for e in exps})


def element_texts(seed):
    rng = random.Random(seed)
    out = []
    for p in PRIMES:
        fields = [ResField(p)] + [ResField(p, "ratfun").at_level(lv)
                                  for lv in range(3)]
        for field in fields:
            out += [_residue(rng, field).to_text() for _ in range(400)]
        for E in sorted({1, 2, p}):
            for s in (1, -1):
                for gauss in (False, True):
                    base = PadicBase(p, E, s, gauss)
                    for _ in range(40):
                        x = _padic(rng, base)
                        out += [x.to_text(), (x * x).to_text()]
        for res in (ResField(p), ResField(p, "ratfun")):
            base = EqBase(p, res, ogroup([F(1)], closed={0}, prime=p))
            out += [_series(rng, base).to_text() for _ in range(700)]
    for p in (2, 3):
        towers = [build_lemma_3_3(p).towers[0], build_as_resf(p, 2).towers[-1],
                  build_as_valgp(p, 2).towers[-1],
                  build_kummer_resf(p, 2).towers[-1],
                  build_kummer_valgp(p, 1).towers[-1], build_2ext(p).towers[-1]]
        for tw in towers:
            out += [to_text(_tower_elem(rng, tw)) for _ in range(400)]
    return out


def test_element_text_is_pinned():
    texts = element_texts(0)
    assert len(texts) >= 20000
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == ("cec663195fb2851c2ee78062b6a65a35"
                      "de261f28f8539a2bfbab7a0abedf5c7f"), digest
