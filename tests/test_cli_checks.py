"""The CLI's product checks: every cap reads its operands' sizes from one pass over their terms."""

from qdisk.cli import _check_product, parse_element
from qdisk.zalgebra import ZElement


class _CountingTerms(dict):
    """A term dict that counts each key, value or item any iteration over it hands out."""

    visits = 0

    def _count(self, it):
        for x in it:
            self.visits += 1
            yield x

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def test_a_product_check_visits_each_term_once():
    # degree, coefficient bits, |mu| |lambda| and the row's top index all come from one pass
    a = parse_element("(1 - q)*z[1]*w[2] + 3*z[2]^2 + q^2*w[1]*w[3] - 5", 3)
    b = parse_element("z[3]*w[1] - 2*q*z[1]^2*w[3] + w[2]/(1 - q^3)", 3)
    ca, cb = (ZElement._of(3, _CountingTerms(x.terms)) for x in (a, b))
    _check_product(ca, cb, None)
    assert (ca.terms.visits, cb.terms.visits) == (len(a.terms), len(b.terms)) == (4, 3)
