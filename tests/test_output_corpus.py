"""A checked-in corpus of outputs, one md5 per (input, genus, order) group.

The genus half hashes ``str`` and ``to_json()`` of the exponential, the
logarithm and a_+ of every catalog genus (hurewicz with 1-4 generators) at
catalog orders -1..6.  The localization half hashes, at orders 0-2 and for
every catalog genus, the ``cf_series`` entry strings, ``genus_value`` and
``phi`` in both modes, or the text of the exception each raises, on CP^1-CP^4
with every eps, the 20 squares with delta in {-1, 0, 1}, the bundled data
s6, flag3 and cp1, and the flip of point 0 of each.  The verdicts half
hashes, per group of the localization half, ``conner_floyd_ok()``,
``rigid()`` and ``first_violation()`` of the same ``cf_series`` call.

A change that moves one output byte fails here and names the group.
``python tests/test_output_corpus.py`` rewrites the corpus file; do that
only for a change that is meant to alter the output.
"""

import hashlib
import itertools
import json
import os

import pytest

from toricgenera.fgl import CATALOG_NAMES, catalog
from toricgenera.localize import cf_series, dataset, genus_value, phi
from toricgenera.quasitoric import signs_and_weights, simplex_pair, square_pair

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "output_corpus.json")
GENUS_ORDERS = range(-1, 7)
ORDERS = range(3)


def _genera():
    """(group name, name, generators) of every catalog genus."""
    for name in CATALOG_NAMES:
        for generators in range(1, 5) if name == "hurewicz" else (None,):
            yield (name if generators is None else "%s%d" % (name, generators),
                   name, generators)


def _inputs():
    """{input name: fixed point data}, each with the flip of its point 0."""
    inputs = {}
    for n in range(1, 5):
        for eps in itertools.product((1, -1), repeat=n):
            pair = simplex_pair(n, eps)
            inputs[pair.name] = signs_and_weights(pair)
    for e1, e2, d1, d2 in itertools.product((1, -1), (1, -1), (-1, 0, 1),
                                            (-1, 0, 1)):
        if abs(e1 * e2 - d1 * d2) == 1:
            pair = square_pair(e1, e2, d1, d2)
            inputs[pair.name] = signs_and_weights(pair)
    for name in ("s6", "flag3", "cp1"):
        inputs["builtin:" + name] = dataset(name)
    for name, fpd in list(inputs.items()):
        inputs[name + ":flip0"] = fpd.flip_one(0)
    return inputs


def _md5(texts):
    h = hashlib.md5()
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the text of a refusal is an output too
        return "%s: %s" % (type(exc).__name__, exc)


def genus_group(name, generators, order):
    spec = catalog(name, order, generators=generators)
    return _md5(text for s in (spec.exponential, spec.logarithm,
                               spec.a_plus())
                for text in (str(s), s.to_json()))


def localization_group(fpd, name, order):
    """(outputs, verdicts), the md5s of one (input, genus, order) group;
    the genus is built, as the CLI builds it, to catalog order
    ``max(order, 1) + n - 1``, so universal ``phi`` on data of dimension
    3 and 4 rebuilds it.  Both read one ``cf_series`` call."""
    genus = catalog(name, max(order, 1) + fpd.n - 1)
    cf = _outcome(lambda: cf_series(fpd, genus, order))
    if isinstance(cf, str):
        cf_text = verdicts = cf
    else:
        cf_text = "\n".join(e.value_str() for e in cf)
        verdicts = "%s %s %s" % (cf.conner_floyd_ok(), cf.rigid(),
                                 cf.first_violation())
    return _md5([
        cf_text,
        _outcome(lambda: str(genus_value(fpd, genus))),
        _outcome(lambda: str(phi(fpd, genus, "linear", order))),
        _outcome(lambda: str(phi(fpd, genus, "universal", order))),
    ]), _md5([verdicts])


def compute():
    """The whole corpus: {"genus": {...}, "localization": {...},
    "verdicts": {...}}."""
    groups = {label: {name: [localization_group(fpd, name, order)
                             for order in ORDERS] for name in CATALOG_NAMES}
              for label, fpd in INPUTS.items()}
    return {
        "genus": {group: [genus_group(name, generators, order)
                          for order in GENUS_ORDERS]
                  for group, name, generators in _genera()},
        "localization": {label: {name: [o for o, _v in md5s]
                                 for name, md5s in per_genus.items()}
                         for label, per_genus in groups.items()},
        "verdicts": {label: {name: [v for _o, v in md5s]
                             for name, md5s in per_genus.items()}
                     for label, per_genus in groups.items()},
    }


def _load():
    with open(CORPUS) as f:
        return json.load(f)


EXPECTED = _load() if os.path.exists(CORPUS) else None
INPUTS = _inputs()


@pytest.mark.parametrize("group", [g for g, _n, _c in _genera()])
def test_genus_outputs_match_the_corpus(group):
    (name, generators), = [(n, c) for g, n, c in _genera() if g == group]
    got = [genus_group(name, generators, order) for order in GENUS_ORDERS]
    want = EXPECTED["genus"][group]
    for order, g, w in zip(GENUS_ORDERS, got, want):
        assert g == w, "genus %s at catalog order %d" % (group, order)


@pytest.mark.parametrize("label", sorted(INPUTS))
def test_localization_outputs_match_the_corpus(label):
    fpd = INPUTS[label]
    want = EXPECTED["localization"][label]
    verdicts = EXPECTED["verdicts"][label]
    assert sorted(want) == sorted(verdicts) == sorted(CATALOG_NAMES)
    for name in CATALOG_NAMES:
        for order in ORDERS:
            where = "%s, genus %s, order %d" % (label, name, order)
            outputs, verdict = localization_group(fpd, name, order)
            assert outputs == want[name][order], where
            assert verdict == verdicts[name][order], "verdicts of " + where


def test_the_corpus_covers_every_group():
    assert sorted(EXPECTED["genus"]) == sorted(g for g, _n, _c in _genera())
    for half in ("localization", "verdicts"):
        assert sorted(EXPECTED[half]) == sorted(INPUTS)
        assert sum(len(orders) for per_genus in EXPECTED[half].values()
                   for orders in per_genus.values()) == 2862
    assert len(INPUTS) == 106


def write(path=CORPUS):
    """Write the corpus, one line per group of the genus half and per
    input of the localization and verdicts halves."""
    corpus = compute()
    lines = []
    for half in ("genus", "localization", "verdicts"):
        lines.append('"%s": {\n%s\n}' % (half, ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
            for key, value in sorted(corpus[half].items()))))
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write()
