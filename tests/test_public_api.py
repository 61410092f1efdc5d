"""Guard for the package's public surface.

``perfbench/make_reference.py`` calls the library directly; the calls
below mirror its call shapes at tiny sizes, so an API change that would
break the benchmark's reference generator fails here first.
"""

import math

import expander_cs as ec


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from expander_cs import *", namespace)
    missing = [name for name in ec.__all__ if name not in namespace]
    assert not missing


def test_reference_generator_call_shapes():
    g = ec.random_left_regular(8, 2, 16, 0)
    rep = ec.check_expansion_exhaustive(g, 2, 0.125)
    assert isinstance(rep.ok, bool) and rep.trials >= 1
    assert rep.worst_ratio is not None

    q, l = 4, 2
    r = next(d for d in range(2, q + 1) if q % d == 0)
    g = ec.pv_expander(ec.GF(r, round(math.log(q, r))), l, 2, 2)
    assert (g.p, g.n, g.d) == (16, 64, 4) and len(g.neighbors) == g.p
    rep = ec.check_expansion_exhaustive(g, 2, 0.125)
    assert rep.ok in (True, False)

    g, rep, attempts = ec.search_certified_graph(8, 2, [32], 1, 0.125, max_seeds=5)
    assert g is not None and rep.ok and attempts == 1


def test_pv_expander_calls_the_traced_poly_routines(monkeypatch):
    # perfbench's tracer times fields.poly_mod_pow and fields.poly_eval by
    # wrapping the names graphs imports; pv_expander must call them there,
    # once per power map after the first and once per map, or the per-layer
    # fields.poly_* metrics read 0
    import expander_cs.graphs as graphs

    calls = {"poly_mod_pow": 0, "poly_eval": 0}
    for name in calls:
        def counted(*args, _fn=getattr(graphs, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(graphs, name, counted)
    ec.pv_expander(ec.GF(7), 2, 3, 2)
    assert calls == {"poly_mod_pow": 2, "poly_eval": 3}
