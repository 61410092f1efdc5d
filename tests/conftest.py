import pytest

from expander_cs import DesignMatrix, search_certified_graph

# Certified working instance shared by the recovery / oracle-inequality
# tests. Random left-regular graphs at p=64, d=8 cannot be (4, 1/8)
# expanders until n is in the mid-thousands (pairwise neighbor collisions
# are guaranteed below that; see test_acceptance for the literal
# small-n search), so the suite certifies its instance at n=1536.
CERT_P, CERT_D, CERT_N, CERT_S, CERT_EPS = 64, 8, 1536, 4, 0.125


@pytest.fixture(scope="session")
def certified():
    graph, report, attempts = search_certified_graph(
        CERT_P, CERT_D, [CERT_N], CERT_S, CERT_EPS, max_seeds=50)
    assert graph is not None, "certified instance search failed"
    return graph, DesignMatrix(graph), report
