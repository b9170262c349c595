"""The work tally: counts are kept only inside ``counting()``, per thread, per tally."""

import sys
import threading

from sipcert import cli, work
from sipcert.fixtures import load_fixture
from sipcert.model import admissible_diagnostics
from sipcert.multipliers import certify_fj
from sipcert.options import Options
from sipcert.problemfile import emit_json
from sipcert.work import count, counting


def _report(cert) -> str:
    """The certificate as ``certify --json`` writes it, with the ladder's gaps bit for bit."""
    gaps = [gap.hex() for gap in cert.tc.hausdorff_gaps]
    return emit_json(cli._certificate_payload(cert)) + " ".join(gaps)


def test_outside_counting_nothing_is_kept_and_the_results_match(sphere_ladder):
    prob, x = sphere_ladder(1025, [400])
    loaded = load_fixture("sip_linear")
    opts = Options().replace(**loaded.options)

    def results():
        diag = admissible_diagnostics(loaded.problem, loaded.candidate, opts)
        return _report(certify_fj(prob, x)), diag

    count("gap_lps")  # no tally open: dropped
    outside = results()
    assert work._tally.get() is None
    with counting() as counts:
        inside = results()
    assert counts["gap_lps"] == 12 and counts["lipschitz_walks"] == 12
    assert inside == outside
    assert work._tally.get() is None


def test_two_threads_read_only_their_own_counts(sphere_ladder):
    # four threads on two cores, two per problem, switching often: each
    # reads three times its problem's counts and nothing of the others'
    problems = [sphere_ladder(1025, [400]), sphere_ladder(257, [100])]
    alone = []
    for prob, x in problems:
        with counting() as counts:
            certify_fj(prob, x)
        alone.append(dict(counts))
    assert alone[0] != alone[1]
    barrier = threading.Barrier(4)
    together = [None] * 4

    def run(i):
        prob, x = problems[i % 2]
        barrier.wait(timeout=60)  # all certify at once
        with counting() as counts:
            for _ in range(3):
                certify_fj(prob, x)
        together[i] = dict(counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with counting() as main:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    tripled = [{key: 3 * n for key, n in counts.items()} for counts in alone]
    assert together == tripled * 2
    assert main == {}  # a thread does not count into the tally of the one that started it


def test_a_nested_tally_leaves_the_outer_one_as_it_was(sphere_ladder):
    prob, x = sphere_ladder(1025, [400])
    with counting() as outer:
        count("gap_lps", 5)
        with counting() as inner:
            certify_fj(prob, x)
        assert outer == {"gap_lps": 5}
        count("gap_lps")
    assert outer == {"gap_lps": 6}
    assert inner == {"gap_lps": 12, "gap_rows": 184, "gap_pivots": 12, "refined_seeds": 1}
