"""Endpoint byte accounting and CommStats rendering edge cases.

The comm layer's counters are the runtime ground truth the plan-derived
comm-volume crosschecks compare against, so the accounting rules are
load-bearing: telemetry bytes must never leak into data-link totals,
links that never carried a message must not materialize, and the table
must render exactly what was counted.
"""

import pickle
import queue

from repro.dist.comm import COORDINATOR, CommStats, Empty, Endpoint


def _fabric(nranks=2):
    inboxes = [queue.Queue() for _ in range(nranks)]
    gather = queue.Queue()
    telemetry = queue.Queue()
    coord = Endpoint(rank=COORDINATOR, inboxes=inboxes, gather=gather,
                     telemetry=telemetry)
    workers = [
        Endpoint(rank=r, inboxes=inboxes, gather=gather, telemetry=telemetry)
        for r in range(nranks)
    ]
    return coord, workers


class TestEndpointAccounting:
    def test_send_counts_pickled_bytes_per_link(self):
        coord, (w0, _) = _fabric()
        payload = {"plan": list(range(100))}
        n = coord.send(0, payload)
        assert n == len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert coord.link_bytes[(COORDINATOR, 0)] == n
        assert coord.messages[(COORDINATOR, 0)] == 1
        src, msg, nbytes = w0.recv(timeout=1)
        assert (src, msg, nbytes) == (COORDINATOR, payload, n)

    def test_zero_message_links_do_not_materialize(self):
        coord, (w0, w1) = _fabric()
        coord.send(0, "x")
        # No traffic ever touched rank 1 or the gather direction: those
        # links must be absent, not present-with-zero.
        assert (COORDINATOR, 1) not in coord.link_bytes
        assert (0, COORDINATOR) not in w0.link_bytes
        assert w1.link_bytes == {}
        assert w1.messages == {}

    def test_telemetry_bytes_excluded_from_data_links(self):
        _, (w0, _) = _fabric()
        n_data = w0.send(COORDINATOR, ("done", 0, "report"))
        n_beat = w0.send_telemetry(("hb", 0, 0))
        # One counter each, no cross-talk.
        assert w0.link_bytes[(0, COORDINATOR)] == n_data
        assert w0.telemetry_bytes[(0, COORDINATOR)] == n_beat
        assert sum(w0.link_bytes.values()) == n_data
        assert w0.messages[(0, COORDINATOR)] == 1  # the beat is not a message

    def test_recv_telemetry_drains_then_raises_empty(self):
        coord, (w0, _) = _fabric()
        w0.send_telemetry("beat")
        src, msg, nbytes = coord.recv_telemetry()
        assert (src, msg) == (0, "beat") and nbytes > 0
        try:
            coord.recv_telemetry()
            raised = False
        except Empty:
            raised = True
        assert raised


class TestCommStats:
    def test_directional_totals_split_by_coordinator(self):
        s = CommStats()
        s.absorb({(COORDINATOR, 0): 100, (COORDINATOR, 1): 50,
                  (0, COORDINATOR): 30, (0, 1): 7})
        assert s.scatter_bytes() == 150
        assert s.gather_bytes() == 30
        assert s.a_broadcast_bytes() == 7

    def test_telemetry_total_separate_from_directional_totals(self):
        s = CommStats()
        s.absorb({(0, COORDINATOR): 10})
        s.absorb_telemetry({(0, COORDINATOR): 999})
        assert s.gather_bytes() == 10  # telemetry does not inflate gather
        assert s.telemetry_total() == 999

    def test_summary_mentions_telemetry_only_when_present(self):
        s = CommStats()
        s.absorb({(COORDINATOR, 0): 10})
        assert "telemetry" not in s.summary()
        s.absorb_telemetry({(0, COORDINATOR): 42})
        assert "+42 B telemetry" in s.summary()

    def test_empty_stats_render(self):
        s = CommStats()
        assert "over 0 links" in s.summary()
        assert s.telemetry_total() == 0
