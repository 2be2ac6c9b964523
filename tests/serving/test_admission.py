"""Deadline-aware admission control: policy unit behaviour and the
server-level shedding mechanics (intake, dequeue, GPU batch assembly)."""

from collections import deque

import numpy as np
import pytest

from repro.hardware import CPU_E2, GPU_T4
from repro.serving import (
    ActixProfile,
    AdmissionPolicy,
    BatchingConfig,
    EtudeInferenceServer,
)
from repro.serving.request import HTTP_OK, HTTP_SERVICE_UNAVAILABLE
from repro.simulation import Simulator
from tests.replay import make_profile, make_request


class TestPolicyParsing:
    def test_defaults(self):
        policy = AdmissionPolicy.parse("")
        assert policy == AdmissionPolicy()
        assert policy.discipline == "fifo"

    def test_full_spec_round_trips(self):
        policy = AdmissionPolicy.parse(
            "codel,slack=0.01,target=0.004,interval=0.2,depth=32"
        )
        assert policy.discipline == "codel"
        assert policy.slack_s == 0.01
        assert policy.codel_target_s == 0.004
        assert AdmissionPolicy.parse(policy.spec_string()) == policy

    def test_bare_discipline_token(self):
        assert AdmissionPolicy.parse("lifo").discipline == "lifo"

    def test_unknown_tokens_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy.parse("sjf")
        with pytest.raises(ValueError):
            AdmissionPolicy.parse("slak=0.1")


class TestViability:
    def test_no_deadline_is_always_viable(self):
        policy = AdmissionPolicy(slack_s=0.01)
        assert policy.viable(None, now=1e9)

    def test_slack_sheds_before_the_deadline(self):
        policy = AdmissionPolicy(slack_s=0.010)
        assert policy.viable(1.000, now=0.989)
        assert not policy.viable(1.000, now=0.990)
        assert not policy.viable(1.000, now=2.0)


class TestDisciplines:
    def _entries(self, n):
        return deque((make_request(i), lambda r: None, float(i)) for i in range(n))

    def test_fifo_pops_oldest(self):
        queue = self._entries(5)
        entry = AdmissionPolicy().pop(queue)
        assert entry[0].request_id == 0

    def test_lifo_pops_newest_only_past_threshold(self):
        policy = AdmissionPolicy(discipline="lifo", lifo_threshold=4)
        shallow = self._entries(4)
        assert policy.pop(shallow)[0].request_id == 0  # below threshold: FIFO
        deep = self._entries(6)
        assert policy.pop(deep)[0].request_id == 5  # above: newest first

    def test_codel_sheds_only_on_sustained_excess(self):
        policy = AdmissionPolicy(
            discipline="codel", codel_target_s=0.005, codel_interval_s=0.1
        )
        state = policy.make_state()
        # First excess arms the interval, does not shed.
        assert not policy.codel_should_shed(state, sojourn_s=0.02, now=0.0)
        # Still inside the interval: no shed.
        assert not policy.codel_should_shed(state, sojourn_s=0.02, now=0.05)
        # Sustained past the interval: shed, and the interval tightens.
        assert policy.codel_should_shed(state, sojourn_s=0.02, now=0.11)
        # Dropping below target resets the controller.
        assert not policy.codel_should_shed(state, sojourn_s=0.001, now=0.12)
        assert state.first_above_at is None

    def test_fifo_discipline_never_codel_sheds(self):
        policy = AdmissionPolicy(discipline="fifo")
        state = policy.make_state()
        assert not policy.codel_should_shed(state, sojourn_s=10.0, now=100.0)


class TestServerShedding:
    def _server(self, sim, admission, device=None, batching=None):
        device = device or CPU_E2.device
        return EtudeInferenceServer(
            sim,
            device,
            make_profile(device, fixed_bytes=45e6),  # ~10 ms per inference
            np.random.default_rng(0),
            profile=ActixProfile(admission=admission),
            batching=batching,
        )

    def test_doomed_on_arrival_is_shed_at_intake(self):
        sim = Simulator()
        server = self._server(sim, AdmissionPolicy(slack_s=0.005))
        responses = []

        def sender():
            yield 1.0
            # Deadline already inside the slack window at send time.
            server.submit(
                make_request(0, sim.now, deadline_s=sim.now + 0.004),
                responses.append,
            )

        sim.spawn(sender())
        sim.run()
        assert [r.status for r in responses] == [HTTP_SERVICE_UNAVAILABLE]
        assert server.shed_deadline == 1
        assert server.completed == 0
        # Satellite: live sheds pay HTTP handling — the 503 is not instant.
        assert responses[0].latency_s > 0.0

    def test_expired_queue_entries_shed_at_dequeue(self):
        sim = Simulator()
        server = self._server(sim, AdmissionPolicy())
        responses = []

        def sender():
            # Burst far exceeding what 10 ms/inference can clear in 50 ms:
            # the tail of the queue expires while waiting.
            for index in range(40):
                server.submit(
                    make_request(index, sim.now, deadline_s=sim.now + 0.05),
                    responses.append,
                )
            if False:
                yield  # pragma: no cover

        sim.spawn(sender())
        sim.run()
        assert len(responses) == 40
        statuses = {r.status for r in responses}
        assert statuses == {HTTP_OK, HTTP_SERVICE_UNAVAILABLE}
        assert server.shed_deadline > 0
        assert server.completed + server.shed_total == 40
        # Every delivered 200 made its deadline; doomed work never executed.
        for response in responses:
            if response.status == HTTP_OK:
                assert response.completed_at <= response.latency_s + 0.05

    def test_gpu_batches_contain_only_viable_requests(self):
        sim = Simulator()
        server = self._server(
            sim,
            AdmissionPolicy(),
            device=GPU_T4.device,
            batching=BatchingConfig(max_batch_size=8, max_delay_s=0.002),
        )
        responses = []

        def sender():
            for index in range(30):
                server.submit(
                    make_request(index, sim.now, deadline_s=sim.now + 0.004),
                    responses.append,
                )
            if False:
                yield  # pragma: no cover

        sim.spawn(sender())
        sim.run()
        assert len(responses) == 30
        executed = [r for r in responses if r.status == HTTP_OK]
        # The 2 ms linger leaves little slack on a 4 ms deadline: the first
        # flush executes, later queue generations are shed, not batched.
        assert server.shed_deadline > 0
        assert all(r.batch_size <= 8 for r in executed)
        assert server.completed + server.shed_total == 30

    def test_no_admission_keeps_counters_at_zero(self):
        sim = Simulator()
        server = EtudeInferenceServer(
            sim,
            CPU_E2.device,
            make_profile(CPU_E2.device),
            np.random.default_rng(0),
        )
        responses = []
        server.submit(make_request(0, 0.0, deadline_s=0.0), responses.append)
        sim.run()
        # Without a policy, an expired deadline is ignored (paper behaviour).
        assert [r.status for r in responses] == [HTTP_OK]
        assert server.shed_total == 0
