"""Checkpoint/restore determinism — the serve-mode acceptance contract.

The pinned property: run a session to tick T, checkpoint, restore the
file **in a fresh process**, run both the original and the restored copy
to tick T+N — the replay digests are byte-identical.  Covered across
two seeds and a sharded (shards=2) deployment.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet.spec import FaultEvent
from repro.serve import (CheckpointError, ServeSession, ServeSpec,
                         load_checkpoint, read_metadata, save_checkpoint)
from repro.serve.checkpoint import MAGIC
from repro.services.dml import DmlConfig, DmlJob

REPO = Path(__file__).resolve().parents[2]


def fresh_process_digest(path: Path, run_ticks: int) -> str:
    """Restore ``path`` in a brand-new interpreter and run it forward."""
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.cli", "checkpoint",
         "digest", str(path), "--run-ticks", str(run_ticks)],
        capture_output=True, text=True, timeout=300,
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"})
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return result.stdout.strip()


class TestRestoreDeterminism:
    @pytest.mark.parametrize("spec", [
        ServeSpec(seed=7),
        ServeSpec(seed=11),
        ServeSpec(seed=7, pods=2, spines=2, shards=2),
    ], ids=["seed7", "seed11", "seed7-sharded"])
    def test_fresh_process_restore_matches_uninterrupted(
            self, spec, tmp_path):
        checkpoint_tick, extra_ticks = 12, 15
        session = ServeSession(spec)
        for _ in range(checkpoint_tick):
            session.tick()
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        # The original keeps running without interruption...
        for _ in range(extra_ticks):
            session.tick()
        uninterrupted = session.replay_digest()
        # ...while a fresh interpreter restores the file and catches up.
        assert fresh_process_digest(path, extra_ticks) == uninterrupted

    def test_in_process_restore_matches(self, tmp_path):
        session = ServeSession(ServeSpec(seed=3))
        for _ in range(10):
            session.tick()
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        for _ in range(10):
            session.tick()
            restored.tick()
        assert restored.replay_digest() == session.replay_digest()
        assert restored.ticks == session.ticks

    def test_cut_with_a_packet_in_lookahead_flight(self, tmp_path):
        """The hardest cut for the walker: a packet whose remaining hops
        were already added up, its one pending event and its in-flight
        entry in the pickle — plus parked (never-started) service-tracing
        tasks, whose private jitter streams ride along."""
        session = ServeSession(ServeSpec(seed=7, tick_ns=50_000))
        fabric = session.cluster.fabric
        for _ in range(400_000):
            session.tick()
            if any(t.look_idx < t.idx for t in fabric._in_flight.values()):
                break
        else:
            pytest.fail("no tick boundary caught a packet mid-lookahead")
        assert all(state.tasks[2].stopped
                   for agent in session.system.agents.values()
                   for state in agent.states.values())
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        assert restored.cluster.fabric.packets_in_flight \
            == fabric.packets_in_flight
        # Long enough to deliver it, complete its probe and upload the
        # result: 6 s of 50 us ticks would be slow, so run the sims flat.
        for twin in (session, restored):
            twin.cluster.sim.run_for(6 * 10 ** 9)
        assert restored.replay_digest() == session.replay_digest()
        assert restored.cluster.fabric.packets_delivered \
            == fabric.packets_delivered > 0

    def test_cut_with_a_packet_in_lookahead_flight_over_a_loaded_hop(
            self, tmp_path):
        """The same cut where a looked-ahead hop is *loaded*: 520 Gbps on
        a 400 Gbps link behind healthy PFC fills the buffer in 1.1 ms and
        is a constant from then on (335 us a packet) that the plan has
        already added up.  The constant rides in the pickle beside the
        link's ``quiet`` flag, and a load write after the restore still
        takes the restored packet's lookahead back."""
        overload = FaultEvent.make("link_overload", "host0-rnic0",
                                   "pod0-tor0", start_s=0, extra_gbps=520.0)
        session = ServeSession(ServeSpec(seed=7, tick_ns=50_000,
                                         campaign=(overload,)))
        fabric = session.cluster.fabric

        def crossing(world):
            link = world.cluster.topology.link("host0-rnic0", "pod0-tor0")
            return link, [
                t for t in world.cluster.fabric._in_flight.values()
                if link in t.path.hops[t.look_idx:t.idx]]

        for _ in range(400_000):
            session.tick()
            link, looking = crossing(session)
            if looking:
                break
        else:
            pytest.fail("no tick boundary caught a packet mid-lookahead")
        assert link.quiet and link.queue_bytes == link.buffer_bytes
        assert link.quiet_wait_ns == round(link.buffer_bytes * 8 / 400.0)
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        for twin in (session, restored):
            twin.cluster.sim.run_for(6 * 10 ** 9)
        assert restored.replay_digest() == session.replay_digest()
        assert restored.cluster.fabric.packets_delivered \
            == fabric.packets_delivered > 0
        # And a third copy, where the load goes away mid-plan: the packets
        # stay in the queue they stand in and give the rest of the plan back.
        relieved = load_checkpoint(path)
        link, looking = crossing(relieved)
        assert looking and not relieved.cluster.fabric.walker_demotions
        link.set_offered_load(relieved.cluster.sim.now, 0.0)
        assert relieved.cluster.fabric.walker_demotions >= len(looking)
        assert not link.quiet and not crossing(relieved)[1]

    def test_cut_with_host_steps_planned_and_not_yet_due(self, tmp_path):
        """The hardest cut for host lookahead: a first ACK posted for an
        instant still to come, its departure, the second ACK chained behind
        it and both packets' walks all ran ahead of the clock — the RNIC's
        planned steps, the raw counters and the in-flight entries ride in
        the pickle, and a write after the restore still takes them back."""
        session = ServeSession(ServeSpec(seed=7, tick_ns=20_000))
        rnics = session.cluster.all_rnics()
        for _ in range(400_000):
            session.tick()
            if any(len(rnic.planned(1)) for rnic in rnics):
                break
        else:
            pytest.fail("no tick boundary caught an ACK posted ahead")
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        planned = [len(rnic.planned()) for rnic in rnics]
        assert sum(planned) >= 2
        assert [len(rnic.planned())
                for rnic in restored.cluster.all_rnics()] == planned
        for twin in (session, restored):
            twin.cluster.sim.run_for(6 * 10 ** 9)
        assert restored.replay_digest() == session.replay_digest()
        # And a third copy, where the responder's host dies mid-plan.
        downed = load_checkpoint(path)
        rnic = next(r for r in downed.cluster.all_rnics() if len(r.planned(1)))
        acks = downed.system.agents[rnic.host.name].acks_sent
        rnic.host.set_down()
        assert rnic.step_demotions >= 2 and not rnic.planned()
        downed.cluster.sim.run_for(100_000)
        assert downed.system.agents[rnic.host.name].acks_sent == acks

    def test_cut_while_a_fault_and_a_dml_job_both_hold_one_host(
            self, tmp_path):
        """The holds table rides in the pickle: the fault's 0.96 and the
        job's phase loads on host0 both survive the cut, and releasing the
        fault after the restore leaves the job's load, not a stale one."""
        overload = FaultEvent.make("cpu_overload", "host0", start_s=2,
                                   end_s=8, load=0.96)
        session = ServeSession(ServeSpec(seed=7, campaign=(overload,)))
        cluster = session.cluster
        DmlJob(cluster, cluster.rnic_names()).start()
        for _ in range(5):
            session.tick()
        assert cluster.hosts["host0"].cpu.load == 0.96
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        for _ in range(7):
            session.tick()
            restored.tick()
        assert restored.replay_digest() == session.replay_digest()
        loads = {twin.cluster.hosts["host0"].cpu.load
                 for twin in (session, restored)}
        assert len(loads) == 1 and loads <= {DmlConfig.compute_cpu_load,
                                            DmlConfig.comm_cpu_load}

    def test_cut_mid_fold_with_a_timeout_queued(self, tmp_path):
        """The Analyzer's open window rides in the pickle as its fold: cut
        between two uploads of one window, with a flow of timeouts queued
        for steps 1-7 at close, the restored copy closes that window to
        the same verdicts, SLA numbers and digest as the run that never
        stopped."""
        down = FaultEvent.make("rnic_down", "host1-rnic0", start_s=2)
        session = ServeSession(ServeSpec(seed=7, campaign=(down,)))
        for _ in range(12):     # the window closes at 20 s
            session.tick()
        fold = session.system.analyzer._fold
        assert fold.flows and fold.batches
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        assert restored.system.analyzer.ingest_backlog == fold.batches
        for _ in range(13):
            session.tick()
            restored.tick()
        assert restored.replay_digest() == session.replay_digest()

        def first_window_sla(twin):
            sla = twin.system.analyzer.sla.reports[0].cluster
            return (sla.probes_total, sla.timeouts_rnic,
                    sla.rtt_percentiles(), sla.processing_percentiles())

        assert first_window_sla(restored) == first_window_sla(session)
        assert first_window_sla(session)[1] > 0

    def test_uptime_and_alert_state_survive(self, tmp_path):
        session = ServeSession(ServeSpec(seed=3))
        for _ in range(8):
            session.tick()
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        restored = load_checkpoint(path)
        assert restored.ticks == 8
        assert restored.alerts.firing() == session.alerts.firing()
        assert len(restored.history) == len(session.history)
        snap = restored.system.obs.metrics.snapshot()
        assert snap["repro_uptime_ticks"] == 8


class TestFileFormat:
    def make_checkpoint(self, tmp_path) -> Path:
        session = ServeSession(ServeSpec(seed=1))
        for _ in range(3):
            session.tick()
        path = tmp_path / "ck.bin"
        save_checkpoint(session, path)
        return path

    def test_metadata_readable_without_unpickling(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        meta = read_metadata(path)
        assert meta["format"] == 15
        assert meta["tick"] == 3
        assert meta["sim_now_ns"] == 3 * 10 ** 9
        assert meta["seed"] == 1
        assert meta["spec"]["rules"]  # spec rides along as plain JSON

    def test_metadata_is_canonical_json_line(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        line = raw[len(MAGIC):].split(b"\n", 1)[0].decode()
        assert json.loads(line) == json.loads(
            json.dumps(json.loads(line), sort_keys=True))

    def test_older_formats_refused(self, tmp_path):
        """A v1 payload holds per-hop fabric events and one shared jitter
        state, a v2 one the pre-gather/conclude Analyzer and the
        registry-backed EndpointStats, a v3 one per-event wire departures
        and the Agent's ``send_roles``, a v4 one a FaultManager with no
        identity table, a v5 one links without the constant a loaded hop
        costs, a v6 one an Analyzer that does not remember which uploads
        it took, a v7 one writers that restore their own "before" and no
        holds table, a v8 one a calendar queue and the fabric's and RNICs'
        memos, a v9 one an Analyzer holding its window as raw batches and
        links without a stored name, a v10 one a fold queueing raw timeouts
        instead of their flows, a v11 one an engine with a separate event
        queue, dataclass 5-tuples and Agent QPs fed receive CQEs, a v12
        one RNICs with a CQE free list and rail probers fed receive CQEs,
        a v13 one links, cables, ACLs and a topology relaying take-backs
        through callbacks of their own, with no take-back ledger, a v14
        one free lists of recycled events, packets and transits and
        generation-checked handles apart from their events; resuming any of them under this code would diverge silently or
        fail to unpickle."""
        path = self.make_checkpoint(tmp_path)
        magic, meta_line, payload = path.read_bytes().split(b"\n", 2)
        meta = json.loads(meta_line)
        for old in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
            meta["format"] = old
            path.write_bytes(b"\n".join(
                [magic, json.dumps(meta, sort_keys=True).encode(), payload]))
            for reader in (read_metadata, load_checkpoint):
                with pytest.raises(
                        CheckpointError,
                        match=f"unsupported checkpoint format {old}"):
                    reader(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(CheckpointError):
            read_metadata(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_cli_info_prints_metadata(self, tmp_path):
        # Under -W error: run as ``python -m repro.serve.checkpoint``, the
        # module was imported twice (once by repro.serve) and warned.
        path = self.make_checkpoint(tmp_path)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.cli", "checkpoint",
             "info", str(path)],
            capture_output=True, text=True, timeout=120, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"})
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert json.loads(result.stdout)["tick"] == 3

