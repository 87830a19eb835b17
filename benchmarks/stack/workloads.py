"""The four workloads: the same six verbs (put, seal, verify, get,
audit, search) over four paths through the stack, in four mixes.

Every workload is a closed loop: a client issues its next operation
only when the previous one returned.  Two-client workloads run one
thread per client (the box has two cores).  Each client draws its
payloads and its operation sequence from its own ``random.Random``,
seeded from the run's master generator, so the inputs are a function
of ``--seed`` alone whatever the thread timing.

The amount of work is fixed, not the time: :meth:`Workload.plan`
turns the seconds a phase is given (a third of ``--seconds``, see
``run.py``) into a count of rounds at the rate the seed commit
sustains (``per_second``), so a 5 s phase does about 5 s of work there
and every run of one commit does the same operations.
That keeps the counters of the single-client workloads exact, and
keeps a latency that grows with the store (an audit reads every
sealed line) from depending on how far a faster or slower run got.

Only default-constructed public API is used, and no ``lock_mode``,
``sessions`` or ``engine`` argument is passed: a PR that changes a
default or deletes a knob shows its effect here without breaking the
benchmark.

Sizes are set by the sealed-line geometry (a line is a power-of-two
run of blocks holding hash block + inode + data) and by what a member
can hold before ``NoSpaceError``: every ``cap`` below leaves the
fullest member of the ring at about three quarters of its blocks.
Object names do not depend on the seed, so neither does placement.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, List, Optional

from recorder import Recorder
from repro.api.fleet import FleetStore
from repro.api.store import SealReceipt, StoreConfig
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayServer,
    TokenTable,
    confine,
)
from repro.parallel import (
    RpcExecutor,
    close_connection_pools,
    reset_host_health,
    spawn_local_worker,
)
from repro.search import EvidenceIndex
from repro.security import attacks

TENANTS = ("acme", "globex")
TOKENS = "root-tok=admin;" + ";".join(f"{t}-tok={t}:rw" for t in TENANTS)

#: Each client's operations in a phase split into this many laps of
#: equal counts.
LAPS = 5

#: Verbs that only read, for the pooled tail latency.
READS = ("get", "verify", "info")
WRITES = ("put", "seal")


def _peak_rss_kb(pid: int) -> int:
    """Peak resident kB of a live process (``VmHWM``), 0 where the
    kernel does not say.  ``RUSAGE_CHILDREN`` will not do for a
    worker: a child's peak starts at its parent's size at the fork, so
    once this process outgrows a worker it reads this process again."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _intact(report) -> bool:
    return report.intact


def _clean(report) -> bool:
    return report.clean


def _one_hit(result) -> bool:
    return result.total == 1


class Workload:
    """Shared shape: ``plan`` → ``setup`` → ``client`` loops →
    ``finish`` → ``close``.

    ``sealed`` maps each sealed object's storage path to its seal
    receipt; ``contents`` holds what was put, so every ``get`` can be
    compared.  Clients touch disjoint paths, so the dicts need no
    lock under the GIL.
    """

    name = ""
    clients = 1
    steady = False    # steady the clients' latencies (see recorder.py)
    members = 4
    blocks = 1024
    per_second = 1.0  # rounds per client the seed commit sustains
    cap = LAPS        # rounds per client the members have room for
    worker_rss_kb = 0  # peak of the largest worker process, set at close

    def __init__(self) -> None:
        self.fleet: Optional[FleetStore] = None
        self.index: Optional[EvidenceIndex] = None
        self.sealed: Dict[str, SealReceipt] = {}
        self.contents: Dict[str, bytes] = {}
        self.free_at_format = 0
        self.rounds = LAPS

    @property
    def user_bytes(self) -> int:
        """Payload bytes put so far."""
        return sum(len(data) for data in self.contents.values())

    def plan(self, seconds: float) -> None:
        """Fix the work: rounds per client for a phase of ``seconds``,
        at least one a lap and at most ``cap``."""
        self.rounds = min(max(LAPS, round(self.per_second * seconds)),
                          self.cap)

    # -- provisioning -------------------------------------------------------

    def _provision(self, **fleet_args) -> None:
        self.fleet = FleetStore.create(
            self.members,
            StoreConfig(total_blocks=self.blocks, audit_log=True),
            **fleet_args)
        self.free_at_format = self.free_blocks(self.fleet)

    @staticmethod
    def free_blocks(fleet: FleetStore) -> int:
        return sum(m.fs.free_space_blocks() for m in fleet.members)

    def _prepopulate(self, rng, count: int, size: int) -> None:
        """Seal ``count`` objects straight through the fleet, spread
        over the tenants, in directories of 16."""
        for i in range(count):
            path = confine(TENANTS[i % len(TENANTS)], f"/base/{i // 16}/{i}")
            data = rng.randbytes(size)
            self.fleet.put(path, data, make_parents=True)
            self.contents[path] = data
        for receipt in self.fleet.seal_many(list(self.contents)):
            self.sealed[receipt.path] = receipt

    # -- the verbs, on this workload's path through the stack ---------------
    # (storage paths in, so finish() can drive any workload)

    def do_verify(self, path: str):
        return self.fleet.verify(path)

    def do_audit(self):
        return self.fleet.audit()

    def do_search(self, query: str):
        return self.index.search(query)

    # -- lifecycle ----------------------------------------------------------

    def setup(self, rng) -> None:
        raise NotImplementedError

    def client(self, k: int, rng, rec: Recorder,
               go_on: Callable[[], bool]) -> None:
        """Client ``k``'s ``self.rounds`` rounds; ``go_on`` turns
        false only when the run has overstayed several times over."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def log_chunks(self) -> int:
        """Sealed instruction-log chunks: lines an audit verifies that
        no client sealed."""
        return sum(len(m.audit_log.sealed_chunks)
                   for m in self.fleet.members if m.audit_log is not None)

    def finish(self, rec: Recorder) -> None:
        """The correctness gate, run once timing has stopped.

        The closing audit must be clean and cover exactly the sealed
        objects plus the sealed log chunks; a path-selective search
        must return its one object; the index must equal its own
        rebuild; and one magnetic overwrite inside a sealed line must
        turn that object's verify non-intact and the audit unclean —
        a fast path that stops detecting tamper is a different
        program.
        """
        expected = len(self.sealed) + self.log_chunks()
        rec.call("check.audit", self.do_audit,
                 expect=lambda r: r.clean and r.lines_verified == expected)
        victim = min(self.sealed)
        rec.call("check.search", self.do_search, f"path:{victim}",
                 expect=_one_hit)
        rec.call("check.rebuild", self.index.rebuild,
                 expect=lambda fresh: fresh.canonical_bytes()
                 == self.index.canonical_bytes())
        member = self.fleet.members[self.fleet.route(victim)]
        receipt = self.sealed[victim]
        # the line's last block (data or zero padding, never the inode
        # or an indirect block, whose damage is a read error instead)
        attacks.mwb_data(member.device, receipt.line_start,
                         target_offset=receipt.n_blocks - 1)
        rec.call("check.tamper_verify", self.do_verify, victim,
                 expect=lambda r: not r.intact)
        rec.call("check.tamper_audit", self.do_audit,
                 expect=lambda r: not r.clean)


class _Gateway(Workload):
    """Two tenant clients over loopback HTTP against an in-process
    ``GatewayServer``, and an admin connection for the audits.

    Audits run in windows: after each round both tenants pause at a
    barrier while client 0 sends ``audits`` admin audits back to back.
    An audit takes the fleet-exclusive gate, so one sent while the
    other tenant is mid-flight mostly times that tenant's request,
    stalls the requests behind it, and leaves both clients in a
    lockstep that differs from run to run; in a window it times the
    audit, at every size the store goes through.
    """

    clients = 2
    audits = 2  # per window

    def __init__(self) -> None:
        super().__init__()
        self.server: Optional[GatewayServer] = None
        self.tenant_clients: List[GatewayClient] = []
        self.admin: Optional[GatewayClient] = None
        self.window = threading.Barrier(self.clients, timeout=60)

    def _serve(self) -> None:
        # GatewayApp attaches its own EvidenceIndex to the fleet
        app = GatewayApp(self.fleet, TokenTable.from_spec(TOKENS))
        self.index = app.index
        self.server = GatewayServer(app).start()

    def _connect(self) -> None:
        self.tenant_clients = [
            GatewayClient(self.server.address, f"{tenant}-tok", tenant=tenant)
            for tenant in TENANTS]
        self.admin = GatewayClient(self.server.address, "root-tok")
        for client in self.tenant_clients + [self.admin]:
            client.healthz()  # connect before the clock starts

    def do_verify(self, path: str):
        _root, _t, tenant, relative = path.split("/", 3)
        return self.admin.verify("/" + relative, tenant=tenant)

    def do_audit(self):
        return self.admin.audit()

    def do_search(self, query: str):
        tenant = query.split("/")[2]
        return self.admin.search(query, tenant=tenant)

    def close(self) -> None:
        for client in self.tenant_clients + [self.admin]:
            if client is not None:
                client.close()
        if self.server is not None:
            self.server.close()

    def client(self, k, rng, rec, go_on) -> None:
        try:
            for i in range(self.rounds):
                if not go_on():
                    self.window.abort()
                    break
                self._round(k, i, rng, rec)
                self.window.wait()
                if k == 0:
                    self._audit_window(rec)
                self.window.wait()
                self.tenant_clients[k].healthz()  # idle since the barrier
        except BaseException:
            self.window.abort()  # do not leave the other client waiting
            raise

    def _audit_window(self, rec: Recorder) -> None:
        # off the clock, here and after the window: the first request
        # on a connection that sat idle may skip the delayed-ACK stall
        # every later one pays
        self.admin.healthz()
        for _ in range(self.audits):
            rec.call("audit", self.admin.audit, expect=_clean)

    def _round(self, k: int, i: int, rng, rec: Recorder) -> None:
        raise NotImplementedError

    def _ingest(self, k: int, rec: Recorder, relative: str,
                data: bytes) -> str:
        """put → seal one object through tenant ``k``'s connection;
        returns its storage path."""
        client = self.tenant_clients[k]
        path = confine(TENANTS[k], relative)
        rec.call("put", client.put, relative, data,
                 expect=lambda info: info.size == len(data))
        self.contents[path] = data
        receipt = rec.call("seal", client.seal, relative,
                           expect=lambda r: r.path == path)
        if receipt is not None:
            self.sealed[path] = receipt
        return path


class GwIngest(_Gateway):
    """Ingest: every round one 12 KiB object goes through put, seal,
    verify and get, and every second round is looked up by path."""

    name = "gw_ingest"
    blocks = 2048
    size = 12 * 1024  # 24 data blocks + inode + hash: a 32-block line
    per_second = 3.0  # a round is one object: 4.5 operations
    cap = 35

    def setup(self, rng) -> None:
        self._provision()
        self._serve()
        self._connect()

    def _round(self, k, i, rng, rec) -> None:
        client = self.tenant_clients[k]
        relative = f"/in/{i // 8}/{i}"
        data = rng.randbytes(self.size)
        path = self._ingest(k, rec, relative, data)
        rec.call("verify", client.verify, relative, expect=_intact)
        rec.call("get", client.get, relative,
                 expect=lambda got: got == data)
        if i % 2:
            rec.call("search", client.search, f"path:{path}",
                     expect=_one_hit)


class GwSmall(_Gateway):
    """Read-mostly: every round ten draws from ``mix`` on 400 B
    objects, so the storage layers are nearly idle."""

    name = "gw_small"
    blocks = 1024
    size = 400
    base = 128        # objects sealed during setup
    per_second = 1.6  # a round is ten draws from the mix
    cap = 45
    draws = 10
    mix = {"info": 30, "verify": 25, "get": 25, "search": 10, "put": 10}

    def __init__(self) -> None:
        super().__init__()
        self.mine: List[List[str]] = []  # per client: its sealed paths

    def setup(self, rng) -> None:
        self._provision()
        self._serve()
        self._prepopulate(rng, self.base, self.size)
        self._connect()
        self.mine = [sorted(p for p in self.sealed
                            if p.startswith(f"/t/{tenant}/"))
                     for tenant in TENANTS]

    def _round(self, k, i, rng, rec) -> None:
        client, mine = self.tenant_clients[k], self.mine[k]
        prefix = f"/t/{TENANTS[k]}"
        kinds, weights = list(self.mix), list(self.mix.values())
        for draw in range(self.draws):
            kind = rng.choices(kinds, weights)[0]
            path = rng.choice(mine)
            relative = path[len(prefix):]
            if kind == "info":
                rec.call("info", client.info, relative,
                         expect=lambda info: info.sealed)
            elif kind == "verify":
                rec.call("verify", client.verify, relative, expect=_intact)
            elif kind == "get":
                rec.call("get", client.get, relative,
                         expect=lambda got: got == self.contents[path])
            elif kind == "search":
                rec.call("search", client.search, f"path:{path}",
                         expect=_one_hit)
            else:
                mine.append(self._ingest(
                    k, rec, f"/new/{i}/{draw}", rng.randbytes(self.size)))


class LibAudit(Workload):
    """In-process: every round puts ``batch`` objects, seals them in
    one ``seal_many``, audits the fleet ``passes`` times, searches, and
    spot-checks one verify and one get.

    Object ``n`` is named so that the ring routes it to member
    ``n % members``: every round then loads the members alike, and a
    batch costs the same passes whichever round it is.
    """

    name = "lib_audit"
    steady = True     # all compute, no kernel timer in any operation
    blocks = 2048
    size = 2048       # 4 data blocks + inode + hash: an 8-block line
    base = 96
    batch = 2         # objects put and sealed per round
    passes = 1        # audits per round
    per_second = 7.0  # a round is 10 operations
    cap = 100

    def setup(self, rng) -> None:
        self._provision()
        self.index = EvidenceIndex()
        self.fleet.attach_indexer(self.index)
        self._prepopulate(rng, self.base, self.size)

    def _path_on(self, member: int, tenant: str, stem: str) -> str:
        """The first of ``stem.0``, ``stem.1``, ... that the ring
        routes to ``member``."""
        for salt in itertools.count():
            path = confine(tenant, f"{stem}.{salt}")
            if self.fleet.route(path) == member:
                return path

    def _put_batch(self, rng, rec, round_no: int) -> List[str]:
        """``batch`` puts and one seal_many, in-process."""
        paths = []
        for j in range(self.batch):
            n = round_no * self.batch + j
            path = self._path_on(n % self.members, TENANTS[j % len(TENANTS)],
                                 f"/r/{round_no // 4}/{n}")
            data = rng.randbytes(self.size)
            rec.call("put", self.fleet.put, path, data, make_parents=True,
                     expect=lambda info, n=len(data): info.size == n)
            self.contents[path] = data
            paths.append(path)
        receipts = rec.call(
            "seal", self.fleet.seal_many, paths,
            expect=lambda rs: [r.path for r in rs] == paths)
        for receipt in receipts or ():
            self.sealed[receipt.path] = receipt
        return paths

    def _queries(self, path: str) -> int:
        """What an investigator asks in one sitting: one object by
        path, a tenant's sealed set, everything intact, a free term.
        One ``search`` operation; returns the by-path hit count."""
        tenant = path.split("/")[2]
        hits = self.index.search(f"path:{path}").total
        self.index.search(f"tenant:{tenant} sealed:true")
        self.index.search("verdict:intact")
        self.index.search(tenant)
        return hits

    def client(self, k, rng, rec, go_on) -> None:
        pool = sorted(self.sealed)
        for round_no in range(self.rounds):
            if not go_on():
                break
            paths = self._put_batch(rng, rec, round_no)
            pool.extend(paths)
            # after the first pass nothing has changed: the others
            # time the steady state
            for _ in range(self.passes):
                rec.call("audit", self.fleet.audit, expect=_clean)
            # then, per new object: look it up, and spot-check one
            # verify and one get anywhere in the store (object-grain
            # calls stay in-process under any executor)
            for new in paths:
                rec.call("search", self._queries, new,
                         expect=lambda hits: hits == 1)
                rec.call("verify", self.fleet.verify, rng.choice(pool),
                         expect=_intact)
                path = rng.choice(pool)
                rec.call("get", self.fleet.get, path,
                         expect=lambda got: got == self.contents[path])


class RpcPasses(LibAudit):
    """The same rounds with the fleet passes (seal_many, audit) sent
    to two local worker daemons; a batch has one object per member."""

    name = "rpc_passes"
    blocks = 1024
    size = 1024       # 2 data blocks + inode + hash: a 4-block line
    batch = 4
    passes = 2
    # a round is 19 operations, 3 of them fleet passes; 15 rounds a 5 s
    # phase take the seed commit 6 to 7 s, but fewer leave seal_many
    # under 40 samples a run
    per_second = 3.0
    cap = 60

    def __init__(self) -> None:
        super().__init__()
        self.workers = []

    def setup(self, rng) -> None:
        for _ in range(2):
            self.workers.append(spawn_local_worker())
        self._provision(executor=RpcExecutor(
            [w.address for w in self.workers]))
        self.index = EvidenceIndex()
        self.fleet.attach_indexer(self.index)
        # one round off the clock: the workers' first passes are cold
        warm = Recorder()
        self._put_batch(rng, warm, -1)
        warm.call("audit", self.fleet.audit, expect=_clean)
        if warm.errors:
            raise RuntimeError(f"rpc warm-up failed: {warm.errors}")

    def close(self) -> None:
        for worker in self.workers:
            self.worker_rss_kb = max(self.worker_rss_kb,
                                     _peak_rss_kb(worker.process.pid))
            worker.stop()
        close_connection_pools()
        reset_host_health()


WORKLOADS = {cls.name: cls
             for cls in (GwIngest, GwSmall, LibAudit, RpcPasses)}
