"""Communicators: point-to-point and collective operations.

The simulator executes every MPI rank as a cooperative task of one
discrete-event :class:`~repro.core.engine.Engine`
(:func:`repro.mpi.runtime.run_spmd`).  All ranks of a communicator share a
single :class:`_CommGroup` — mailboxes for point-to-point messages and a
rendezvous area for collectives — while each rank holds its own
:class:`Communicator` facade exposing the familiar API:

* ``send`` / ``recv`` / ``isend`` / ``irecv`` / ``sendrecv``
* ``barrier``, ``bcast``, ``gather``, ``scatter``, ``allgather``,
  ``alltoall``, ``alltoallv``, ``reduce``, ``allreduce``, ``scan``
* ``split`` / ``Comm_split`` / ``dup`` / ``Create_group``
* ``Create_intercomm``, building an :class:`Intercomm` that bridges two
  disjoint communicators for cross-group point-to-point and collectives
  (the coupled-application substrate of :mod:`repro.pipelines`)

Collectives follow MPI semantics: every rank of the communicator must call
the same collective in the same order.  Payloads are arbitrary Python
objects (numpy arrays included); they are passed by reference, so the usual
MPI rule applies — do not mutate a buffer you have sent.

A collective is one *rendezvous*: arriving ranks deposit their contribution
and park on the scheduler; the last rank to arrive validates the operation,
computes the synchronised virtual time and wakes everyone.  No OS-level
barrier or condition variable is involved, so a collective over thousands
of ranks costs one scheduler handoff per rank.

Virtual-time accounting: each collective synchronises the participating
ranks' :class:`~repro.mpi.clock.VirtualClock` objects to their maximum and
optionally charges a latency + volume cost from a
:class:`CommCostModel`, so the handshaking overhead of the paper's
negotiation strategies shows up in the measured virtual time.  A
point-to-point receive advances the receiver's clock to the instant its
message was sent, on both communicator kinds (:class:`_PointToPoint`).
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.engine import Engine, Task, current_task, sequence_point
from .clock import VirtualClock, synchronize_clocks
from .cost import CommCostModel, _Volume, payload_nbytes
from .errors import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    CommunicatorError,
    RankError,
    TagError,
)
from .reduce_ops import ReduceOp, SUM
from .status import ANY_SOURCE, ANY_TAG, Request, Status

__all__ = [
    "CommCostModel", "Communicator", "Group", "Intercomm", "ROOT", "PROC_NULL", "SharedList",
]

#: Passed as ``root`` to an :class:`Intercomm` collective by the one process
#: *originating* the data (``MPI_ROOT``).
ROOT = -4
#: Passed as ``root`` by the origin group's non-root processes
#: (``MPI_PROC_NULL``): they participate in the rendezvous but neither
#: contribute nor receive.
PROC_NULL = -3

#: Marker wrapped around the ROOT deposit of an intercomm broadcast so the
#: rendezvous can locate (and validate) the single origin slot.
_IROOT = object()


def _matches(src: int, tag: int, want_source: int, want_tag: int) -> bool:
    return (want_source == ANY_SOURCE or src == want_source) and (
        want_tag == ANY_TAG or tag == want_tag
    )


class _Mailbox:
    """One rank's receive side: messages no receive has matched yet, and
    receives posted before their message arrived, each in arrival / posting
    order.

    A deposited message completes the earliest-posted matching receive, a
    posted receive takes the earliest queued matching message; whichever
    finds no partner joins its queue.  Sends deposit in virtual-time order
    (a send is a sequence point), so this is MPI's non-overtaking rule on
    virtual time.
    """

    __slots__ = ("_messages", "_posted")

    def __init__(self) -> None:
        #: ``(source, tag, sent_at, payload)`` per queued message.
        self._messages: deque = deque()
        #: ``(source, tag, request)`` per posted receive.
        self._posted: deque = deque()

    def put(self, source: int, tag: int, sent_at: float, payload: Any) -> None:
        for i, (want_source, want_tag, request) in enumerate(self._posted):
            if _matches(source, tag, want_source, want_tag):
                del self._posted[i]
                _deliver(request, source, tag, sent_at, payload)
                return
        self._messages.append((source, tag, sent_at, payload))

    def post(self, source: int, tag: int, request: Request) -> None:
        for i, (src, t, sent_at, payload) in enumerate(self._messages):
            if _matches(src, t, source, tag):
                del self._messages[i]
                _deliver(request, src, t, sent_at, payload)
                return
        self._posted.append((source, tag, request))


def _transpose(deposits: Sequence[Dict[int, Any]]) -> List[List[Tuple[int, Any]]]:
    """Every rank's received ``(source, payload)`` pairs of a sparse
    all-to-all; the ascending outer loop sorts each list by source."""
    received: List[List[Tuple[int, Any]]] = [[] for _ in deposits]
    for src, sent in enumerate(deposits):
        for dest, payload in sent.items():
            received[dest].append((src, payload))
    return received


def _deliver(request: Request, source: int, tag: int, sent_at: float, payload: Any) -> None:
    """Complete a receive: its clock joins at the send instant."""
    request.status = Status(source=source, tag=tag, count=getattr(payload, "nbytes", 0) or 0)
    request._finish(payload, None, sent_at)


class SharedList(list):
    """A list every rank of one collective holds, carrying the collective's
    products.

    Every rank derives the same colouring, trim or routing table from the
    same exchanged list, so the first rank to ask builds it and the others
    receive that object: ``once(key, build)`` returns the product stored
    under ``key``, calling ``build()`` only when there is none.  Ranks run
    one at a time, so this needs no lock; the products live exactly as long
    as the list.  Treat the list and its products as read-only.
    """

    #: Built on the first :meth:`once`: most rounds (barriers, plain
    #: gathers) never ask for a product.
    _products: Optional[Dict[Hashable, Any]] = None

    def once(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The product under ``key``, built by the first caller."""
        products = self._products
        if products is None:
            products = self._products = {}
        if key not in products:
            products[key] = build()
        return products[key]


class _Round:
    """One collective rendezvous: deposits, payload costs and waiters."""

    __slots__ = ("ops", "slots", "costs", "waiting", "arrived", "error")

    def __init__(self, size: int) -> None:
        self.ops: List[Any] = [None] * size
        #: The deposits, one per rank; what a shared result is built from.
        self.slots = SharedList([None] * size)
        #: What each rank's own payload costs it once the round completes.
        self.costs: List[float] = [0.0] * size
        self.waiting: List[Task] = []
        self.arrived = 0
        self.error: Optional[BaseException] = None


class _CommGroup:
    """State shared by all ranks of one communicator."""

    def __init__(
        self,
        size: int,
        clocks: Optional[List[VirtualClock]] = None,
        cost_model: Optional[CommCostModel] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        if size <= 0:
            raise CommunicatorError("communicator size must be positive")
        self.size = size
        self.engine = engine
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.clocks = clocks if clocks is not None else [VirtualClock() for _ in range(size)]
        self.cost_model = cost_model or CommCostModel()
        self._round: Optional[_Round] = None
        self.aborted: Optional[BaseException] = None
        #: Groups derived from this one (``split`` / ``dup_detached``); an
        #: abort cascades into them so ranks parked in a sub-communicator or
        #: detached-progress rendezvous with a dead rank are released too.
        self.children: List["_CommGroup"] = []

    def abort(self, exc: BaseException) -> None:
        """Abandon collective communication: release parked ranks and make
        every future collective on this group (and its derived groups) fail.

        The engine calls this (via the runtime's failure hook) when a rank
        dies, so peers blocked in a rendezvous with the dead rank are woken
        with a :class:`CollectiveAbortedError` instead of deadlocking — the
        event-driven equivalent of the old ``threading.Barrier.abort()``.
        """
        self.aborted = exc
        round_ = self._round
        self._round = None
        if round_ is not None:
            waiting, round_.waiting = round_.waiting, []
            for task in waiting:
                task.engine.throw(task, CollectiveAbortedError(str(exc)))
        for child in self.children:
            if child.aborted is None:
                child.abort(exc)

    def derive(self, clocks: List[VirtualClock]) -> "_CommGroup":
        """A new group over ``clocks`` with this group's cost model and
        engine, registered in :attr:`children` for the abort cascade."""
        group = _CommGroup(
            len(clocks), clocks=clocks, cost_model=self.cost_model, engine=self.engine
        )
        self.children.append(group)
        return group


class Group:
    """An ordered set of ranks of a parent communicator (``MPI_Group``).

    A group is pure bookkeeping — no mailboxes, no clocks: position *i* of
    the tuple is group rank *i*, the value is the parent-communicator rank it
    maps to.  Groups are built from :meth:`Communicator.Get_group` and
    combined with :meth:`Incl` / :meth:`Excl`; a communicator over the
    member processes comes from :meth:`Communicator.Create_group`.
    """

    __slots__ = ("_ranks",)

    def __init__(self, ranks: Sequence[int]) -> None:
        ranks = tuple(int(r) for r in ranks)
        if len(set(ranks)) != len(ranks):
            raise CommunicatorError(f"duplicate ranks in group: {list(ranks)}")
        self._ranks = ranks

    @property
    def size(self) -> int:
        """Number of member processes."""
        return len(self._ranks)

    @property
    def ranks(self) -> Tuple[int, ...]:
        """The members' parent-communicator ranks, in group-rank order."""
        return self._ranks

    def __len__(self) -> int:
        return len(self._ranks)

    def __contains__(self, parent_rank: int) -> bool:
        return int(parent_rank) in self._ranks

    def translate(self, group_rank: int) -> int:
        """The parent-communicator rank of group rank ``group_rank``."""
        if not 0 <= group_rank < len(self._ranks):
            raise RankError(f"group rank {group_rank} outside group of size {len(self._ranks)}")
        return self._ranks[group_rank]

    def rank_of(self, parent_rank: int) -> Optional[int]:
        """The group rank of ``parent_rank``; ``None`` for non-members."""
        try:
            return self._ranks.index(int(parent_rank))
        except ValueError:
            return None

    def Incl(self, group_ranks: Sequence[int]) -> "Group":  # noqa: N802 - MPI spelling
        """The subgroup of the named group ranks, in the order given."""
        return Group(self.translate(r) for r in group_ranks)

    def Excl(self, group_ranks: Sequence[int]) -> "Group":  # noqa: N802 - MPI spelling
        """The subgroup without the named group ranks (original order kept)."""
        drop = {int(r) for r in group_ranks}
        for r in drop:
            self.translate(r)  # validate range
        return Group(
            parent for i, parent in enumerate(self._ranks) if i not in drop
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Group({list(self._ranks)!r})"


class _PointToPoint:
    """Eager point-to-point messaging, causal in virtual time: the one body
    behind both communicator kinds.

    A send charges the sender the message's cost, passes a sequence point and
    deposits the payload, stamped with the sender's clock after the charge,
    in the receiver's :class:`_Mailbox`; a receive is a :class:`Request`
    completed by the earliest matching message, and waiting it advances the
    receiver's clock to that stamp, so a message is never observed before it
    was sent (Lamport's rule).  A communicator kind supplies only the routing:
    :meth:`_peer_slot` checks a peer rank and names its mailbox in
    ``self._group``, :attr:`_inbox` is this rank's own mailbox, and the
    receiver sees the sender's ``rank`` as the source.
    """

    def _peer_slot(self, rank: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def _inbox(self) -> _Mailbox:  # pragma: no cover - abstract
        raise NotImplementedError

    def _require_task(self) -> Task:
        """The engine task this rank runs on (blocking ops need one)."""
        task = current_task()
        if task is None or self._group.engine is None or task.engine is not self._group.engine:
            raise CommunicatorError(
                "blocking communicator operations must run inside an engine "
                "task (start the program through run_spmd)"
            )
        return task

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag < 0 and tag != ANY_TAG:
            raise TagError(f"invalid tag {tag}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager send of a Python object to ``dest``."""
        slot = self._peer_slot(dest)
        if tag < 0:
            raise TagError(f"invalid send tag {tag}")
        sent_at = self.clock.advance(self._group.cost_model.cost(obj))
        sequence_point()  # the mailbox is shared: deposit in virtual-time order
        self._group.mailboxes[slot].put(self._rank, tag, sent_at, obj)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send: sends are eager, so the request is complete."""
        self.send(obj, dest, tag)
        request = Request("isend")
        request.status = Status(source=self._rank, tag=tag)
        request._finish()
        return request

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking receive (``irecv(...).Wait()``); returns the received object.

        A receive that can never be matched is detected (and reported per
        rank) by the scheduler's deadlock detection.
        """
        self._require_task()
        request = self.irecv(source, tag)
        payload = request.Wait()
        if status is not None:
            got = request.status
            status.source, status.tag, status.count = got.source, got.tag, got.count
        return payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive: matched to the earliest queued matching
        message, or posted until one is deposited."""
        if source != ANY_SOURCE:
            self._peer_slot(source)
        self._check_tag(tag)
        request = Request(f"recv(source={source}, tag={tag})")
        self._inbox.post(source, tag, request)
        return request


class Communicator(_PointToPoint):
    """One rank's view of a communicator (``MPI_Comm``)."""

    def __init__(self, group: _CommGroup, rank: int) -> None:
        if not 0 <= rank < group.size:
            raise RankError(f"rank {rank} outside communicator of size {group.size}")
        self._group = group
        self._rank = rank

    # -- introspection ---------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._group.size

    @property
    def clock(self) -> VirtualClock:
        """This rank's virtual clock."""
        return self._group.clocks[self._rank]

    def Get_rank(self) -> int:  # noqa: N802 - MPI spelling
        """MPI-style alias for :attr:`rank`."""
        return self._rank

    def Get_size(self) -> int:  # noqa: N802 - MPI spelling
        """MPI-style alias for :attr:`size`."""
        return self._group.size

    # -- plumbing ---------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise RankError(f"rank {rank} outside communicator of size {self.size}")

    # -- point-to-point (the bodies are :class:`_PointToPoint`'s) -----------------

    def _peer_slot(self, rank: int) -> int:
        self._check_rank(rank)
        return rank

    @property
    def _inbox(self) -> _Mailbox:
        return self._group.mailboxes[self._rank]

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send and receive (deadlock-free: the send is eager)."""
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- collectives ---------------------------------------------------------------

    def _collective(self, op_name: str, deposit: Any = None, payload: Any = None) -> _Round:
        """One rendezvous: deposit, park until all ranks arrive, settle clocks.

        Every rank of the group must call the same collective in the same
        order.  Each rank deposits the cost of its *own* payload; the last
        rank to arrive validates the operation tags, settles every clock of
        the group with :func:`~repro.mpi.clock.synchronize_clocks` (the rule
        the bulk replay applies too) and wakes the others at the synchronised
        time.  Returns the completed round so the caller can read the
        deposited values.
        """
        task = self._require_task()
        g = self._group
        if g.aborted is not None:
            raise CollectiveAbortedError(str(g.aborted))
        round_ = g._round
        if round_ is None:
            round_ = g._round = _Round(g.size)
        round_.ops[self._rank] = op_name
        round_.slots[self._rank] = deposit
        round_.costs[self._rank] = g.cost_model.cost(payload)
        round_.arrived += 1
        if round_.arrived < g.size:
            round_.waiting.append(task)
            try:
                task.engine.wait(f"collective:{op_name}")
            except BaseException:
                if task in round_.waiting:
                    round_.waiting.remove(task)
                raise
        else:
            g._round = None
            names = set(round_.ops)
            if len(names) != 1:
                round_.error = CollectiveMismatchError(
                    f"ranks disagree on collective: {sorted(map(str, names))}"
                )
            latest = synchronize_clocks(g.clocks, round_.costs)
            task.engine.wake_all(round_.waiting, at=latest)
        if round_.error is not None:
            raise round_.error
        return round_

    def barrier(self) -> None:
        """Block until every rank reaches the barrier; synchronises clocks."""
        self._collective("barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to every rank."""
        self._check_rank(root)
        is_root = self._rank == root
        round_ = self._collective(
            f"bcast:{root}",
            deposit=obj if is_root else None,
            payload=obj if is_root else None,
        )
        return round_.slots[root]

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank at ``root`` (others receive ``None``)."""
        self._check_rank(root)
        round_ = self._collective(f"gather:{root}", deposit=obj, payload=obj)
        return list(round_.slots) if self._rank == root else None

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one object per rank at every rank."""
        round_ = self._collective("allgather", deposit=obj, payload=obj)
        return list(round_.slots)

    def allgather_shared(self, obj: Any) -> SharedList:
        """Gather one object per rank; every rank receives the *same* list.

        Identical semantics and virtual-time cost to :meth:`allgather`, but
        the returned list object is shared by all ranks instead of copied
        per rank — at tens of thousands of ranks the per-rank copies are
        ``O(P^2)`` references of pure overhead — and what the ranks derive
        from it is built once (:meth:`SharedList.once`).  Callers must treat
        the result as read-only (the usual MPI don't-touch-the-buffer rule).
        """
        round_ = self._collective("allgather-shared", deposit=obj, payload=obj)
        return round_.slots

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter ``objs[i]`` from ``root`` to rank ``i``."""
        self._check_rank(root)
        is_root = self._rank == root
        if is_root and (objs is None or len(objs) != self.size):
            raise CommunicatorError(
                "scatter requires a sequence of exactly `size` items on the root"
            )
        round_ = self._collective(
            f"scatter:{root}",
            deposit=list(objs) if is_root else None,
            payload=objs if is_root else None,
        )
        return round_.slots[root][self._rank]

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Each rank sends ``objs[j]`` to rank ``j``; receives one item per rank."""
        if len(objs) != self.size:
            raise CommunicatorError("alltoall requires exactly `size` items")
        round_ = self._collective("alltoall", deposit=list(objs), payload=objs)
        return [round_.slots[src][self._rank] for src in range(self.size)]

    def alltoallv(self, objs: Sequence[Any]) -> List[Any]:
        """Variable-volume all-to-all (``MPI_Alltoallv``-style exchange).

        Semantically identical to :meth:`alltoall` — rank *i*'s ``objs[j]``
        goes to rank *j* — but the virtual-time cost is charged on the
        *actual payload bytes* this rank sends (summed over destinations,
        recursing into lists/tuples/dicts of buffers), not on the outer item
        count.  Self-destined data (``objs[rank]``) is free: a real MPI
        implementation moves it with a local copy, never the network.  This
        is the exchange primitive of the two-phase aggregation shuffle,
        where per-destination volumes are highly non-uniform.
        """
        if len(objs) != self.size:
            raise CommunicatorError("alltoallv requires exactly `size` items")
        network_bytes = sum(
            payload_nbytes(obj) for dest, obj in enumerate(objs) if dest != self._rank
        )
        round_ = self._collective(
            "alltoallv", deposit=list(objs), payload=_Volume(network_bytes)
        )
        return [round_.slots[src][self._rank] for src in range(self.size)]

    def alltoallv_sparse(self, items: Dict[int, Any]) -> List[Tuple[int, Any]]:
        """Sparse variable all-to-all: send only to the ranks you name.

        ``items`` maps destination rank to payload (at most one payload per
        destination).  Returns this rank's received ``(source, payload)``
        pairs in ascending source order.  Semantically an :meth:`alltoallv`
        whose unnamed destinations get nothing — but the deposits, the
        transpose and the results are all sized by the *actual* traffic, not
        by ``P`` per rank, which is what keeps the aggregation shuffle's
        bookkeeping sub-quadratic at tens of thousands of ranks (each rank
        talks to a handful of aggregators, not to everyone).  The virtual-
        time cost matches :meth:`alltoallv`: the payload bytes this rank
        sends to *other* ranks (self-delivery is a local copy, free).

        The received pairs are shared structure (built once per round);
        treat payloads as read-only.
        """
        for dest in items:
            self._check_rank(dest)
        network_bytes = sum(
            payload_nbytes(obj) for dest, obj in items.items() if dest != self._rank
        )
        round_ = self._collective(
            "alltoallv-sparse", deposit=items, payload=_Volume(network_bytes)
        )
        deposits = round_.slots
        return deposits.once("transpose", lambda: _transpose(deposits))[self._rank]

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Optional[Any]:
        """Reduce one value per rank onto ``root`` using ``op``."""
        gathered = self.gather(obj, root=root)
        return functools.reduce(op, gathered) if self._rank == root else None

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Reduce one value per rank and distribute the result to every rank."""
        return functools.reduce(op, self.allgather(obj))

    def scan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction over ranks ``0..self.rank``."""
        return functools.reduce(op, self.allgather(obj)[: self._rank + 1])

    def exscan(self, obj: Any, op: ReduceOp = SUM) -> Optional[Any]:
        """Exclusive prefix reduction (``None`` on rank 0)."""
        gathered = self.allgather(obj)
        return functools.reduce(op, gathered[: self._rank]) if self._rank else None

    # -- communicator management -----------------------------------------------------

    def split(self, color: Optional[int], key: Optional[int] = None) -> Optional["Communicator"]:
        """Partition the communicator by ``color``; order new ranks by ``key``.

        Every rank must participate.  Ranks sharing a ``color`` end up in the
        same new communicator; ``key`` (default: old rank) orders them.  A
        rank passing ``color=None`` (``MPI_UNDEFINED``) joins no new
        communicator and receives ``None``.
        """
        if key is None:
            key = self._rank
        mine = None if color is None else int(color)
        info = self.allgather((mine, int(key), self._rank))
        # Rank 0 creates one shared group per colour so all ranks agree on
        # the shared objects, then broadcasts the mapping.
        if self._rank == 0:
            groups: Dict[int, Tuple[_CommGroup, List[int]]] = {}
            for c in sorted({c for c, _, _ in info if c is not None}):
                members = sorted(
                    [(k, r) for cc, k, r in info if cc == c]
                )
                ranks = [r for _, r in members]
                group = self._group.derive([self._group.clocks[r] for r in ranks])
                groups[c] = (group, ranks)
            mapping = groups
        else:
            mapping = None
        mapping = self.bcast(mapping, root=0)
        if mine is None:
            return None
        group, ranks = mapping[mine]
        return Communicator(group, ranks.index(self._rank))

    def Comm_split(  # noqa: N802 - MPI spelling
        self, color: Optional[int], key: Optional[int] = None
    ) -> Optional["Communicator"]:
        """MPI-style alias for :meth:`split` (``MPI_Comm_split``)."""
        return self.split(color, key)

    def dup(self) -> "Communicator":
        """A new communicator with the same membership (``MPI_Comm_dup``)."""
        return self.split(color=0, key=self._rank)

    def Get_group(self) -> Group:  # noqa: N802 - MPI spelling
        """This communicator's group (``MPI_Comm_group``)."""
        return Group(range(self.size))

    def Create_group(self, group: Group) -> Optional["Communicator"]:  # noqa: N802 - MPI spelling
        """A new communicator over the members of ``group``.

        Collective over this communicator (every rank must call, with an
        equal group); non-members receive ``None``, as ``MPI_Comm_create``
        returns ``MPI_COMM_NULL``.  New ranks follow the group order.
        """
        for parent in group.ranks:
            self._check_rank(parent)
        position = group.rank_of(self._rank)
        if position is None:
            return self.split(color=None)
        return self.split(color=0, key=position)

    def dup_detached(self) -> "Communicator":
        """A communicator over the same ranks with *independent* clocks.

        Collective over this communicator.  The duplicate's per-rank virtual
        clocks start at zero and are never synchronised with this
        communicator's clocks; they advance only through operations issued on
        the duplicate.  This is the substrate for detached progress tasks
        (nonblocking collective I/O): the progress task runs its collectives
        and file transfers on the duplicate's clock, so the issuing rank's
        own clock keeps advancing through overlapped computation, and the
        two timelines are joined explicitly when the request is waited on.
        """
        group = None
        if self._rank == 0:
            group = self._group.derive([VirtualClock() for _ in range(self.size)])
        return Communicator(self.bcast(group, root=0), self._rank)

    def release_detached(self, detached: "Communicator") -> None:
        """Forget a communicator created by :meth:`dup_detached`.

        Unlinks it from this group's abort cascade so long-running programs
        that open and close many files do not accumulate dead progress
        groups.  Safe to call from every rank (the first call unlinks, the
        rest are no-ops).
        """
        try:
            self._group.children.remove(detached._group)
        except ValueError:
            pass

    def Create_intercomm(  # noqa: N802 - MPI spelling
        self,
        local_leader: int,
        peer_comm: Optional["Communicator"],
        remote_leader: int,
        tag: int = 0,
    ) -> "Intercomm":
        """Bridge this communicator's group with a remote group
        (``MPI_Intercomm_create``).

        Collective over this (local) communicator.  The two local groups must
        be *disjoint* sets of processes; ``peer_comm`` is a communicator
        containing both group leaders (typically the world communicator the
        groups were split from) and is used only by the leaders, over ``tag``.

        The bridge is one shared rendezvous group spanning both sides, with
        **fresh mailboxes**: cross-bridge point-to-point traffic is matched
        only against cross-bridge traffic, so a tag in flight on the parent
        (or any intra-) communicator can never cross-match a message sent
        over the bridge.  Clocks are shared by reference with the local
        communicators, so intercomm collectives synchronise the two sides'
        real timelines.
        """
        self._check_rank(local_leader)
        if tag < 0:
            raise TagError(f"invalid intercomm tag {tag}")
        g = self._group
        if self._rank == local_leader:
            if peer_comm is None:
                raise CommunicatorError(
                    "the local leader must supply the peer communicator"
                )
            my_peer = peer_comm.rank
            peer_comm._check_rank(remote_leader)
            if remote_leader == my_peer:
                raise CommunicatorError(
                    "local and remote leaders must be distinct processes"
                )
            peer_comm.send((my_peer, g), remote_leader, tag)
            other_peer, other_group = peer_comm.recv(source=remote_leader, tag=tag)
            # The leader with the lower peer rank builds the shared bridge
            # group (its side occupies union slots [0, size)) and ships it to
            # the other leader; both register it for the abort cascade.
            if my_peer < other_peer:
                union = g.derive(list(g.clocks) + list(other_group.clocks))
                peer_comm.send(union, remote_leader, tag)
                local_offset = 0
            else:
                union = peer_comm.recv(source=remote_leader, tag=tag)
                g.children.append(union)
                local_offset = union.size - g.size
            payload: Optional[Tuple[_CommGroup, int, int]] = (
                union, local_offset, union.size - g.size
            )
        else:
            payload = None
        union, local_offset, remote_size = self.bcast(payload, root=local_leader)
        return Intercomm(union, local_offset, remote_size, self)

    def abort(self, exc: BaseException) -> None:
        """Abandon collective communication on this communicator.

        Parked peers are released with a
        :class:`~repro.mpi.errors.CollectiveAbortedError` and every future
        collective fails; used by the nonblocking-I/O machinery when one
        rank's detached collective dies so its peers do not deadlock.
        """
        self._group.abort(exc)


class Intercomm(_PointToPoint):
    """One rank's view of an inter-communicator (``MPI_Comm``, inter).

    An intercomm connects two disjoint groups (*local* and *remote*): ranks
    are always named in the **remote** group's namespace for point-to-point
    (``send(dest=2)`` reaches remote rank 2) and every collective follows the
    MPI inter-communicator semantics — ``allgather`` returns the remote
    group's contributions, ``bcast`` moves data from one group's
    :data:`ROOT` process to every rank of the other group.

    Implementation: both sides share one rendezvous :class:`_CommGroup`
    (side A in slots ``[0, nA)``, side B in ``[nA, nA+nB)``) whose per-rank
    clocks are the ranks' real clocks, shared by reference.  Its mailboxes
    belong exclusively to the bridge, which is what namespaces message tags
    per bridge (see :meth:`Communicator.Create_intercomm`).
    """

    def __init__(
        self,
        union: _CommGroup,
        local_offset: int,
        remote_size: int,
        local_comm: Communicator,
    ) -> None:
        self._group = union
        self._local_size = local_comm.size
        self._remote_size = remote_size
        self._remote_offset = self._local_size if local_offset == 0 else 0
        self._rank = local_comm.rank
        self._urank = local_offset + self._rank
        #: Internal facade over the union group; reuses the rendezvous
        #: machinery (and its abort handling) for the bridge collectives.
        self._inner = Communicator(union, self._urank)

    # -- introspection ---------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within its *local* group."""
        return self._rank

    @property
    def size(self) -> int:
        """Size of the local group."""
        return self._local_size

    @property
    def remote_size(self) -> int:
        """Size of the remote group."""
        return self._remote_size

    @property
    def clock(self) -> VirtualClock:
        """This rank's virtual clock (shared with its intra-communicators)."""
        return self._group.clocks[self._urank]

    def Get_rank(self) -> int:  # noqa: N802 - MPI spelling
        """MPI-style alias for :attr:`rank`."""
        return self._rank

    def Get_size(self) -> int:  # noqa: N802 - MPI spelling
        """MPI-style alias for :attr:`size`."""
        return self._local_size

    def Get_remote_size(self) -> int:  # noqa: N802 - MPI spelling
        """MPI-style alias for :attr:`remote_size`."""
        return self._remote_size

    def Get_group(self) -> Group:  # noqa: N802 - MPI spelling
        """The local group (ranks in local-group order)."""
        return Group(range(self._local_size))

    def Get_remote_group(self) -> Group:  # noqa: N802 - MPI spelling
        """The remote group (ranks in remote-group order)."""
        return Group(range(self._remote_size))

    # -- point-to-point across the bridge (bodies: :class:`_PointToPoint`) -----

    def _peer_slot(self, rank: int) -> int:
        """Peers are named in the *remote* group's namespace.  Sources are
        recorded in the sender's local-group namespace, which is unambiguous:
        a bridge mailbox only ever receives cross-bridge traffic, so "source
        r" always means remote rank r to the receiver."""
        if not 0 <= rank < self._remote_size:
            raise RankError(
                f"rank {rank} outside remote group of size {self._remote_size}"
            )
        return self._remote_offset + rank

    @property
    def _inbox(self) -> _Mailbox:
        return self._group.mailboxes[self._urank]

    # -- collectives across the bridge -----------------------------------------

    def barrier(self) -> None:
        """Block until every rank of *both* groups arrives; syncs clocks."""
        self._inner._collective("icomm-barrier")

    def bcast(self, obj: Any, root: int) -> Any:
        """Broadcast from one group's root to every rank of the other group.

        MPI inter-communicator semantics: in the origin group, the root
        passes ``root=ROOT`` (and its ``obj``), its peers pass
        ``root=PROC_NULL``; every rank of the receiving group names the
        origin's rank *in its remote group*.  Returns the broadcast object
        (the origin's own ``obj`` on the root, ``None`` on PROC_NULL ranks).
        """
        if root == ROOT:
            deposit: Any = (_IROOT, obj)
            payload = obj
        else:
            if root != PROC_NULL:
                self._peer_slot(root)
            deposit = None
            payload = None
        round_ = self._inner._collective("icomm-bcast", deposit=deposit, payload=payload)
        marked = [
            i
            for i, slot in enumerate(round_.slots)
            if type(slot) is tuple and len(slot) == 2 and slot[0] is _IROOT
        ]
        if len(marked) != 1:
            raise CollectiveMismatchError(
                f"intercomm bcast requires exactly one ROOT process, "
                f"found {len(marked)}"
            )
        origin = marked[0]
        if root == ROOT:
            return obj
        if root == PROC_NULL:
            return None
        if origin != self._remote_offset + root:
            raise CollectiveMismatchError(
                f"intercomm bcast roots disagree: this rank named remote "
                f"rank {root}, but the ROOT process sits at remote rank "
                f"{origin - self._remote_offset}"
            )
        return round_.slots[origin][1]

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one object per rank, delivered **from the remote group**.

        MPI inter-communicator semantics: every rank contributes, and each
        rank receives the remote group's contributions in remote-rank order.
        """
        round_ = self._inner._collective("icomm-allgather", deposit=obj, payload=obj)
        lo = self._remote_offset
        return list(round_.slots[lo : lo + self._remote_size])

    def Merge(self, high: bool = False) -> Communicator:  # noqa: N802 - MPI spelling
        """Merge both groups into one intra-communicator
        (``MPI_Intercomm_merge``).

        Ranks passing ``high=False`` come first in the merged rank order
        (ties broken by bridge slot, i.e. the intercomm-construction side
        order); within a group the local order is kept.  The merged
        communicator gets **fresh mailboxes** — its point-to-point namespace
        is as isolated from the bridge's as the bridge's is from the
        parents'.
        """
        round_ = self._inner._collective(
            "icomm-merge", deposit=(bool(high), self._urank)
        )
        def merged():
            order = sorted(range(self._group.size), key=lambda u: (round_.slots[u][0], u))
            group = self._group.derive([self._group.clocks[u] for u in order])
            return group, {u: r for r, u in enumerate(order)}

        group, new_ranks = round_.slots.once("merge", merged)
        return Communicator(group, new_ranks[self._urank])
