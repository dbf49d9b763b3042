"""The coupled-pipeline runner: wire stage groups with intercomms and stream.

One :func:`~repro.mpi.runtime.run_spmd` world hosts every stage:
``Comm_split`` carves it into per-stage communicators (producers occupy
world ranks ``[0, P)``), adjacent stages are bridged with
:meth:`~repro.mpi.comm.Communicator.Create_intercomm`, and each stage runs
its role loop over the per-step checkpoint files:

* **producers** write step ``s``'s column-wise partition — blocking in
  ``barrier`` mode, split-collective (overlapping their own compute with
  the commit) in ``overlapped`` mode — then hand the step off across the
  bridge;
* the optional **transformer** relays the handoff between its two bridges,
  charging its per-step transform cost (control moves through the bridges,
  data moves through the file: the producer-partition to
  consumer-partition N:M redistribution happens in the byte range);
* **consumers** read their own column-wise partition of the same file
  through ``Iread_all``, overlapping analysis compute, and record the
  delivered byte stream.

Every rank opens the shared files with the ``provenance_base`` Info hint
set to its stage's world offset, so client ids and per-byte provenance are
*world* ranks and the per-step byte streams can be verified with
:func:`~repro.verify.atomicity.check_stream_atomicity` — stale- and
torn-read detection across the group boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.regions import FileRegionSet, build_region_sets
from ..datatypes import CHAR, subarray
from ..fs.filesystem import FSConfig, ParallelFileSystem
from ..io import Info, MPIFile
from ..mpi.comm import CommCostModel, Communicator, Intercomm
from ..mpi.cost import BENCH_COMM_COST
from ..mpi.runtime import run_spmd
from ..patterns.partition import column_wise_spec, column_wise_views
from ..patterns.workloads import rank_pattern_bytes
from ..verify.atomicity import (
    AtomicityReport,
    ReadObservation,
    StreamTrace,
    check_stream_atomicity,
    rekey_regions,
)
from .spec import PipelineSpec

__all__ = [
    "CoupledPipeline",
    "PipelineResult",
    "expected_consumer_streams",
    "step_payload",
]

#: Bridge message tags for the streaming handoff protocol.
TAG_READY = 11
TAG_DONE = 12
#: Per-bridge construction tag base (bridge ``i`` uses ``TAG_BRIDGE + i``).
TAG_BRIDGE = 100


def step_payload(spec: PipelineSpec, step: int, world_rank: int, nbytes: int) -> bytes:
    """The deterministic bytes producer ``world_rank`` writes at ``step``.

    Seeded by ``(step, world rank)`` so every producer's every step is
    byte-distinguishable: a consumer observing step ``s-1``'s bytes where
    step ``s`` was committed is caught as a stale read, not waved through.
    """
    return rank_pattern_bytes((step + 1) * spec.total_ranks + world_rank, nbytes)


def producer_regions(spec: PipelineSpec) -> List[FileRegionSet]:
    """Producer file views in the *global* (world-rank) keyspace.

    Producers sit at world offset 0, so their local column-wise views are
    already globally keyed.
    """
    return build_region_sets(
        column_wise_views(spec.M, spec.N, spec.producer.nprocs, spec.ghost)
    )


def consumer_regions(spec: PipelineSpec) -> List[FileRegionSet]:
    """Consumer file views re-keyed into the global (world-rank) keyspace."""
    local = build_region_sets(
        column_wise_views(spec.M, spec.N, spec.consumer.nprocs, 0)
    )
    return rekey_regions(local, spec.stage_offsets[-1])


def expected_consumer_streams(spec: PipelineSpec, step: int) -> List[bytes]:
    """What each consumer rank must deliver for ``step`` once it committed.

    Assembles the full M x N file image from the producer payloads and
    slices out each consumer's view in data-stream order.  Only meaningful
    for disjoint producer views (``ghost == 0``): with overlap the atomic
    outcome depends on the write serialisation order.
    """
    if spec.ghost != 0:
        raise ValueError("expected streams are only defined for ghost == 0")
    image = bytearray(spec.M * spec.N)
    for region in producer_regions(spec):
        payload = step_payload(spec, step, region.rank, region.total_bytes)
        for buf_off, file_off, length in region.buffer_map():
            image[file_off : file_off + length] = payload[buf_off : buf_off + length]
    streams = []
    for region in consumer_regions(spec):
        out = bytearray(region.total_bytes)
        for buf_off, file_off, length in region.buffer_map():
            out[buf_off : buf_off + length] = image[file_off : file_off + length]
        streams.append(bytes(out))
    return streams


@dataclass
class PipelineResult:
    """Outcome of one coupled-pipeline run."""

    spec: PipelineSpec
    #: Maximum virtual finish time over every rank of every stage.
    makespan: float
    #: Per-world-rank return payloads (role dicts).
    returns: List[Dict[str, Any]]
    #: One globally-rekeyed trace per step, ready for the verifier.
    streams: List[StreamTrace] = field(default_factory=list)
    #: ``(step, consumer local rank) -> delivered bytes``.
    delivered: Dict[Tuple[int, int], bytes] = field(default_factory=dict)

    @property
    def bytes_streamed(self) -> int:
        """Total bytes delivered to consumers over all steps."""
        return sum(len(data) for data in self.delivered.values())

    def verify(self) -> AtomicityReport:
        """Cross-group read serialisability of every step's stream."""
        return check_stream_atomicity(self.streams)


def _open_step(
    stage_comm: Communicator,
    fs: ParallelFileSystem,
    spec: PipelineSpec,
    step: int,
    nprocs: int,
    offset: int,
    ghost: int,
) -> MPIFile:
    """Collectively open step ``step``'s file with this stage's column view."""
    part = column_wise_spec(spec.M, spec.N, nprocs, stage_comm.rank, ghost)
    filetype = subarray(
        list(part.sizes), list(part.subsizes), list(part.starts), CHAR
    ).commit()
    f = MPIFile.Open(
        stage_comm,
        spec.step_filename(step),
        fs,
        info=Info(
            {
                "atomicity_strategy": spec.strategy,
                "provenance_base": str(offset),
            }
        ),
    )
    f.Set_atomicity(spec.atomic)
    f.Set_view(0, CHAR, filetype)
    return f


def _producer_main(
    spec: PipelineSpec,
    fs: ParallelFileSystem,
    stage_comm: Communicator,
    bridge: Intercomm,
    offset: int,
) -> Dict[str, Any]:
    me = stage_comm.rank
    compute = spec.producer.compute_seconds
    view_bytes = column_wise_spec(
        spec.M, spec.N, spec.producer.nprocs, me, spec.ghost
    ).total_bytes
    written = 0
    if spec.coordination == "racing":
        bridge.barrier()  # start line: both groups race from one instant
    acked = -1  # highest consumer-completed step relayed back so far
    for step in range(spec.steps):
        if spec.coordination == "overlapped":
            # Flow control: run at most overlap_depth steps ahead of the
            # consumers.  Acks travel rank0-to-rank0 over the bridge and
            # fan out over the stage communicator.
            while acked < step - spec.overlap_depth:
                msg = (
                    bridge.recv(source=0, tag=TAG_DONE) if me == 0 else None
                )
                acked = stage_comm.bcast(msg, root=0)[1]
        payload = step_payload(spec, step, offset + me, view_bytes)
        f = _open_step(stage_comm, fs, spec, step, spec.producer.nprocs, offset, spec.ghost)
        if spec.coordination == "overlapped":
            f.Write_all_begin(payload)
            stage_comm.clock.advance(compute)
            outcome = f.Write_all_end()
        else:
            outcome = f.Write_all(payload)
            stage_comm.clock.advance(compute)
        f.Close()
        written += outcome.bytes_moved
        if spec.coordination == "overlapped":
            if me == 0:
                bridge.send(("ready", step), dest=0, tag=TAG_READY)
        elif spec.coordination == "barrier":
            bridge.barrier()  # release the next stage on step `step`
            bridge.barrier()  # wait for the step to drain downstream
    return {"role": "producer", "rank": me, "bytes_written": written}


def _transformer_main(
    spec: PipelineSpec,
    fs: ParallelFileSystem,
    stage_comm: Communicator,
    prev_bridge: Intercomm,
    next_bridge: Intercomm,
) -> Dict[str, Any]:
    me = stage_comm.rank
    compute = spec.transformer.compute_seconds
    relayed = -1  # highest "done" ack forwarded back to the producers
    for step in range(spec.steps):
        if spec.coordination == "overlapped":
            msg = prev_bridge.recv(source=0, tag=TAG_READY) if me == 0 else None
            stage_comm.bcast(msg, root=0)
            stage_comm.clock.advance(compute)  # the transform itself
            if me == 0:
                next_bridge.send(("ready", step), dest=0, tag=TAG_READY)
            # Relay exactly the acks the producers' flow control will block
            # on before issuing step ``step + 1``; later acks can stay
            # unconsumed once the producers have finished.
            while relayed < step + 1 - spec.overlap_depth:
                msg = next_bridge.recv(source=0, tag=TAG_DONE) if me == 0 else None
                msg = stage_comm.bcast(msg, root=0)
                relayed = msg[1]
                if me == 0:
                    prev_bridge.send(msg, dest=0, tag=TAG_DONE)
        else:  # barrier
            prev_bridge.barrier()  # producers committed step `step`
            stage_comm.clock.advance(compute)
            next_bridge.barrier()  # release the consumers
            next_bridge.barrier()  # consumers finished
            prev_bridge.barrier()  # tell the producers the step drained
    return {"role": "transformer", "rank": me}


def _consumer_main(
    spec: PipelineSpec,
    fs: ParallelFileSystem,
    stage_comm: Communicator,
    bridge: Intercomm,
    offset: int,
) -> Dict[str, Any]:
    me = stage_comm.rank
    compute = spec.consumer.compute_seconds
    view_bytes = column_wise_spec(
        spec.M, spec.N, spec.consumer.nprocs, me, 0
    ).total_bytes
    observed: Dict[int, bytes] = {}
    if spec.coordination == "racing":
        bridge.barrier()
    for step in range(spec.steps):
        if spec.coordination == "overlapped":
            msg = bridge.recv(source=0, tag=TAG_READY) if me == 0 else None
            stage_comm.bcast(msg, root=0)
        elif spec.coordination == "barrier":
            bridge.barrier()  # the step is fully committed upstream
        f = _open_step(stage_comm, fs, spec, step, spec.consumer.nprocs, offset, 0)
        buf = bytearray(view_bytes)
        if spec.coordination == "overlapped":
            request = f.Iread_all(buf)
            stage_comm.clock.advance(compute)
            request.Wait()
        else:
            f.Read_all(buf)
            stage_comm.clock.advance(compute)
        observed[step] = bytes(buf)
        f.Close()
        if spec.coordination == "overlapped":
            if me == 0:
                bridge.send(("done", step), dest=0, tag=TAG_DONE)
        elif spec.coordination == "barrier":
            bridge.barrier()  # step drained: release the upstream stage
    return {"role": "consumer", "rank": me, "streams": observed}


def _rank_main(comm: Communicator, spec: PipelineSpec, fs: ParallelFileSystem):
    """One world rank: split into its stage, build bridges, run its role."""
    stage_idx = spec.stage_of(comm.rank)
    offsets = spec.stage_offsets
    stage_comm = comm.Comm_split(stage_idx, key=comm.rank)
    # Bridges between adjacent stages, built in ascending bridge order so a
    # middle stage constructs its upstream bridge before its downstream one.
    prev_bridge: Optional[Intercomm] = None
    next_bridge: Optional[Intercomm] = None
    for i in range(len(spec.stages) - 1):
        if stage_idx == i:
            next_bridge = stage_comm.Create_intercomm(
                0, comm, offsets[i + 1], tag=TAG_BRIDGE + i
            )
        elif stage_idx == i + 1:
            prev_bridge = stage_comm.Create_intercomm(
                0, comm, offsets[i], tag=TAG_BRIDGE + i
            )
    role = spec.stages[stage_idx].role
    if role == "producer":
        return _producer_main(spec, fs, stage_comm, next_bridge, offsets[stage_idx])
    if role == "transformer":
        return _transformer_main(spec, fs, stage_comm, prev_bridge, next_bridge)
    return _consumer_main(spec, fs, stage_comm, prev_bridge, offsets[stage_idx])


class CoupledPipeline:
    """Run a :class:`PipelineSpec` and collect verified stream traces."""

    def __init__(
        self,
        spec: PipelineSpec,
        fs_config: Optional[FSConfig] = None,
        comm_cost: Optional[CommCostModel] = None,
        timeout: Optional[float] = 120.0,
    ) -> None:
        self.spec = spec
        self.fs_config = fs_config
        self.comm_cost = comm_cost if comm_cost is not None else BENCH_COMM_COST
        self.timeout = timeout

    def run(self, fs: Optional[ParallelFileSystem] = None) -> PipelineResult:
        """Execute the pipeline on ``fs`` (or a fresh file system)."""
        spec = self.spec
        if fs is None:
            config = self.fs_config if self.fs_config is not None else FSConfig()
            fs = ParallelFileSystem(config)
        spmd = run_spmd(
            _rank_main,
            spec.total_ranks,
            spec,
            fs,
            comm_cost=self.comm_cost,
            timeout=self.timeout,
        )
        result = PipelineResult(
            spec=spec,
            makespan=spmd.makespan,
            returns=list(spmd.returns),
        )
        consumer_offset = spec.stage_offsets[-1]
        for ret in result.returns:
            if ret["role"] == "consumer":
                for step, data in ret["streams"].items():
                    result.delivered[(step, ret["rank"])] = data
        p_regions = producer_regions(spec)
        c_regions = consumer_regions(spec)
        # In the handshaking modes a consumer only reads a step after every
        # producer's write request completed, so the producers count as
        # committed and a baseline observation is a detectable stale read.
        # In racing mode every write is in flight throughout.
        committed = (
            None
            if spec.coordination == "racing"
            else range(spec.producer.nprocs)
        )
        for step in range(spec.steps):
            observations = [
                ReadObservation(
                    consumer_offset + c, c_regions[c], result.delivered[(step, c)]
                )
                for c in range(spec.consumer.nprocs)
                if (step, c) in result.delivered
            ]
            result.streams.append(
                StreamTrace(
                    stream_id=f"step{step}:{spec.step_filename(step)}",
                    write_regions=p_regions,
                    writer_data=[
                        step_payload(spec, step, r.rank, r.total_bytes)
                        for r in p_regions
                    ],
                    observations=observations,
                    committed=committed,
                )
            )
        return result
