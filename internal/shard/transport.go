package shard

// Transport is the seam between the executor's coalescing protocol and
// the fabric that carries its batches. The executor owns what a batch
// *means* — May-Fail operator units applied under the owner shard's
// isolation mechanism — while the transport owns how a flushed batch
// reaches the owner's inbox, how undelivered batches are counted for the
// Drain barrier, and (for multi-process fabrics) how the peer processes
// stay in lockstep: the barrier ending every Parallel phase and the
// collective reductions the SPMD algorithm drivers use for their global
// control decisions.
//
// Two implementations exist:
//
//   - inproc (transport_inproc.go): every shard lives in this process,
//     delivery is the historical mutex-guarded inbox append, barriers and
//     collectives are no-ops. The steady-state message path stays
//     zero-allocation (pinned by TestMessagePathZeroAllocSteadyState and
//     the exact-gated executor.steady_allocs bench metric).
//   - tcp (transport_tcp.go): shards are block-distributed over peer
//     processes; batches for remote-owned shards are length-prefixed wire
//     frames (wire.go), barriers sync the state blocks owners changed so
//     each process holds a fresh replica of the whole state vector, and Drain
//     quiescence is decided by a credit/ack-style counter exchange — see
//     DESIGN.md §10.
//
// Transports are bound to one executor at New time (attach); methods are
// unexported because the protocol speaks in the package's internal
// message/Stats vocabulary.
type Transport interface {
	// Name labels the transport in telemetry and reports.
	Name() string
	// endpoints returns this process's rank and the total process count.
	endpoints() (rank, nranks int)
	// attach binds the transport to the executor it will carry traffic
	// for. Called exactly once, from New, after the shard table is built.
	attach(ex *Executor)
	// deliver hands one flushed batch to shard dst: a local inbox append
	// when this process owns dst, a wire frame otherwise. Ownership of the
	// buffer transfers with the call; remote sends recycle it immediately
	// through the flushing worker.
	deliver(w *Worker, dst int, batch []message)
	// pending counts batches enqueued in this process's inboxes but not
	// yet applied. Called between Parallel phases only.
	pending() int
	// quiesced reports whether the whole machine — every process — has no
	// buffered unit, no in-flight frame and no undelivered batch. For
	// inproc that is pending()==0; for tcp it is a global counter
	// exchange. Called by Drain between Parallel phases.
	quiesced() bool
	// barrier ends a Parallel phase. All processes arrive before any
	// leaves; the tcp transport additionally syncs changed owned state
	// blocks to every replica so cross-shard reads of quiescent state (MST
	// pointers, coloring palettes, result gathers) see fresh replicas.
	barrier()
	// allreduce combines vals element-wise across every process with op,
	// in place; every process returns the same reduced vector.
	allreduce(op redOp, vals []uint64)
}

// redOp selects the element-wise combining function of an allreduce.
type redOp uint8

const (
	redSum redOp = iota + 1
	redMin
	redOr
)

// AllSum element-wise sums vals across every peer process, in place.
// Algorithm drivers use it for their global control reductions (frontier
// sizes, changed counters, proposal totals); on the in-process transport
// it is a no-op, so single-process behavior is untouched.
func (ex *Executor) AllSum(vals []uint64) { ex.tr.allreduce(redSum, vals) }

// AllMin element-wise minimizes vals across every peer process, in place.
func (ex *Executor) AllMin(vals []uint64) { ex.tr.allreduce(redMin, vals) }

// AllOr element-wise ORs vals across every peer process, in place (the
// BFS pull path uses it to assemble the global frontier bitmap).
func (ex *Executor) AllOr(vals []uint64) { ex.tr.allreduce(redOr, vals) }

// Owns reports whether this process owns shard id — always true on the
// in-process transport. Non-owned shards hold state replicas (refreshed
// at every barrier) but run no workers.
func (ex *Executor) Owns(id int) bool { return ex.shardRank[id] == ex.rank }

// Rank returns this process's rank (0 = coordinator / single process).
func (ex *Executor) Rank() int { return ex.rank }

// Ranks returns the number of peer processes executing this run.
func (ex *Executor) Ranks() int { return ex.nranks }

// Transport returns the transport carrying this executor's batches.
func (ex *Executor) Transport() Transport { return ex.tr }

// localPending counts batches sitting in this process's inboxes; shared
// by both transports' pending implementations.
func localPending(ex *Executor) int {
	n := 0
	for _, s := range ex.shards {
		s.inbox.mu.Lock()
		n += len(s.inbox.batches)
		s.inbox.mu.Unlock()
	}
	return n
}

// statsWords is the flattened uint64 width of Stats (see flattenStats).
const statsWords = 14

// flattenStats serializes per-shard counters into a flat vector so the
// tcp transport can merge them with one sum-allreduce (non-owned entries
// are zero on every rank, so element-wise addition is exactly a gather).
func flattenStats(per []Stats) []uint64 {
	out := make([]uint64, 0, len(per)*statsWords)
	for i := range per {
		s := &per[i]
		out = append(out,
			s.LocalOps, s.LocalFailed,
			s.RemoteUnitsSent, s.RemoteBatchesSent,
			s.RemoteUnitsRecv, s.RemoteBatchesRecv, s.RemoteFailed,
			s.Aborts, s.Retries, s.Serialized, s.Combined,
			s.BufferAllocs, s.WireBatchesSent, s.WireBytesSent)
	}
	return out
}

// unflattenStats is the inverse of flattenStats.
func unflattenStats(flat []uint64, per []Stats) {
	for i := range per {
		f := flat[i*statsWords:]
		per[i] = Stats{
			LocalOps: f[0], LocalFailed: f[1],
			RemoteUnitsSent: f[2], RemoteBatchesSent: f[3],
			RemoteUnitsRecv: f[4], RemoteBatchesRecv: f[5], RemoteFailed: f[6],
			Aborts: f[7], Retries: f[8], Serialized: f[9], Combined: f[10],
			BufferAllocs: f[11], WireBatchesSent: f[12], WireBytesSent: f[13],
		}
	}
}
