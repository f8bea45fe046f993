package shard

import "aamgo/internal/obs"

// Package-level telemetry. Executors are per-query throwaways, so their
// instruments live in obs.Default rather than per-instance registries;
// the series aggregate across every executor in the process.
//
// Everything here records at batch granularity — flush, inbox pop, drain
// barrier — never inside Spawn's per-unit path, and every instrument is
// allocation-free, so the exact-gated executor.steady_allocs=0 bench
// metric holds with telemetry enabled.
var (
	metRemoteUnitsSent   = obs.Default.Counter("aam_shard_remote_units_sent_total")
	metRemoteBatchesSent = obs.Default.Counter("aam_shard_remote_batches_sent_total")
	metRemoteUnitsRecv   = obs.Default.Counter("aam_shard_remote_units_recv_total")
	metRemoteBatchesRecv = obs.Default.Counter("aam_shard_remote_batches_recv_total")
	metBufferAllocs      = obs.Default.Counter("aam_shard_buffer_allocs_total")
	metBufferRecycles    = obs.Default.Counter("aam_shard_buffer_recycles_total")
	metFlushBatchUnits   = obs.Default.Histogram("aam_shard_flush_batch_units")
	metDrainLatency      = obs.Default.Histogram("aam_shard_drain_latency_ns")

	// Wire-level series (tcp transport only; all zero in-process). Batch
	// frames are counted at the origin rank — relayed frames don't double
	// count — while the aam_net_* frame/byte totals count every frame this
	// process put on or took off a socket, relays included.
	metWireBatchesSent = obs.Default.Counter("aam_shard_wire_batches_sent_total")
	metWireBatchesRecv = obs.Default.Counter("aam_shard_wire_batches_recv_total")
	metWireBatchBytes  = obs.Default.Counter("aam_shard_wire_batch_bytes_total")
	metNetFramesSent   = obs.Default.Counter("aam_net_frames_sent_total")
	metNetFramesRecv   = obs.Default.Counter("aam_net_frames_recv_total")
	metNetBytesSent    = obs.Default.Counter("aam_net_bytes_sent_total")
	metNetBytesRecv    = obs.Default.Counter("aam_net_bytes_recv_total")
	metNetCollectives  = obs.Default.Counter("aam_net_collectives_total")
	// State-sync record bytes, counted at the origin rank like the batch
	// series (coordinator forwards are relays and do not count).
	metNetStateBytes = obs.Default.Counter("aam_net_state_sync_bytes_total")
	// Job frames (coordinator only): bytes of ftJob frames, header
	// included, and per recipient whether the graph rode along (ships) or
	// was already resident on the worker.
	metNetJobBytes      = obs.Default.Counter("aam_net_job_bytes_total")
	metNetGraphShips    = obs.Default.Counter("aam_net_graph_ships_total")
	metNetGraphResident = obs.Default.Counter("aam_net_graph_resident_total")

	// Cluster-health series (coordinator only). The rank gauges are
	// process-global: a process hosting several coordinators (tests)
	// reports the most recent cluster's membership.
	metClusterRanksLive    = obs.Default.Gauge(`aam_cluster_ranks{state="live"}`)
	metClusterRanksVacant  = obs.Default.Gauge(`aam_cluster_ranks{state="vacant"}`)
	metClusterEvictions    = obs.Default.Counter("aam_cluster_evictions_total")
	metClusterRejoins      = obs.Default.Counter("aam_cluster_rejoins_total")
	metClusterRetries      = obs.Default.Counter("aam_cluster_job_retries_total")
	metClusterHeartbeatRTT = obs.Default.Histogram("aam_cluster_heartbeat_rtt_ns")
)
