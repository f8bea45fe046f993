package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aamgo/internal/graph"
)

// endToEnd derives the gated metrics of an untraced window. The workload's
// operation (op.*) is its queries, except on ingest, where it is the
// durable edge-batch acknowledgement; req.per_s counts every request of
// both loops, so a write-side gain that costs the reader shows.
func endToEnd(w *workload, wr *windowResult) map[string]metric {
	op := wr.reads
	if w.writer {
		op = wr.writes
	}
	lat := latencies(op)
	return map[string]metric{
		"op.p50_ms":   {median(lat), "ms"},
		"op.p99_ms":   {quantile(lat, 0.99), "ms"},
		"op.per_s":    {wr.rate(op), "1/s"},
		"req.per_s":   {wr.rate(wr.reads, wr.writes), "1/s"},
		"peak_rss_mb": {wr.rssMB, "MiB"},
	}
}

// rateSlices is how many equal slices a window's rates are taken over
// (odd, so the median is one slice's rate).
const rateSlices = 5

// rate is the median, over rateSlices equal slices of the window, of the
// round trips per second that completed in each slice: a stretch of the
// window that other load on the machine slowed moves it less than it
// moves the window's mean.
func (wr *windowResult) rate(lists ...[]sample) float64 {
	counts := make([]float64, rateSlices)
	width := (wr.end - wr.start) / rateSlices
	for _, ss := range lists {
		for i := range ss {
			k := int((ss[i].end - wr.start) / width)
			counts[min(k, rateSlices-1)]++
		}
	}
	for k := range counts {
		counts[k] /= width.Seconds()
	}
	return median(counts)
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].ms()
	}
	return out
}

func printEndToEnd(out io.Writer, w *workload, m map[string]metric, wr *windowResult, attempted, failed int) {
	fmt.Fprintf(out, "== %s: end to end (%d reads, %d writes in %.1f s)\n", w.name, len(wr.reads), len(wr.writes), wr.seconds())
	for _, side := range []struct {
		name string
		ss   []sample
	}{{"read", wr.reads}, {"write", wr.writes}} {
		if len(side.ss) == 0 {
			continue
		}
		lat := latencies(side.ss)
		fmt.Fprintf(out, "  %-6s p50 %8.3f ms  p90 %8.3f ms  p99 %8.3f ms  %8.1f /s\n", side.name,
			median(lat), quantile(lat, 0.9), quantile(lat, 0.99), float64(len(lat))/wr.seconds())
	}
	byClass := map[int][]float64{}
	for i := range wr.reads {
		byClass[wr.reads[i].req.class] = append(byClass[wr.reads[i].req.class], wr.reads[i].ms())
	}
	for ci, c := range w.reads {
		lat := byClass[ci]
		fmt.Fprintf(out, "    %-18s %6d reads  p50 %8.3f ms  p99 %8.3f ms\n", c.name, len(lat), median(lat), quantile(lat, 0.99))
	}
	printMetrics(out, m)
	fmt.Fprintf(out, "  fail_ratio %.4g (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// layers is the traced run's per-layer breakdown.
type layers struct {
	metrics  map[string]metric
	rows     []layerRow
	clientMS float64 // mean client span of the rows' requests
	coverage float64 // share of client time the layer self times account for
}

type layerRow struct {
	side, layer string
	ms          float64 // mean self time per request
}

// shapeFloor is the share of client time the layer self times must cover.
const shapeFloor = 0.95

// layerTable joins the traced window's client spans, handler spans and
// ?trace=1 fields, and the /metrics deltas, into per-layer metrics. Self
// time of a layer is its span minus the child spans inside it: net is
// client − handler, serve is handler − freeze − compute, and the freeze
// and engine compute come from the response's trace block. The write
// path splits the handler span with the window's dyn.Apply and WAL commit
// means. untracedQPS is the read rate of the same window without tracing,
// for the overhead.
func layerTable(w *workload, in *inputs, wr *windowResult, untracedQPS float64) *layers {
	h := map[uint64]handlerSpan{}
	for _, sp := range wr.spans {
		h[sp.id] = sp
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	lt := &layers{metrics: m}

	// Reads: per-request self times.
	var net, serveSelf, freeze, compute, clientSum, covered, hitMS, bytes []float64
	perClass := map[string][]float64{}
	for i := range wr.reads {
		s := &wr.reads[i]
		c := float64(s.end - s.start)
		clientSum = append(clientSum, c)
		bytes = append(bytes, float64(len(s.body)))
		sp, ok := h[s.id]
		if !ok || !s.ok() {
			continue
		}
		hd := float64(sp.end - sp.start)
		var f, k float64
		if s.cache != "hit" {
			if b, err := parseBody(s.body); err == nil && b.Trace != nil {
				f, k = float64(b.Trace.FreezeNS), float64(b.Trace.ComputeNS)
				name := w.reads[s.req.class].name
				perClass[name] = append(perClass[name], k/1e6)
			}
		} else {
			hitMS = append(hitMS, hd/1e6)
		}
		parts := []float64{c - hd, hd - f - k, f, k}
		for j, p := range parts {
			parts[j] = max(p, 0)
		}
		net, serveSelf, freeze, compute = append(net, parts[0]), append(serveSelf, parts[1]), append(freeze, parts[2]), append(compute, parts[3])
		covered = append(covered, min(sum(parts), c))
	}
	reads := float64(len(wr.reads))
	mean := func(xs []float64) float64 { return sum(xs) / max(reads, 1) }
	if len(wr.reads) > 0 {
		lt.rows = append(lt.rows,
			layerRow{"read", "net (client - handler)", mean(net) / 1e6},
			layerRow{"read", "serve (handler - freeze - compute)", mean(serveSelf) / 1e6},
			layerRow{"read", "dyn freeze", mean(freeze) / 1e6},
			layerRow{"read", "engine compute", mean(compute) / 1e6})
	}
	set("net.self_ms", mean(net)/1e6, "ms")
	set("serve.self_ms", mean(serveSelf)/1e6, "ms")
	set("serve.hit_ms", median(hitMS), "ms")
	set("serve.resp_bytes", mean(bytes), "bytes")
	hits, misses := wr.delta("aam_serve_cache_hits_total"), wr.delta("aam_serve_cache_misses_total")
	set("serve.cache.hit_ratio", ratio(hits, hits+misses), "ratio")

	// Writes: net and handler per request; the handler split from the
	// window's Apply and WAL commit means.
	applyMS := wr.histMean("aam_dyn_mutation_batch_latency_ns", "") / 1e6
	commitMS := wr.histMean("aam_wal_commit_latency_ns", "") / 1e6
	var wNet, wHandler []float64
	for i := range wr.writes {
		s := &wr.writes[i]
		c := float64(s.end - s.start)
		clientSum = append(clientSum, c)
		sp, ok := h[s.id]
		if !ok || !s.ok() {
			continue
		}
		hd := float64(sp.end - sp.start)
		wNet, wHandler = append(wNet, max(c-hd, 0)), append(wHandler, hd)
		covered = append(covered, min(max(c-hd, 0)+hd, c))
	}
	if n := float64(len(wr.writes)); n > 0 {
		hd := sum(wHandler) / n / 1e6
		lt.rows = append(lt.rows,
			layerRow{"write", "net (client - handler)", sum(wNet) / n / 1e6},
			layerRow{"write", "serve (handler - dyn.Apply)", max(hd-applyMS, 0)},
			layerRow{"write", "dyn tx (Apply - WAL commit)", max(applyMS-commitMS, 0)},
			layerRow{"write", "wal commit", commitMS})
	}
	lt.coverage = ratio(sum(covered), sum(clientSum))
	lt.clientMS = sum(clientSum) / max(float64(len(clientSum)), 1) / 1e6
	set("trace.coverage", lt.coverage, "ratio")

	// dyn and wal, from the /metrics deltas.
	incr := wr.delta(`aam_dyn_freezes_total{kind="incremental"}`)
	set("dyn.freeze.incr_ms", wr.histMean("aam_dyn_freeze_latency_ns", `{kind="incremental"}`)/1e6, "ms")
	set("dyn.freeze.touched", ratio(wr.delta("aam_dyn_freeze_touched_vertices_total"), incr), "vertices")
	set("dyn.freeze.full", wr.delta(`aam_dyn_freezes_total{kind="full"}`), "count")
	set("dyn.apply_ms", applyMS, "ms")
	set("dyn.tx_ms", max(applyMS-commitMS, 0), "ms")
	committed, aborts := wr.delta("aam_dyn_tx_committed_total"), 0.0
	for k := range wr.after {
		if strings.HasPrefix(k, "aam_dyn_tx_aborts_total{") {
			aborts += wr.delta(k)
		}
	}
	set("dyn.tx.commit_ratio", ratio(committed, committed+aborts), "ratio")
	appends := wr.delta("aam_wal_appends_total")
	set("wal.commit_ms", commitMS, "ms")
	set("wal.group_size", ratio(appends, wr.delta("aam_wal_fsyncs_total")), "batches")
	set("wal.bytes_per_batch", ratio(wr.delta("aam_wal_bytes_total"), appends), "bytes")
	set("wal.checkpoints", wr.delta("aam_wal_checkpoints_total"), "count")

	// Engines: compute_ns p50 per class; exact counts from the probes.
	for _, name := range []string{"gblas.bfs", "shard.bfs", "aam.bfs", "gblas.sssp", "shard.sssp", "gblas.pagerank", "shard.cc"} {
		set("engine."+name+"_ms", median(perClass[name]), "ms")
	}
	var units, machine []float64
	for i := range wr.probes {
		p := &wr.probes[i]
		b, err := parseBody(p.body)
		if err != nil || !p.ok() {
			continue
		}
		switch w.reads[p.req.class].engine() {
		case "shard":
			if b.Sharded != nil {
				units = append(units, float64(b.Sharded.RemoteUnits))
			}
		case "aam":
			machine = append(machine, float64(b.MachineNS)/1e6)
		}
	}
	set("engine.shard.remote_units", avg(units), "units")
	set("engine.aam.machine_ms", avg(machine), "ms")

	// Cluster: wire counters per job. Coordinator and worker run in this
	// process, so the counters sum both ends of every link.
	jobs := 0.0
	jobBytes := 0.0
	if w.cluster {
		jobs = reads
		unweighted, weighted := binarySize(in.base), binarySize(graph.AttachSymmetricWeights(in.base, 1))
		for i := range wr.reads {
			if w.reads[wr.reads[i].req.class].alg() == "sssp" {
				jobBytes += weighted
			} else {
				jobBytes += unweighted
			}
		}
	}
	set("wire.total_bytes_per_job", ratio(wr.delta("aam_net_bytes_sent_total"), jobs), "bytes")
	set("wire.state_bytes_per_job", ratio(wr.delta("aam_net_state_sync_bytes_total"), jobs), "bytes")
	set("wire.batch_bytes_per_job", ratio(wr.delta("aam_shard_wire_batch_bytes_total"), jobs), "bytes")
	set("wire.job_bytes_per_job", ratio(jobBytes, jobs), "bytes")
	set("wire.frames_per_job", ratio(wr.delta("aam_net_frames_sent_total"), jobs), "frames")
	set("wire.collectives_per_job", ratio(wr.delta("aam_net_collectives_total"), jobs), "count")
	for _, alg := range []string{"bfs", "sssp", "pagerank"} {
		set("cluster."+alg+"_ms", median(perClass["cluster."+alg]), "ms")
	}
	set("cluster.retries", wr.delta("aam_cluster_job_retries_total"), "count")
	set("cluster.fallbacks", wr.delta("aam_serve_cluster_fallbacks_total"), "count")

	set("trace.overhead", ratio(wr.readRate(), untracedQPS)-1, "ratio")
	return lt
}

func (lt *layers) shapeOK() bool { return lt.coverage >= shapeFloor }

func (lt *layers) print(out io.Writer, name string, wr *windowResult) {
	fmt.Fprintf(out, "== %s: per layer (traced, %d reads, %d writes in %.1f s)\n", name, len(wr.reads), len(wr.writes), wr.seconds())
	fmt.Fprintf(out, "  %-6s %-36s %12s\n", "side", "layer", "self ms/req")
	for _, r := range lt.rows {
		fmt.Fprintf(out, "  %-6s %-36s %12.4f\n", r.side, r.layer, r.ms)
	}
	verdict := "PASS"
	if !lt.shapeOK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "  [%s] layer self times cover %.2f%% of client time (mean client span %.4f ms; want >= %.0f%%)\n",
		verdict, 100*lt.coverage, lt.clientMS, 100*shapeFloor)
	printMetrics(out, lt.metrics)
}

// writeSpans writes the window's spans as JSON lines: one client span
// per round trip and the handler span nested under it, sharing its
// request id.
func writeSpans(path string, w *workload, wr *windowResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type span struct {
		Req    uint64 `json:"req"`
		Span   string `json:"span"`
		Parent string `json:"parent,omitempty"`
		Name   string `json:"name,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Status int    `json:"status,omitempty"`
		Cache  string `json:"cache,omitempty"`
	}
	for _, side := range [][]sample{wr.reads, wr.writes} {
		for i := range side {
			s := &side[i]
			name := "POST /edges"
			if s.batch == nil {
				name = w.reads[s.req.class].name
			}
			enc.Encode(span{Req: s.id, Span: "client", Name: name, Start: int64(s.start), End: int64(s.end), Status: s.status, Cache: s.cache})
		}
	}
	for _, sp := range wr.spans {
		enc.Encode(span{Req: sp.id, Span: "handler", Parent: "client", Start: int64(sp.start), End: int64(sp.end)})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// binarySize is the graph's wire size as graph.WriteBinary encodes it —
// what the coordinator ships to each worker per job.
func binarySize(g *graph.Graph) float64 {
	var c countWriter
	graph.WriteBinary(&c, g)
	return float64(c)
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func avg(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
