// Package serve implements the aam-serve query/update daemon: a JSON/HTTP
// front end over the dynamic-graph subsystem (internal/dyn). Writers POST
// and DELETE edge batches, which execute as transactional AAM batches under
// the configured isolation mechanism; readers hit the query endpoints,
// which run the static analytics of internal/algo against epoch-stamped
// immutable snapshots, so reads and writes proceed concurrently. A bounded
// worker pool caps in-flight request work.
//
// Endpoints:
//
//	POST   /edges               {"edges":[[u,v],...]}   insert a batch
//	DELETE /edges               {"edges":[[u,v],...]}   delete a batch
//	POST   /vertices            {"count":k}             append k vertices
//	GET    /graph                                       size/epoch summary
//	GET    /query/bfs?src=V[&full=1]                    BFS from V
//	GET    /query/cc                                    incremental components
//	GET    /query/pagerank[?iters=I&damping=D&top=K]    PageRank
//	GET    /query/sssp?src=V[&delta=D&wseed=S&full=1]   delta-stepping SSSP
//	GET    /query/mst[?wseed=S&full=1]                  Borůvka spanning forest
//	GET    /query/coloring[?shards=N&seed=S&full=1]     greedy coloring
//	GET    /stats                                       lifetime counters
//	GET    /debug/pprof/...                             profiling (Config.EnablePprof)
//
// The dynamic graph is unweighted; SSSP and MST synthesize deterministic
// symmetric edge weights from ?wseed= (default 1) via graph.SymmetricWeight,
// so repeated queries over the same epoch and seed see identical weights.
//
// Mutation endpoints accept ?mech={htm,atomic,lock,occ,flatcomb} to
// override the server's default isolation mechanism per request.
//
// Query endpoints accept ?engine={aam,shard,gblas} to pick the execution
// engine explicitly; the effective engine is echoed in every response
// (and its trace span), and unknown or conflicting values are rejected
// with 400:
//
//   - aam (the default): the single AAM runtime. ?mech= selects its
//     isolation mechanism; ?shards= above 1 conflicts.
//   - shard: the sharded executor (internal/shard) over the frozen
//     snapshot — requires ?shards=N (N > 1): one shard per vertex block on
//     real goroutines, cross-shard operators coalesced into batches of C
//     units. ?mech= selects the per-shard isolation mechanism and
//     ?part={block,edge} the vertex distribution (block vertex counts vs
//     edge-balanced boundaries). ?shards=N alone implies engine=shard.
//   - gblas: the vectorized masked-SpMV engine (internal/gblas), bfs,
//     sssp and pagerank only; ?shards=, ?mech= and ?part= do not apply.
//
// Results are identical across engines (bit-identical BFS level sets,
// SSSP distances and PageRank ranks); responses gain engine-specific
// counters (shard/messaging totals, push/pull step splits).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/obs"
	"aamgo/internal/run"
	"aamgo/internal/shard"
	"aamgo/internal/stats"
	"aamgo/internal/wal"
)

// Config shapes the daemon.
type Config struct {
	// Mechanism is the default isolation mechanism for mutation batches.
	Mechanism aam.Mechanism
	// Backend runs batches and queries on "sim" (default, deterministic)
	// or "native" machines.
	Backend string
	// Machine is the simulated machine profile (default "has-c").
	Machine string
	// Threads per machine run (default 4).
	Threads int
	// M and C are the AAM coarsening/coalescing factors (defaults 16/64).
	M, C int
	// MaxConcurrent bounds the worker pool: at most this many requests
	// execute graph work at once; further requests wait (default 8).
	MaxConcurrent int
	// MaxQueueWait bounds how long a request may wait for a pool slot.
	// Past the budget the server sheds the request with 429 and a
	// Retry-After hint instead of stacking an unbounded convoy behind the
	// pool. 0 (the default) preserves the historical behavior: wait until
	// a slot frees or the client goes away.
	MaxQueueWait time.Duration
	// Cluster, when non-nil, is the distributed worker cluster behind
	// ?engine=cluster queries. It can also be attached later (after its
	// workers have joined) via SetCluster.
	Cluster *shard.Cluster
	// CacheBytes bounds the epoch-keyed query cache (LRU by total body
	// bytes). 0 selects the 32 MiB default; negative disables the cache
	// (singleflight collapsing included — ETag/304 handling stays on).
	CacheBytes int64
	// Seed fixes machine randomness (default 1).
	Seed int64
	// EnablePprof registers the net/http/pprof handlers under
	// /debug/pprof/ (off by default: the profiling surface is opt-in via
	// aam-serve's -pprof flag). Profile handlers bypass the worker pool —
	// they must respond even when every pool slot is busy, which is
	// exactly when a profile is wanted.
	EnablePprof bool
	// SlowlogK bounds the /debug/slowlog ring: the K slowest query spans
	// are retained (default 32).
	SlowlogK int
	// Logger receives structured request and lifecycle logs (per-request
	// lines at Debug). Nil uses slog.Default().
	Logger *slog.Logger
	// WAL, when non-nil, is the write-ahead log already attached to the
	// graph (wal.Open wires the hook). The server only observes it: its
	// counters join /metrics and /stats, Drain syncs it, and a durability
	// failure on a mutation answers 503 instead of 400 — the batch is
	// applied in memory but the caller must not treat it as durable.
	WAL *wal.Log
}

func (c Config) resolve() (Config, exec.MachineProfile, error) {
	if c.Backend == "" {
		c.Backend = run.Sim
	}
	if c.Machine == "" {
		c.Machine = "has-c"
	}
	prof, err := exec.ProfileByName(c.Machine)
	if err != nil {
		return c, prof, err
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Threads > prof.MaxThreads {
		c.Threads = prof.MaxThreads
	}
	if c.M <= 0 {
		c.M = 16
	}
	if c.C <= 0 {
		c.C = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SlowlogK <= 0 {
		c.SlowlogK = 32
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c, prof, nil
}

// Server is the HTTP front end over one dynamic graph.
type Server struct {
	g    *dyn.Graph
	cfg  Config
	prof exec.MachineProfile
	sem  chan struct{}
	mux  *http.ServeMux
	t0   time.Time

	cache *queryCache // nil when Config.CacheBytes < 0
	boot  uint64      // per-instance ETag nonce (epochs restart every boot)

	// Telemetry: a per-instance registry (rendered by /metrics alongside
	// obs.Default), per-endpoint instruments, the slow-query log and the
	// structured logger.
	reg           *obs.Registry
	ep            map[string]*endpointMetrics
	engLat        map[string]*obs.Histogram
	poolSaturated *obs.Counter
	slow          *slowlog
	log           *slog.Logger

	requests    atomic.Uint64
	queries     atomic.Uint64 // computed queries (cache hits and 304s excluded)
	mutations   atomic.Uint64
	rejected    atomic.Uint64 // requests that failed validation (4xx)
	throttled   atomic.Uint64 // requests shed with 429 past MaxQueueWait
	fallbacks   atomic.Uint64 // cluster queries degraded to in-process
	notModified atomic.Uint64 // ETag If-None-Match hits answered 304

	// cluster is the attached distributed worker cluster (nil until
	// SetCluster); ?engine=cluster queries route through it and degrade
	// to in-process execution when it cannot answer.
	cluster atomic.Pointer[shard.Cluster]

	draining atomic.Bool // Drain called: pool admits no new work

	wviewMu sync.Mutex
	wview   weightedMemo // see weightedView
}

// New builds a server over g.
func New(g *dyn.Graph, cfg Config) (*Server, error) {
	cfg, prof, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	s := &Server{
		g:    g,
		cfg:  cfg,
		prof: prof,
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		mux:  http.NewServeMux(),
		t0:   time.Now(),
		boot: uint64(time.Now().UnixNano()),
	}
	if cfg.CacheBytes > 0 {
		s.cache = newQueryCache(cfg.CacheBytes)
	}
	if cfg.Cluster != nil {
		s.cluster.Store(cfg.Cluster)
	}
	s.reg = obs.NewRegistry()
	s.slow = newSlowlog(cfg.SlowlogK)
	s.log = cfg.Logger
	s.initMetrics([]string{
		"edges", "vertices", "graph", "bfs", "cc", "pagerank",
		"sssp", "mst", "coloring", "stats", "metrics", "slowlog",
	})
	g.RegisterMetrics(s.reg)
	if cfg.WAL != nil {
		cfg.WAL.RegisterMetrics(s.reg)
	}
	s.mux.HandleFunc("/edges", s.instrumented("edges", s.pooled(s.handleEdges)))
	s.mux.HandleFunc("/vertices", s.instrumented("vertices", s.pooled(s.handleVertices)))
	// GET endpoints whose body is a pure function of (epoch, params) run
	// behind the epoch-keyed cache: ETag short-circuit, then LRU replay,
	// then singleflight-collapsed computation inside the worker pool.
	for _, ep := range []struct {
		path, name string
		h          http.HandlerFunc
	}{
		{"/graph", "graph", s.handleGraph},
		{"/query/bfs", "bfs", s.handleBFS},
		{"/query/cc", "cc", s.handleCC},
		{"/query/pagerank", "pagerank", s.handlePageRank},
		{"/query/sssp", "sssp", s.handleSSSP},
		{"/query/mst", "mst", s.handleMST},
		{"/query/coloring", "coloring", s.handleColoring},
	} {
		s.mux.HandleFunc(ep.path, s.instrumented(ep.name, s.cachedGET(s.pooled(ep.h))))
	}
	// /stats, /metrics and /debug/slowlog are uncacheable live reads:
	// no ETag, Cache-Control: no-store, so a poller can never observe
	// counters frozen behind a 304. /metrics and /debug/slowlog also
	// bypass the worker pool (like pprof) — they must answer exactly when
	// every pool slot is busy.
	s.mux.HandleFunc("/stats", s.instrumented("stats", s.pooled(s.handleStats)))
	s.mux.HandleFunc("/metrics", s.instrumented("metrics", s.handleMetrics))
	s.mux.HandleFunc("/debug/slowlog", s.instrumented("slowlog", s.handleSlowlog))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// SetCluster attaches (nil detaches) the distributed worker cluster
// behind ?engine=cluster. Safe to call while serving: the daemon attaches
// the cluster once its workers have joined; until then engine=cluster
// requests answer 400.
func (s *Server) SetCluster(c *shard.Cluster) { s.cluster.Store(c) }

// pooled gates h behind the bounded worker pool. A request whose client
// goes away while queued is dropped without running. Requests that find
// every slot busy are counted as pool saturation before they wait. Once
// Drain has been called, nothing new is admitted: a mutation that never
// enters the pool is cleanly rejected, never half-applied.
func (s *Server) pooled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.poolSaturated.Inc()
			if !s.awaitSlot(w, r) {
				return
			}
		}
		defer func() { <-s.sem }()
		h(w, r)
	}
}

// awaitSlot queues one request on the worker pool. With MaxQueueWait set
// the wait is bounded: admission control answers 429 with a Retry-After
// hint when the budget expires, so under sustained overload clients see
// an honest backpressure signal instead of unbounded queueing — the pool
// keeps serving the requests it already admitted at full speed.
func (s *Server) awaitSlot(w http.ResponseWriter, r *http.Request) bool {
	var expired <-chan time.Time
	if s.cfg.MaxQueueWait > 0 {
		t := time.NewTimer(s.cfg.MaxQueueWait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-expired:
		s.throttled.Add(1)
		retry := int((s.cfg.MaxQueueWait + time.Second - 1) / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "server busy: queue wait budget exhausted", http.StatusTooManyRequests)
		return false
	case <-r.Context().Done():
		http.Error(w, "canceled while queued", http.StatusServiceUnavailable)
		return false
	}
}

// Drain quiesces the write path for shutdown: new pool entrants are
// rejected with 503, then every pool slot is acquired — so any request
// already inside the pool has finished (for a mutation: Apply returned,
// meaning its WAL record is durable under the configured mode) — and
// finally the WAL tail is synced. After Drain returns, the graph holds no
// half-applied batch: every acknowledged mutation is on disk, every
// unacknowledged one was rejected whole. The pool stays closed for good;
// Drain is called once, on the way down.
func (s *Server) Drain() error {
	s.draining.Store(true)
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		s.sem <- struct{}{}
	}
	if s.cfg.WAL != nil {
		return s.cfg.WAL.Sync()
	}
	return nil
}

// mutateStatus maps an Apply error to its HTTP status: a durability
// failure is the server's fault (503 — the batch applied in memory but
// the log could not make it durable), everything else is a caller error.
func mutateStatus(err error) int {
	if errors.Is(err, dyn.ErrDurability) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// etagMatch implements the If-None-Match comparison (weak comparison is
// fine here: our tags are exact strings). "*" is deliberately not
// special-cased: it would short-circuit before request validation and
// 304 requests that have no current representation (e.g. a 400).
func etagMatch(headerVal, etag string) bool {
	for _, part := range strings.Split(headerVal, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

// cachedGET layers the read-path fast paths over a GET query handler:
//
//  1. If-None-Match against the epoch-derived ETag → 304, no body, no
//     graph work;
//  2. epoch-keyed LRU lookup → replay the cached bytes (worker pool
//     bypassed);
//  3. singleflight: one leader computes inside the worker pool, every
//     concurrent identical request waits and replays the leader's bytes.
//
// Results are stored only when the graph epoch was stable across the
// computation, so a cached body always matches its key's epoch; lookups
// always key on the current epoch, so a mutation implicitly invalidates
// every older entry.
func (s *Server) cachedGET(inner http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			inner(w, r)
			return
		}
		key := cacheKey{epoch: s.g.Epoch(), path: r.URL.Path, params: canonicalParams(r.URL.Query())}
		etag := key.etag(s.boot)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			s.notModified.Add(1)
			spanOf(r).Outcome = "304"
			w.Header().Set("ETag", etag)
			w.Header().Set("X-Cache", "304")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if s.cache == nil {
			spanOf(r).Outcome = "bypass"
			w.Header().Set("X-Cache", "bypass")
			rec := newBodyRecorder()
			inner(rec, r)
			// Tag only epoch-stable 200s (same rule as the caching leader):
			// a tagged 4xx would let the 304 precheck validate an error.
			tag := ""
			if rec.status == http.StatusOK && s.g.Epoch() == key.epoch {
				tag = etag
			}
			s.replay(w, rec.header, rec.status, rec.body, tag)
			return
		}
		var f *flight
		leader := false
		for !leader {
			var body []byte
			body, f, leader = s.cache.acquire(key)
			if body != nil {
				spanOf(r).Outcome = "hit"
				w.Header().Set("X-Cache", "hit")
				h := make(http.Header)
				h.Set("Content-Type", "application/json")
				s.replay(w, h, http.StatusOK, body, etag)
				return
			}
			if leader {
				break
			}
			select {
			case <-f.done:
				// A 503 here means the leader's own client vanished while
				// queued for the pool — that says nothing about this
				// request, whose connection is alive. Re-acquire: the next
				// round finds the cached entry, a new flight, or promotes
				// this request to leader.
				if f.status == http.StatusServiceUnavailable && r.Context().Err() == nil {
					continue
				}
				tag := ""
				if f.cached {
					tag = etag
				}
				spanOf(r).Outcome = "collapsed"
				w.Header().Set("X-Cache", "collapsed")
				s.replay(w, f.header, f.status, f.body, tag)
				return
			case <-r.Context().Done():
				http.Error(w, "canceled while collapsed", http.StatusServiceUnavailable)
				return
			}
		}
		rec := newBodyRecorder()
		completed := false
		defer func() {
			if !completed { // handler panicked: wake followers with a 500
				f.status, f.body = http.StatusInternalServerError, nil
				f.header = rec.header
				close(f.done)
				s.cache.finish(key)
			}
		}()
		inner(rec, r)
		f.status, f.body, f.header = rec.status, rec.body, rec.header
		// Cache (and stamp with the ETag) only epoch-stable 200s.
		if rec.status == http.StatusOK && s.g.Epoch() == key.epoch {
			f.cached = true
			s.cache.store(key, rec.body)
		}
		close(f.done)
		s.cache.finish(key)
		completed = true
		tag := ""
		if f.cached {
			tag = etag
		}
		w.Header().Set("X-Cache", "computed")
		s.replay(w, rec.header, rec.status, rec.body, tag)
	}
}

// replay writes a recorded response, optionally stamped with an ETag.
func (s *Server) replay(w http.ResponseWriter, header http.Header, status int, body []byte, etag string) {
	for k, vs := range header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.rejected.Add(1)
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// txConfig derives the per-request transaction config, honoring ?mech=.
func (s *Server) txConfig(r *http.Request) (dyn.TxConfig, error) {
	mech := s.cfg.Mechanism
	if name := r.URL.Query().Get("mech"); name != "" {
		var ok bool
		if mech, ok = MechByName(name); !ok {
			return dyn.TxConfig{}, fmt.Errorf("unknown mechanism %q (want htm, atomic, lock, occ or flatcomb)", name)
		}
	}
	return dyn.TxConfig{
		Mechanism: mech,
		Backend:   s.cfg.Backend,
		Machine:   s.cfg.Machine,
		Threads:   s.cfg.Threads,
		M:         s.cfg.M,
		C:         s.cfg.C,
		Seed:      s.cfg.Seed,
	}, nil
}

// Wire names of the query engines (?engine=).
const (
	engAAM     = "aam"
	engShard   = "shard"
	engGBLAS   = "gblas"
	engCluster = "cluster"
)

// queryMech resolves ?mech= against the server default. Unlike the old
// sharded-only parsing, an unknown mechanism is a 400 on every query path
// — nothing falls through silently.
func (s *Server) queryMech(r *http.Request) (aam.Mechanism, error) {
	mech := s.cfg.Mechanism
	if name := r.URL.Query().Get("mech"); name != "" {
		var ok bool
		if mech, ok = MechByName(name); !ok {
			return 0, fmt.Errorf("unknown mechanism %q (want htm, atomic, lock, occ or flatcomb)", name)
		}
	}
	return mech, nil
}

// shardCfg derives a sharded-executor config from ?shards= (and ?mech=,
// ?part=). shards == 0 means the single-runtime path. The upper bound
// mirrors the executor's own sanity cap (64 shards per processor), so
// every value the endpoint accepts is one the executor will run.
func (s *Server) shardCfg(r *http.Request) (shard.Config, int, error) {
	mech, err := s.queryMech(r)
	if err != nil {
		return shard.Config{}, 0, err
	}
	v := r.URL.Query().Get("shards")
	if v == "" {
		if p := r.URL.Query().Get("part"); p != "" {
			return shard.Config{}, 0, fmt.Errorf("part only applies to the sharded path (add ?shards=N)")
		}
		// Single-runtime path: the resolved mechanism still rides along so
		// the aam engine honors ?mech= too.
		return shard.Config{Mechanism: mech}, 0, nil
	}
	maxShards := 64 * runtime.GOMAXPROCS(0)
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > maxShards {
		return shard.Config{}, 0, fmt.Errorf("bad shards %q (want 1..%d on this server)", v, maxShards)
	}
	part := shard.PartBlock
	if name := r.URL.Query().Get("part"); name != "" {
		var ok bool
		if part, ok = shard.PartByName(name); !ok {
			return shard.Config{}, 0, fmt.Errorf("unknown partition %q (want block or edge)", name)
		}
		// shards=1 takes the single-runtime path below, where the
		// partition choice would be silently dropped — reject it like the
		// missing-?shards= case above.
		if n <= 1 {
			return shard.Config{}, 0, fmt.Errorf("part only applies to the sharded path (want shards >= 2)")
		}
	}
	return shard.Config{Shards: n, BatchSize: s.cfg.C, Mechanism: mech, Part: part}, n, nil
}

// querySel resolves the engine axis of one query request — ?engine=
// against ?shards=/?mech=/?part= — and stamps the effective engine into
// the request's trace span. Unknown and conflicting combinations are
// errors (the handler answers 400); an absent ?engine= preserves the
// historical behavior: shard when ?shards=N (N > 1), aam otherwise.
func (s *Server) querySel(r *http.Request) (string, shard.Config, int, error) {
	scfg, shards, err := s.shardCfg(r)
	if err != nil {
		return "", scfg, 0, err
	}
	eng := ""
	switch name := r.URL.Query().Get("engine"); name {
	case "":
		eng = engAAM
		if shards > 1 {
			eng = engShard
		}
	case engAAM:
		if shards > 1 {
			return "", scfg, 0, fmt.Errorf("engine=aam conflicts with shards=%d (the aam engine is unsharded)", shards)
		}
		eng = engAAM
	case engShard:
		if shards < 2 {
			return "", scfg, 0, fmt.Errorf("engine=shard needs ?shards=N with N >= 2")
		}
		eng = engShard
	case engGBLAS:
		if r.URL.Query().Get("shards") != "" {
			return "", scfg, 0, fmt.Errorf("engine=gblas conflicts with ?shards= (the gblas engine is unsharded)")
		}
		if r.URL.Query().Get("mech") != "" {
			return "", scfg, 0, fmt.Errorf("mech does not apply to the gblas engine")
		}
		eng = engGBLAS
	case engCluster:
		if shards < 2 {
			return "", scfg, 0, fmt.Errorf("engine=cluster needs ?shards=N with N >= 2")
		}
		if s.cluster.Load() == nil {
			return "", scfg, 0, fmt.Errorf("engine=cluster needs an attached worker cluster (start the daemon with -cluster-listen)")
		}
		eng = engCluster
	default:
		return "", scfg, 0, fmt.Errorf("unknown engine %q (want aam, shard, gblas or cluster)", name)
	}
	spanOf(r).Engine = eng
	return eng, scfg, shards, nil
}

// clusterInfo reports how a cluster-routed query was executed; it is
// embedded in the response body under "cluster" so a caller can tell a
// distributed answer from a gracefully degraded in-process one.
type clusterInfo struct {
	Used     bool   `json:"used"`
	Ranks    int    `json:"ranks,omitempty"`
	Fallback string `json:"fallback,omitempty"`
}

// runSharded executes one sharded query body. On the shard engine it is
// just local(). On the cluster engine it routes the job to the attached
// worker cluster and, when the cluster cannot answer — detached, closed,
// poisoned, or the distributed run failed even after its retries — it
// degrades gracefully: the same query runs in-process via local() and the
// response body and trace span record the fallback instead of surfacing
// a 5xx to a caller whose query the server can still answer.
func (s *Server) runSharded(r *http.Request, eng string, dist func(*shard.Cluster) error, local func() error) (*clusterInfo, error) {
	if eng != engCluster {
		return nil, local()
	}
	info := &clusterInfo{}
	if c := s.cluster.Load(); c == nil {
		info.Fallback = "no cluster attached"
	} else if err := dist(c); err != nil {
		info.Fallback = err.Error()
	} else {
		info.Used = true
		info.Ranks = c.LiveWorkers() + 1
		return info, nil
	}
	s.fallbacks.Add(1)
	spanOf(r).Fallback = info.Fallback
	return info, local()
}

// shardSummary renders the messaging counters of a sharded run and
// copies them into the request's trace span.
func (s *Server) shardSummary(r *http.Request, cfg shard.Config, res shard.Result) map[string]any {
	tot := res.Totals()
	sp := spanOf(r)
	sp.Shards = cfg.Shards
	sp.RemoteUnits = tot.RemoteUnitsSent
	sp.RemoteBatches = tot.RemoteBatchesSent
	return map[string]any{
		"shards":         cfg.Shards,
		"part":           cfg.Part.String(),
		"epochs":         res.Epochs,
		"local_ops":      tot.LocalOps,
		"remote_units":   tot.RemoteUnitsSent,
		"remote_batches": tot.RemoteBatchesSent,
	}
}

// timedFreeze materializes the snapshot, charging the materialization to
// the request's trace span (repeated freezes of a cached epoch cost ~0
// and honestly report it).
func (s *Server) timedFreeze(r *http.Request, snap *dyn.Snapshot) *graph.Graph {
	t0 := time.Now()
	f := snap.Freeze()
	sp := spanOf(r)
	sp.FreezeNS += time.Since(t0).Nanoseconds()
	sp.Epoch = snap.Epoch()
	return f
}

// writeQuery finishes a query response: under ?trace=1 the request's
// span is embedded as out["trace"]. Traced and untraced variants cache
// under different keys (trace=1 is a cache-key parameter), and a replayed
// traced body carries the span of the request that computed it — the
// X-Cache header describes the replay itself.
func (s *Server) writeQuery(w http.ResponseWriter, r *http.Request, out map[string]any) {
	if r.URL.Query().Get("trace") == "1" {
		sp := spanOf(r)
		if wall, ok := out["wall_time_ns"].(int64); ok {
			sp.ComputeNS = wall
		}
		out["trace"] = sp.traceView()
	}
	s.writeJSON(w, http.StatusOK, out)
}

// MechByName resolves the wire names of the five isolation mechanisms.
func MechByName(name string) (aam.Mechanism, bool) {
	for _, m := range []aam.Mechanism{
		aam.MechHTM, aam.MechAtomic, aam.MechLock, aam.MechOptimistic, aam.MechFlatCombining,
	} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

type edgesRequest struct {
	Edges [][2]int32 `json:"edges"`
}

type mutateResponse struct {
	Applied   int    `json:"applied"`
	Rejected  int    `json:"rejected"`
	Redundant int    `json:"redundant"`
	Epoch     uint64 `json:"epoch"`
	Compacted bool   `json:"compacted"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Aborts    uint64 `json:"aborts"`
	Retries   uint64 `json:"retries"`
	Mechanism string `json:"mechanism"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var kind dyn.Kind
	switch r.Method {
	case http.MethodPost:
		kind = dyn.KindAddEdge
	case http.MethodDelete:
		kind = dyn.KindRemoveEdge
	default:
		s.fail(w, http.StatusMethodNotAllowed, "use POST or DELETE")
		return
	}
	var req edgesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if len(req.Edges) == 0 {
		s.fail(w, http.StatusBadRequest, "empty edge batch")
		return
	}
	cfg, err := s.txConfig(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := make([]dyn.Mutation, len(req.Edges))
	for i, e := range req.Edges {
		batch[i] = dyn.Mutation{Kind: kind, U: e[0], V: e[1]}
	}
	res, err := s.g.Apply(batch, cfg)
	if err != nil {
		s.fail(w, mutateStatus(err), "%v", err)
		return
	}
	s.mutations.Add(1)
	s.writeJSON(w, http.StatusOK, mutateResponse{
		Applied:   res.Applied,
		Rejected:  res.Rejected,
		Redundant: res.Redundant,
		Epoch:     res.Epoch,
		Compacted: res.Compacted,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Aborts:    res.Stats.TotalAborts(),
		Retries:   res.Stats.Retries,
		Mechanism: cfg.Mechanism.String(),
	})
}

type verticesRequest struct {
	Count int `json:"count"`
}

func (s *Server) handleVertices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req verticesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Count <= 0 || req.Count > 1<<20 {
		s.fail(w, http.StatusBadRequest, "count %d out of range [1, 2^20]", req.Count)
		return
	}
	cfg, err := s.txConfig(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := make([]dyn.Mutation, req.Count)
	for i := range batch {
		batch[i] = dyn.AddVertex()
	}
	res, err := s.g.Apply(batch, cfg)
	if err != nil {
		s.fail(w, mutateStatus(err), "%v", err)
		return
	}
	s.mutations.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"added": res.VerticesAdded,
		"n":     s.g.N(),
		"epoch": res.Epoch,
	})
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	snap := s.g.Snapshot()
	s.writeQuery(w, r, map[string]any{
		"n":          snap.N(),
		"arcs":       snap.NumArcs(),
		"delta_arcs": snap.DeltaArcs(),
		"epoch":      snap.Epoch(),
	})
}

// engineCfg shapes the single-runtime AAM engine; mech is the ?mech=
// resolved mechanism (shardCfg carries it even on the unsharded path).
func (s *Server) engineCfg(mech aam.Mechanism) aam.Config {
	cfg := aam.Config{M: s.cfg.M, C: s.cfg.C, Mechanism: mech}
	if cfg.Mechanism == aam.MechHTM {
		cfg.HTM = s.prof.HTMVariant("")
	}
	return cfg
}

func (s *Server) machine(memWords int, handlers []exec.HandlerFunc) exec.Machine {
	prof := s.prof
	return run.New(s.cfg.Backend, exec.Config{
		Nodes: 1, ThreadsPerNode: s.cfg.Threads,
		MemWords: memWords, Profile: &prof,
		Handlers: handlers, Seed: s.cfg.Seed,
	})
}

func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	snap := s.g.Snapshot() // one consistent cut; writers continue concurrently
	src, err := strconv.Atoi(r.URL.Query().Get("src"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad src: %v", err)
		return
	}
	if src < 0 || src >= snap.N() {
		s.fail(w, http.StatusBadRequest, "src %d out of range [0,%d)", src, snap.N())
		return
	}
	eng, scfg, _, err := s.querySel(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	f := s.timedFreeze(r, snap)
	switch eng {
	case engShard, engCluster:
		t0 := time.Now()
		var res shard.BFSResult
		cl, err := s.runSharded(r, eng,
			func(c *shard.Cluster) (e error) { res, e = c.BFS(f, src, scfg); return },
			func() (e error) { res, e = shard.BFS(f, src, scfg); return })
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.queries.Add(1)
		reached := 0
		for _, p := range res.Parents {
			if p >= 0 {
				reached++
			}
		}
		out := map[string]any{
			"src":          src,
			"engine":       eng,
			"epoch":        snap.Epoch(),
			"n":            f.N,
			"reached":      reached,
			"levels":       res.Levels,
			"sharded":      s.shardSummary(r, scfg, res.Result),
			"wall_time_ns": time.Since(t0).Nanoseconds(),
		}
		if cl != nil {
			out["cluster"] = cl
		}
		if r.URL.Query().Get("full") == "1" {
			out["parents"] = res.Parents
		}
		s.writeQuery(w, r, out)
		return
	case engGBLAS:
		t0 := time.Now()
		parents, _, res, err := gblas.EngineBFS(f, src)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.queries.Add(1)
		reached := 0
		for _, p := range parents {
			if p >= 0 {
				reached++
			}
		}
		out := map[string]any{
			"src":     src,
			"engine":  eng,
			"epoch":   snap.Epoch(),
			"n":       f.N,
			"reached": reached,
			// Steps counts frontier expansions including the final empty
			// one, so depth matches the sharded response's "levels".
			"levels": res.Steps - 1,
			"gblas": map[string]any{
				"push_steps": res.PushSteps,
				"pull_steps": res.PullSteps,
			},
			"wall_time_ns": time.Since(t0).Nanoseconds(),
		}
		if r.URL.Query().Get("full") == "1" {
			out["parents"] = parents
		}
		s.writeQuery(w, r, out)
		return
	}
	b := algo.NewBFS(f, 1, algo.BFSConfig{
		Mode: algo.BFSAAM, Engine: s.engineCfg(scfg.Mechanism), VisitedCheck: true,
	})
	m := s.machine(b.MemWords(), b.Handlers(nil))
	t0 := time.Now()
	res := m.Run(b.Body(src))
	parents := b.Parents(m)
	s.queries.Add(1)

	reached := 0
	for _, p := range parents {
		if p >= 0 {
			reached++
		}
	}
	out := map[string]any{
		"src":             src,
		"engine":          eng,
		"epoch":           snap.Epoch(),
		"n":               f.N,
		"reached":         reached,
		"machine_time_ns": int64(res.Elapsed),
		"wall_time_ns":    time.Since(t0).Nanoseconds(),
	}
	if r.URL.Query().Get("full") == "1" {
		out["parents"] = parents
	}
	s.writeQuery(w, r, out)
}

func (s *Server) handleCC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	eng, scfg, _, err := s.querySel(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if eng == engGBLAS {
		s.fail(w, http.StatusBadRequest, "engine gblas does not implement components (use aam or shard)")
		return
	}
	if eng == engShard || eng == engCluster {
		snap := s.g.Snapshot()
		t0 := time.Now()
		f := s.timedFreeze(r, snap)
		var res shard.CCResult
		cl, err := s.runSharded(r, eng,
			func(c *shard.Cluster) (e error) { res, e = c.Components(f, scfg); return },
			func() (e error) { res, e = shard.Components(f, scfg); return })
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.queries.Add(1)
		distinct := map[int32]struct{}{}
		for _, l := range res.Labels {
			distinct[l] = struct{}{}
		}
		out := map[string]any{
			"components":   len(distinct),
			"engine":       eng,
			"n":            snap.N(),
			"epoch":        snap.Epoch(),
			"rounds":       res.Rounds,
			"sharded":      s.shardSummary(r, scfg, res.Result),
			"wall_time_ns": time.Since(t0).Nanoseconds(),
		}
		if cl != nil {
			out["cluster"] = cl
		}
		if r.URL.Query().Get("full") == "1" {
			out["labels"] = res.Labels
		}
		s.writeQuery(w, r, out)
		return
	}
	// The unsharded path serves the incrementally maintained labels — no
	// AAM machine runs, so an explicit ?mech= would be silently dropped.
	if r.URL.Query().Get("mech") != "" {
		s.fail(w, http.StatusBadRequest, "mech only applies to the sharded components query (add ?shards=N)")
		return
	}
	t0 := time.Now()
	// One atomic view: count, labels and epoch belong to the same state.
	snap, count, labels := s.g.ComponentView(r.URL.Query().Get("full") == "1")
	s.queries.Add(1)
	out := map[string]any{
		"components":   count,
		"engine":       eng,
		"n":            snap.N(),
		"epoch":        snap.Epoch(),
		"wall_time_ns": time.Since(t0).Nanoseconds(),
	}
	if labels != nil {
		out["labels"] = labels
	}
	s.writeQuery(w, r, out)
}

type rankedVertex struct {
	V    int     `json:"v"`
	Rank float64 `json:"rank"`
}

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	iters, damping, top := 10, 0.85, 10
	var err error
	if v := q.Get("iters"); v != "" {
		if iters, err = strconv.Atoi(v); err != nil || iters < 1 || iters > 1000 {
			s.fail(w, http.StatusBadRequest, "bad iters %q", v)
			return
		}
	}
	if v := q.Get("damping"); v != "" {
		if damping, err = strconv.ParseFloat(v, 64); err != nil || damping <= 0 || damping >= 1 {
			s.fail(w, http.StatusBadRequest, "bad damping %q", v)
			return
		}
	}
	if v := q.Get("top"); v != "" {
		if top, err = strconv.Atoi(v); err != nil || top < 1 {
			s.fail(w, http.StatusBadRequest, "bad top %q", v)
			return
		}
	}
	eng, scfg, _, err := s.querySel(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := s.g.Snapshot()
	f := s.timedFreeze(r, snap)
	// Validate an explicit top against the graph size on *every* path:
	// topRanked clamps defensively, but a request for more vertices than
	// the graph has is a caller error, not a truncation.
	if q.Get("top") != "" && top > f.N {
		s.fail(w, http.StatusBadRequest, "top %d out of range [1,%d]", top, f.N)
		return
	}
	switch eng {
	case engShard, engCluster:
		t0 := time.Now()
		var res shard.PRResult
		cl, err := s.runSharded(r, eng,
			func(c *shard.Cluster) (e error) { res, e = c.PageRank(f, damping, iters, scfg); return },
			func() (e error) { res, e = shard.PageRank(f, damping, iters, scfg); return })
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.queries.Add(1)
		out := map[string]any{
			"iters":        iters,
			"damping":      damping,
			"engine":       eng,
			"epoch":        snap.Epoch(),
			"top":          topRanked(res.Ranks, top),
			"sharded":      s.shardSummary(r, scfg, res.Result),
			"wall_time_ns": time.Since(t0).Nanoseconds(),
		}
		if cl != nil {
			out["cluster"] = cl
		}
		s.writeQuery(w, r, out)
		return
	case engGBLAS:
		t0 := time.Now()
		ranks, _ := gblas.EnginePageRank(f, damping, iters)
		s.queries.Add(1)
		s.writeQuery(w, r, map[string]any{
			"iters":        iters,
			"damping":      damping,
			"engine":       eng,
			"epoch":        snap.Epoch(),
			"top":          topRanked(ranks, top),
			"wall_time_ns": time.Since(t0).Nanoseconds(),
		})
		return
	}
	p := algo.NewPageRank(f, 1, algo.PRConfig{
		Damping: damping, Iterations: iters, Engine: s.engineCfg(scfg.Mechanism),
	})
	m := s.machine(p.MemWords(), p.Handlers(nil))
	t0 := time.Now()
	res := m.Run(p.Body())
	ranks := p.Ranks(m)
	s.queries.Add(1)

	s.writeQuery(w, r, map[string]any{
		"iters":           iters,
		"damping":         damping,
		"engine":          eng,
		"epoch":           snap.Epoch(),
		"top":             topRanked(ranks, top),
		"machine_time_ns": int64(res.Elapsed),
		"wall_time_ns":    time.Since(t0).Nanoseconds(),
	})
}

// topRanked returns the top vertices by rank, descending.
func topRanked(ranks []float64, top int) []rankedVertex {
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] > ranks[idx[b]] })
	if top > len(idx) {
		top = len(idx)
	}
	best := make([]rankedVertex, top)
	for i := 0; i < top; i++ {
		best[i] = rankedVertex{V: idx[i], Rank: ranks[idx[i]]}
	}
	return best
}

// weightedView attaches deterministic symmetric edge weights to a frozen
// snapshot (the dynamic graph stores none): the same wseed over the same
// epoch yields the same weights, so SSSP and MST queries are reproducible.
// The last view is memoized by (frozen graph, wseed) — frozen graphs are
// immutable — so repeated weighted queries at one epoch skip the O(arcs)
// rebuild, and cluster jobs see one stable graph per epoch.
func (s *Server) weightedView(f *graph.Graph, wseed uint64) *graph.Graph {
	s.wviewMu.Lock()
	m := s.wview
	s.wviewMu.Unlock()
	if m.f == f && m.wseed == wseed && m.g != nil {
		return m.g
	}
	g := graph.AttachSymmetricWeights(f, wseed)
	s.wviewMu.Lock()
	s.wview = weightedMemo{f: f, wseed: wseed, g: g}
	s.wviewMu.Unlock()
	return g
}

// weightedMemo is weightedView's one-entry memo.
type weightedMemo struct {
	f     *graph.Graph
	wseed uint64
	g     *graph.Graph
}

// uintParam parses an optional non-negative integer query parameter.
func uintParam(r *http.Request, name string, def uint64) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 63)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// signedDists maps the uint64 distance vector to JSON-friendly int64s
// (-1 = unreachable).
func signedDists(dists []uint64) []int64 {
	out := make([]int64, len(dists))
	for i, d := range dists {
		if d == ^uint64(0) {
			out[i] = -1
		} else {
			out[i] = int64(d)
		}
	}
	return out
}

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	// Validate every parameter before freezing: materializing the CSR is
	// O(V+E) and invalid requests must not pay it.
	snap := s.g.Snapshot()
	src, err := strconv.Atoi(r.URL.Query().Get("src"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad src: %v", err)
		return
	}
	// Graph-size validation happens here, on every path: the sharded
	// executor re-checks, but the single-runtime algorithm would panic.
	if src < 0 || src >= snap.N() {
		s.fail(w, http.StatusBadRequest, "src %d out of range [0,%d)", src, snap.N())
		return
	}
	wseed, err := uintParam(r, "wseed", 1)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	delta, err := uintParam(r, "delta", 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng, scfg, _, err := s.querySel(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	f := s.timedFreeze(r, snap)
	wg := s.weightedView(f, wseed)
	out := map[string]any{
		"src":    src,
		"engine": eng,
		"epoch":  snap.Epoch(),
		"n":      f.N,
		"wseed":  wseed,
	}
	var dists []uint64
	switch eng {
	case engShard, engCluster:
		t0 := time.Now()
		var res shard.SSSPResult
		cl, err := s.runSharded(r, eng,
			func(c *shard.Cluster) (e error) { res, e = c.SSSP(wg, src, delta, scfg); return },
			func() (e error) { res, e = shard.SSSP(wg, src, delta, scfg); return })
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		dists = res.Dists
		out["buckets"] = res.Buckets
		out["delta"] = res.Delta
		out["sharded"] = s.shardSummary(r, scfg, res.Result)
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
		if cl != nil {
			out["cluster"] = cl
		}
	case engGBLAS:
		if r.URL.Query().Get("delta") != "" {
			s.fail(w, http.StatusBadRequest, "delta only applies to the sharded delta-stepping SSSP")
			return
		}
		t0 := time.Now()
		res, eres, err := gblas.EngineSSSP(wg, src)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		dists = res
		out["gblas"] = map[string]any{"rounds": eres.Steps}
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
	default:
		a := algo.NewSSSP(wg, 1)
		m := s.machine(a.MemWords(), a.Handlers(nil))
		t0 := time.Now()
		res := m.Run(a.Body(src, s.engineCfg(scfg.Mechanism)))
		dists = a.Dists(m)
		out["machine_time_ns"] = int64(res.Elapsed)
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
	}
	s.queries.Add(1)
	reached := 0
	for _, d := range dists {
		if d != ^uint64(0) {
			reached++
		}
	}
	out["reached"] = reached
	if r.URL.Query().Get("full") == "1" {
		out["dists"] = signedDists(dists)
	}
	s.writeQuery(w, r, out)
}

func (s *Server) handleMST(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	wseed, err := uintParam(r, "wseed", 1)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng, scfg, shards, err := s.querySel(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if eng == engGBLAS {
		s.fail(w, http.StatusBadRequest, "engine gblas does not implement mst (use aam or shard)")
		return
	}
	snap := s.g.Snapshot()
	f := s.timedFreeze(r, snap)
	out := map[string]any{
		"n":      f.N,
		"engine": eng,
		"epoch":  snap.Epoch(),
		"wseed":  wseed,
	}
	if f.N == 0 {
		out["weight"] = 0
		out["edges"] = 0
		out["components"] = 0
		s.queries.Add(1)
		s.writeQuery(w, r, out)
		return
	}
	wg := s.weightedView(f, wseed)
	var labels []int32
	if shards > 1 {
		t0 := time.Now()
		var res shard.MSTResult
		cl, err := s.runSharded(r, eng,
			func(c *shard.Cluster) (e error) { res, e = c.MST(wg, scfg); return },
			func() (e error) { res, e = shard.MST(wg, scfg); return })
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		labels = res.Labels
		out["weight"] = res.Weight
		out["edges"] = res.Edges
		out["rounds"] = res.Rounds
		out["sharded"] = s.shardSummary(r, scfg, res.Result)
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
		if cl != nil {
			out["cluster"] = cl
		}
	} else {
		b := algo.NewBoruvka(wg)
		m := s.machine(b.MemWords(), b.Handlers(nil))
		t0 := time.Now()
		res := m.Run(b.Body(s.engineCfg(scfg.Mechanism)))
		labels = b.Components(m)
		out["weight"] = b.Weight(m)
		out["machine_time_ns"] = int64(res.Elapsed)
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
	}
	distinct := map[int32]struct{}{}
	for _, l := range labels {
		distinct[l] = struct{}{}
	}
	out["components"] = len(distinct)
	if _, ok := out["edges"]; !ok {
		out["edges"] = f.N - len(distinct)
	}
	s.queries.Add(1)
	if r.URL.Query().Get("full") == "1" {
		out["labels"] = labels
	}
	s.writeQuery(w, r, out)
}

func (s *Server) handleColoring(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	seed, err := uintParam(r, "seed", 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng, scfg, shards, err := s.querySel(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if eng == engGBLAS {
		s.fail(w, http.StatusBadRequest, "engine gblas does not implement coloring (use aam or shard)")
		return
	}
	// The priority seed orders the sharded Jones-Plassmann coloring; the
	// single-runtime Boman algorithm has no such knob, so an explicit
	// seed without ?shards= would be silently ignored — reject it.
	if r.URL.Query().Get("seed") != "" && shards <= 1 {
		s.fail(w, http.StatusBadRequest, "seed only applies to the sharded coloring (add ?shards=N)")
		return
	}
	snap := s.g.Snapshot()
	f := s.timedFreeze(r, snap)
	out := map[string]any{
		"n":      f.N,
		"epoch":  snap.Epoch(),
		"engine": eng,
	}
	var colors []int32
	if shards > 1 {
		t0 := time.Now()
		var res shard.ColoringResult
		cl, err := s.runSharded(r, eng,
			func(c *shard.Cluster) (e error) { res, e = c.Coloring(f, seed, scfg); return },
			func() (e error) { res, e = shard.Coloring(f, seed, scfg); return })
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		colors = res.Colors
		out["colors"] = res.Used
		out["rounds"] = res.Rounds
		out["seed"] = seed
		out["sharded"] = s.shardSummary(r, scfg, res.Result)
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
		if cl != nil {
			out["cluster"] = cl
		}
	} else {
		if f.N == 0 {
			out["colors"] = 0
			s.queries.Add(1)
			s.writeQuery(w, r, out)
			return
		}
		c := algo.NewColoring(f)
		m := s.machine(c.MemWords(), c.Handlers(nil))
		t0 := time.Now()
		res := m.Run(c.Body(s.engineCfg(scfg.Mechanism), 0))
		var used int
		colors, used = c.Colors(m)
		out["colors"] = used
		out["machine_time_ns"] = int64(res.Elapsed)
		out["wall_time_ns"] = time.Since(t0).Nanoseconds()
	}
	s.queries.Add(1)
	if r.URL.Query().Get("full") == "1" {
		out["per_vertex"] = colors
	}
	s.writeQuery(w, r, out)
}

type statsResponse struct {
	UptimeNS     int64             `json:"uptime_ns"`
	Requests     uint64            `json:"requests"`
	Queries      uint64            `json:"queries"`
	Mutations    uint64            `json:"mutation_batches"`
	BadRequests  uint64            `json:"bad_requests"`
	Throttled    uint64            `json:"throttled"`
	ClusterFalls uint64            `json:"cluster_fallbacks"`
	NotModified  uint64            `json:"etag_304"`
	Cache        *CacheStats       `json:"cache,omitempty"`
	Graph        dyn.CumStats      `json:"graph"`
	Freeze       dyn.FreezeStats   `json:"freeze"`
	TxCommitted  uint64            `json:"tx_committed"`
	TxAborts     uint64            `json:"tx_aborts"`
	TxSerialized uint64            `json:"tx_serialized"`
	AbortReasons map[string]uint64 `json:"abort_reasons"`
	// Latency maps endpoint → percentile summary (endpoints with traffic
	// only). Percentiles are conservative upper bounds (≤3% over).
	Latency map[string]latencySummary `json:"latency"`
	// WAL and Recovery appear only on durable servers (Config.WAL set):
	// the live log counters and what the boot-time recovery pass did.
	WAL      *wal.Stats         `json:"wal,omitempty"`
	Recovery *wal.RecoveryStats `json:"recovery,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	// Live counters must never freeze behind a conditional GET: no ETag,
	// and no intermediary may serve a stale copy.
	w.Header().Set("Cache-Control", "no-store")
	gs := s.g.Stats()
	reasons := make(map[string]uint64, stats.NumAbortReasons)
	for reason := stats.AbortReason(0); reason < stats.NumAbortReasons; reason++ {
		reasons[reason.String()] = gs.Tx.Aborts[reason]
	}
	resp := statsResponse{
		UptimeNS:     time.Since(s.t0).Nanoseconds(),
		Requests:     s.requests.Load(),
		Queries:      s.queries.Load(),
		Mutations:    s.mutations.Load(),
		BadRequests:  s.rejected.Load(),
		Throttled:    s.throttled.Load(),
		ClusterFalls: s.fallbacks.Load(),
		NotModified:  s.notModified.Load(),
		Graph:        gs,
		Freeze:       s.g.FreezeStats(),
		TxCommitted:  gs.Tx.TxCommitted,
		TxAborts:     gs.Tx.TotalAborts(),
		TxSerialized: gs.Tx.TxSerialized,
		AbortReasons: reasons,
		Latency:      s.latencySummaries(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		resp.Cache = &cs
	}
	if s.cfg.WAL != nil {
		ws := s.cfg.WAL.Stats()
		rs := s.cfg.WAL.Recovery()
		resp.WAL = &ws
		resp.Recovery = &rs
	}
	s.writeJSON(w, http.StatusOK, resp)
}
