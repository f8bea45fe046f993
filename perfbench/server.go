package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"aamgo/internal/dyn"
	"aamgo/internal/serve"
	"aamgo/internal/shard"
	"aamgo/internal/wal"
)

// clusterJoinLimit bounds how long set-up waits for the in-process worker
// to join; a cluster that does not join is a benchmark error.
const clusterJoinLimit = 20 * time.Second

// instance is one daemon built from the inputs: the dynamic graph (behind
// a WAL when durable), the server on a loopback listener, and, for the
// cluster workload, a coordinator with one joined worker.
type instance struct {
	g      *dyn.Graph
	srv    *serve.Server
	log    *wal.Log
	walDir string
	cl     *shard.Cluster
	joined chan error // the worker's JoinCluster result
	hs     *http.Server
	url    string
	spans  *spanLog // handler spans; nil when untraced
	// warm holds the batches set-up wrote, so the write-path oracle
	// replays them too.
	warm    []sample
	drained bool
}

// startInstance builds a daemon from the inputs and returns it with its
// set-up time: graph and WAL, server, listener, cluster accept, and one
// warm-up request per class (so the first full freeze and the first graph
// ship land here, not in the timed window).
func startInstance(w *workload, in *inputs, tmp string, traced bool) (*instance, time.Duration, error) {
	t0 := time.Now()
	inst := &instance{}
	ok := false
	defer func() {
		if !ok {
			inst.stop()
		}
	}()
	var err error
	if w.durable {
		if inst.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, 0, err
		}
		inst.g, inst.log, err = wal.Open(wal.Options{
			Dir: inst.walDir, Mode: wal.ModeBatch, CheckpointEvery: ckptEvery,
		}, func() (*dyn.Graph, error) { return dyn.New(in.base) })
	} else {
		inst.g, err = dyn.New(in.base)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("graph: %w", err)
	}
	cacheBytes := int64(0) // serve's default
	if !w.cache {
		cacheBytes = -1
	}
	inst.srv, err = serve.New(inst.g, serve.Config{
		CacheBytes: cacheBytes,
		WAL:        inst.log,
		Logger:     slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	var h http.Handler = inst.srv.Handler()
	if traced {
		inst.spans = &spanLog{}
		h = inst.spans.wrap(h)
	}
	inst.hs = &http.Server{Handler: h}
	inst.url = "http://" + ln.Addr().String()
	go inst.hs.Serve(ln)

	if w.cluster {
		if err := inst.joinCluster(); err != nil {
			return nil, 0, err
		}
	}

	c := newClient()
	defer c.CloseIdleConnections()
	for ci := range w.reads {
		s := getRead(c, inst.url, w, request{class: ci, src: int(in.giant[len(in.giant)-1])}, false)
		if s.err != nil || s.status != http.StatusOK {
			return nil, 0, fmt.Errorf("warm-up %s: status %d, %v", w.reads[ci].name, s.status, s.err)
		}
		if w.cluster {
			if msg := clusterFallback(s.body); msg != "" {
				return nil, 0, fmt.Errorf("warm-up %s: cluster fallback: %s", w.reads[ci].name, msg)
			}
		}
	}
	if w.writer {
		s := postBatch(c, inst.url, in.warmBatch())
		if s.err != nil || s.status != http.StatusOK {
			return nil, 0, fmt.Errorf("warm-up write: status %d, %v", s.status, s.err)
		}
		inst.warm = append(inst.warm, s)
	}
	ok = true
	return inst, time.Since(t0), nil
}

// joinCluster starts the coordinator, joins one worker to it from this
// process over loopback TCP and attaches the cluster to the server.
func (inst *instance) joinCluster() error {
	cl, err := shard.NewCluster("127.0.0.1:0", 1)
	if err != nil {
		return fmt.Errorf("cluster listen: %w", err)
	}
	inst.cl = cl
	inst.joined = make(chan error, 1)
	go func() { inst.joined <- shard.JoinCluster(cl.Addr()) }()
	accepted := make(chan error, 1)
	go func() { accepted <- cl.Accept() }()
	select {
	case err = <-accepted:
	case err = <-inst.joined:
		if err == nil {
			err = fmt.Errorf("worker left before the cluster formed")
		}
		inst.joined <- err
	case <-time.After(clusterJoinLimit):
		err = fmt.Errorf("worker did not join within %v", clusterJoinLimit)
	}
	if err != nil {
		return fmt.Errorf("cluster join: %w", err)
	}
	if n := cl.LiveWorkers(); n != 1 {
		return fmt.Errorf("cluster join: %d live workers, want 1", n)
	}
	inst.srv.SetCluster(cl)
	return nil
}

// drain closes the server's pool and makes the WAL tail durable; the
// graph holds no half-applied batch afterwards.
func (inst *instance) drain() error {
	if inst.drained || inst.srv == nil {
		return nil
	}
	inst.drained = true
	return inst.srv.Drain()
}

// stop tears the instance down: listener, pool, cluster (waiting for the
// worker to leave), WAL, and its directory.
func (inst *instance) stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if inst.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(inst.hs.Shutdown(ctx))
		cancel()
	}
	keep(inst.drain())
	if inst.cl != nil {
		keep(inst.cl.Close())
		select {
		case err := <-inst.joined:
			keep(err)
		case <-time.After(10 * time.Second):
			keep(fmt.Errorf("cluster worker did not leave"))
		}
	}
	if inst.log != nil {
		keep(inst.log.Close())
	}
	if inst.walDir != "" {
		keep(os.RemoveAll(inst.walDir))
	}
	return first
}

// handlerSpan is the benchmark's span around Server.Handler().ServeHTTP;
// id is the client span's request id.
type handlerSpan struct {
	id         uint64
	start, end time.Duration
}

// spanLog keeps handler spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []handlerSpan
}

func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(idHeader), 10, 64)
		start := now()
		h.ServeHTTP(w, r)
		end := now()
		l.mu.Lock()
		l.spans = append(l.spans, handlerSpan{id, start, end})
		l.mu.Unlock()
	})
}

// take returns the spans recorded so far and clears the log.
func (l *spanLog) take() []handlerSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}
