package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// TestDirtySyncMatchesFullImage checks the dirty-block barrier against
// what a full-image allgather would produce: after every barrier of a
// BFS, SSSP and PageRank run, every rank's replica of every shard holds
// exactly the owner's words. Coordinator and workers share this process,
// so the hook sees all ranks' executors.
func TestDirtySyncMatchesFullImage(t *testing.T) {
	var mu sync.Mutex
	seen := map[*Executor][][][]uint64{} // executor → barrier → shard → words
	barrierHook = func(ex *Executor) {
		st := make([][]uint64, len(ex.shards))
		for id, s := range ex.shards {
			st[id] = make([]uint64, len(s.state))
			for i := range s.state {
				st[id][i] = atomic.LoadUint64(&s.state[i])
			}
		}
		mu.Lock()
		seen[ex] = append(seen[ex], st)
		mu.Unlock()
	}
	t.Cleanup(func() { barrierHook = nil })

	c := startLoopbackCluster(t, 2)
	g := graph.Kronecker(8, 8, 3)
	wg := graph.AttachSymmetricWeights(g, 7)
	src := maxDegVertex(g)
	cfg := Config{Shards: 5, Workers: 2, BatchSize: 32}
	runs := map[string]func() error{
		"bfs":      func() error { _, err := c.BFS(g, src, cfg); return err },
		"sssp":     func() error { _, err := c.SSSP(wg, src, 0, cfg); return err },
		"pagerank": func() error { _, err := c.PageRank(g, 0.85, 10, cfg); return err },
	}
	for name, run := range runs {
		mu.Lock()
		clear(seen)
		mu.Unlock()
		stateBytes := metNetStateBytes.Value()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		if len(seen) != 3 {
			t.Fatalf("%s: saw %d ranks' executors, want 3", name, len(seen))
		}
		var barriers int
		owner := make([]*Executor, cfg.Shards)
		for ex, snaps := range seen {
			if barriers == 0 {
				barriers = len(snaps)
			} else if len(snaps) != barriers {
				t.Fatalf("%s: ranks ran %d and %d barriers", name, barriers, len(snaps))
			}
			for id := range owner {
				if ex.Owns(id) {
					owner[id] = ex
				}
			}
		}
		var fullImage uint64
		for b := 0; b < barriers; b++ {
			for id, own := range owner {
				want := seen[own][b][id]
				fullImage += uint64(8 * len(want))
				for ex, snaps := range seen {
					if ex == own {
						continue
					}
					got := snaps[b][id]
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: barrier %d: rank %d's replica of shard %d word %d = %d, owner rank %d has %d",
								name, b, ex.Rank(), id, i, got[i], own.Rank(), want[i])
						}
					}
				}
			}
		}
		mu.Unlock()
		sent := metNetStateBytes.Value() - stateBytes
		t.Logf("%s: %d barriers, %d state bytes sent (full images: %d)", name, barriers, sent, fullImage)
		if barriers == 0 || sent == 0 || sent >= fullImage {
			t.Errorf("%s: %d barriers sent %d state bytes; want 0 < sent < %d", name, barriers, sent, fullImage)
		}
	}
}

// TestGraphResidency pins the residency protocol end to end: the first
// job on a graph ships it to every worker, a repeat ships nothing, a
// rejoined worker (new link, empty mirror) gets it again, and a worker
// that lacks a graph the coordinator believes it holds costs exactly one
// retry — no eviction — before the job succeeds.
func TestGraphResidency(t *testing.T) {
	c := startChaosCluster(t, 2, chaosNetOpts(nil, t), true)
	g := graph.Kronecker(7, 8, 5)
	src := maxDegVertex(g)
	ref := algo.SeqBFS(g, src)
	cfg := Config{Shards: 4, Workers: 1}
	bfs := func(g *graph.Graph, ref []int32) (ships, resident, jobBytes uint64) {
		t.Helper()
		s0, r0, b0 := metNetGraphShips.Value(), metNetGraphResident.Value(), metNetJobBytes.Value()
		res, err := c.BFS(g, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := depths(g, src, res.Parents)
		for v := range d {
			if d[v] != ref[v] {
				t.Fatalf("bfs depth[%d] = %d, want %d", v, d[v], ref[v])
			}
		}
		return metNetGraphShips.Value() - s0, metNetGraphResident.Value() - r0, metNetJobBytes.Value() - b0
	}

	ships, resident, first := bfs(g, ref)
	if ships != 2 || resident != 0 {
		t.Fatalf("first job: %d ships, %d resident; want 2, 0", ships, resident)
	}
	ships, resident, repeat := bfs(g, ref)
	if ships != 0 || resident != 2 {
		t.Fatalf("repeat job: %d ships, %d resident; want 0, 2", ships, resident)
	}
	graphBytes := uint64(len(mustEncode(t, g)))
	if first-repeat != 2*graphBytes {
		t.Errorf("job bytes: first %d, repeat %d; the difference should be two %d-byte graphs", first, repeat, graphBytes)
	}

	// Evict rank 1: its worker rejoins on a new link whose mirror is empty.
	rejoins := metClusterRejoins.Value()
	c.evict(1, errors.New("test eviction"))
	deadline := time.Now().Add(10 * time.Second)
	for (c.LiveWorkers() < 2 || metClusterRejoins.Value() == rejoins) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.LiveWorkers() < 2 {
		t.Fatal("evicted worker did not rejoin")
	}
	if ships, resident, _ = bfs(g, ref); ships != 1 || resident != 1 {
		t.Fatalf("after rejoin: %d ships, %d resident; want 1, 1", ships, resident)
	}

	// Make rank 2's mirror claim a graph its worker never received.
	h := graph.Kronecker(7, 8, 6)
	c.mu.Lock()
	c.peers[2].resident.put(graphFingerprint(h), nil)
	c.mu.Unlock()
	retries, evictions := metClusterRetries.Value(), metClusterEvictions.Value()
	ships, resident, _ = bfs(h, algo.SeqBFS(h, src))
	if got := metClusterRetries.Value() - retries; got != 1 {
		t.Errorf("graph miss cost %d retries, want 1", got)
	}
	if got := metClusterEvictions.Value() - evictions; got != 0 {
		t.Errorf("graph miss evicted %d ranks, want 0", got)
	}
	// Attempt 1 ships to rank 1 only; the retry ships to both.
	if ships != 3 || resident != 1 {
		t.Errorf("miss then retry: %d ships, %d resident; want 3, 1", ships, resident)
	}
}

func mustEncode(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	w := bytesWriter{}
	if err := graph.WriteBinary(&w, g); err != nil {
		t.Fatal(err)
	}
	return w.buf
}

// TestGraphCacheLRU pins the cache both residency sides run: hits move
// to the front, inserts past capacity evict the least recent entry.
func TestGraphCacheLRU(t *testing.T) {
	var c graphCache
	for fp := uint64(1); fp <= residentGraphs; fp++ {
		c.put(fp, nil)
	}
	if _, ok := c.get(1); !ok { // 1 becomes most recent; 2 is now least
		t.Fatal("fp 1 missing from a full cache")
	}
	c.put(residentGraphs+1, nil)
	if _, ok := c.get(2); ok {
		t.Error("least recent fp 2 survived an insert past capacity")
	}
	for _, fp := range []uint64{1, 3, residentGraphs + 1} {
		if _, ok := c.get(fp); !ok {
			t.Errorf("fp %d evicted, want kept", fp)
		}
	}
	c.reset()
	if _, ok := c.get(1); ok {
		t.Error("reset kept an entry")
	}
}

// TestGraphFingerprint: equal content hashes equal; any change to
// structure, direction or weights changes the hash.
func TestGraphFingerprint(t *testing.T) {
	g := graph.Kronecker(6, 6, 1)
	fp := graphFingerprint(g)
	if graphFingerprint(graph.Kronecker(6, 6, 1)) != fp {
		t.Fatal("equal graphs hash differently")
	}
	d := *g
	d.Directed = true
	w := graph.AttachSymmetricWeights(g, 3)
	m := *g
	m.Adj = append([]int32(nil), g.Adj...)
	m.Adj[0] ^= 1
	for name, other := range map[string]*graph.Graph{"directed": &d, "weighted": w, "one arc changed": &m} {
		if graphFingerprint(other) == fp {
			t.Errorf("%s graph hashes like the original", name)
		}
	}
}

// TestBackToBackJobsLoseNoBatches is the regression test for two races
// that dropped cross-rank batches at the start of a job: a worker's batch
// relayed to a peer ahead of that peer's job frame (it landed unarmed),
// and the next job's batches arriving while a worker's previous job was
// still unwinding (its late detach disarmed the new attempt). A lost batch
// leaves the Drain counters unbalanced, so the job spins until JobTimeout;
// with retries off that surfaces as an error. Repeat jobs on a resident
// graph start fastest and widen both windows.
func TestBackToBackJobsLoseNoBatches(t *testing.T) {
	opts := ClusterOptions{JobRetries: -1, Logf: t.Logf}
	c := startChaosCluster(t, 2, opts, false)
	g := graph.AttachSymmetricWeights(graph.Kronecker(10, 8, 42), 42)
	src := maxDegVertex(g)
	cfg := Config{Shards: 4, Workers: 1, BatchSize: 64, CollTimeout: 2 * time.Second, JobTimeout: 3 * time.Second}
	jobs := 100
	if testing.Short() {
		jobs = 30
	}
	for i := 0; i < jobs; i++ {
		if _, err := c.BFS(g, src, cfg); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}
