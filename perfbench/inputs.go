package main

import (
	"math/rand"
	"strings"

	"aamgo/internal/algo"
	"aamgo/internal/graph"
)

// workload is one traffic mix: the base graph, how the daemon is set up,
// and what its closed loops send.
type workload struct {
	name    string
	scale   int     // Kronecker scale of the base graph (edge factor 8)
	cache   bool    // serve's default 32 MiB query cache; false turns it off
	durable bool    // WAL in a fresh temp dir, batch durability
	cluster bool    // coordinator plus one in-process worker over loopback TCP
	reads   []class // the reader loop's mix, weighted by count
	writer  bool    // a second closed loop POSTs edge batches
}

// class is one kind of read request. Its name, engine.alg, names the
// per-layer engine metrics.
type class struct {
	name   string
	path   string
	params string
	weight int
	src    bool // takes a ?src= vertex
}

func (c class) alg() string    { return c.name[strings.IndexByte(c.name, '.')+1:] }
func (c class) engine() string { return c.name[:strings.IndexByte(c.name, '.')] }

const (
	// graphSeed fixes the base graph of every run: the graph is the
	// workload's dataset and --seed varies the traffic over it. Kronecker
	// graphs of one scale differ enough between generator seeds to move
	// engine costs by more than the benchmark's bounds.
	graphSeed    = 1
	edgeFactor   = 8
	zipfS        = 1.1
	batchEdges   = 16   // edge adds per POST /edges in ingest
	ckptEvery    = 1024 // ingest's WAL checkpoint interval, in epochs
	clusterShard = "engine=cluster&shards=4"
)

// The workloads, and why each was chosen:
//
//   - read-mix: a static graph behind the query cache. Half the sourced
//     reads repeat an earlier source, and PageRank and CC always hit, so
//     about 70% of reads are hits: the cache and serve layers set the
//     median and the engines the tail. No WAL, no wire traffic, one freeze.
//   - ingest: durable edge batches beside a reader. dyn.Apply, WAL group
//     commit, incremental freezes and cache invalidation dominate; a gain
//     on one side that costs the other shows.
//   - cluster-query: every request is a job on a coordinator plus one
//     worker over loopback TCP, cache off. Wire transport, state sync and
//     collectives dominate.
var workloads = []*workload{
	{name: "read-mix", scale: 14, cache: true, reads: []class{
		{"gblas.bfs", "/query/bfs", "engine=gblas", 14, true},
		{"shard.bfs", "/query/bfs", "engine=shard&shards=2", 14, true},
		{"aam.bfs", "/query/bfs", "engine=aam", 4, true},
		{"gblas.sssp", "/query/sssp", "engine=gblas", 12, true},
		{"shard.sssp", "/query/sssp", "engine=shard&shards=2", 12, true},
		{"gblas.pagerank", "/query/pagerank", "engine=gblas&top=10", 20, false},
		{"incr.cc", "/query/cc", "", 12, false},
		{"shard.cc", "/query/cc", "engine=shard&shards=2", 12, false},
	}},
	{name: "ingest", scale: 14, cache: true, durable: true, writer: true, reads: []class{
		{"gblas.bfs", "/query/bfs", "engine=gblas", 1, true},
		{"incr.cc", "/query/cc", "", 1, false},
	}},
	{name: "cluster-query", scale: 13, cluster: true, reads: []class{
		{"cluster.bfs", "/query/bfs", clusterShard, 80, true},
		{"cluster.sssp", "/query/sssp", clusterShard, 10, true},
		{"cluster.pagerank", "/query/pagerank", clusterShard + "&iters=5&top=10", 10, false},
	}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}

// inputs is everything a run generates before the daemon exists: the
// base graph, and from the seed the order its sources are asked in. The
// daemon receives only the graph and the requests.
type inputs struct {
	seed  int64
	base  *graph.Graph
	giant []int32 // the giant component in seeded order
}

func newInputs(w *workload, seed int64) *inputs {
	base := graph.Kronecker(w.scale, edgeFactor, graphSeed)
	labels := algo.SeqComponents(base)
	size := map[int32]int{}
	best := int32(0)
	for _, l := range labels {
		size[l]++
		if size[l] > size[best] {
			best = l
		}
	}
	var giant []int32
	for v, l := range labels {
		if l == best {
			giant = append(giant, int32(v))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(giant), func(i, j int) { giant[i], giant[j] = giant[j], giant[i] })
	return &inputs{seed: seed, base: base, giant: giant}
}

// request is one read: a class and, for sourced classes, a vertex.
type request struct {
	class int
	src   int
}

// freshShare is the share of sourced reads that ask a source their class
// has not asked before; the rest repeat an earlier one. On a static graph
// every repeat is a cache hit, so the hit share is the same from the first
// second of a window to the last, and does not grow with the number of requests a
// window completes, as it would with sources drawn from a fixed
// popularity over the whole giant component.
const freshShare = 0.5

// readStream yields a workload's reads in a fixed order for a seed: every
// window of a run replays the same prefix. Classes come from a deck that
// holds each class as many times as its weight, reshuffled when it runs
// out, so every stretch of a window has the mix's exact composition. A
// fresh source is the next vertex of the seeded shuffle of the giant
// component; a repeat picks an earlier source of the class, Zipf(1.1)-
// ranked by first use.
type readStream struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	in   *inputs
	deck []int
	next int       // position in deck
	used [][]int32 // per class, sources in order of first use
}

func (in *inputs) reads(w *workload) *readStream {
	rng := rand.New(rand.NewSource(in.seed*7919 + 1))
	s := &readStream{w: w, rng: rng, in: in, used: make([][]int32, len(w.reads)),
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(in.giant)-1))}
	for ci, c := range w.reads {
		for k := 0; k < c.weight; k++ {
			s.deck = append(s.deck, ci)
		}
	}
	s.next = len(s.deck)
	return s
}

func (s *readStream) read() request {
	if s.next == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.next = 0
	}
	ci := s.deck[s.next]
	s.next++
	req := request{class: ci, src: -1}
	if !s.w.reads[ci].src {
		return req
	}
	used := s.used[ci]
	if len(used) == 0 || s.rng.Float64() < freshShare {
		v := s.in.giant[len(used)%len(s.in.giant)]
		s.used[ci] = append(used, v)
		req.src = int(v)
	} else {
		req.src = int(used[s.zipf.Uint64()%uint64(len(used))])
	}
	return req
}

// batchStream yields ingest's edge batches: batchEdges uniform,
// non-self-loop edge adds over the base vertices.
type batchStream struct {
	rng *rand.Rand
	n   int
}

func (in *inputs) batches() *batchStream {
	return &batchStream{rng: rand.New(rand.NewSource(in.seed*104729 + 2)), n: in.base.N}
}

// warmBatch is the batch set-up writes; it comes from its own stream so
// the window's first batch is not a duplicate of it.
func (in *inputs) warmBatch() [][2]int32 {
	s := &batchStream{rng: rand.New(rand.NewSource(in.seed*104729 + 5)), n: in.base.N}
	return s.next()
}

func (s *batchStream) next() [][2]int32 {
	b := make([][2]int32, batchEdges)
	for i := range b {
		u := s.rng.Intn(s.n)
		v := s.rng.Intn(s.n - 1)
		if v >= u {
			v++
		}
		b[i] = [2]int32{int32(u), int32(v)}
	}
	return b
}
