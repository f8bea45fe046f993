package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/graph"
	"aamgo/internal/wal"
)

// probesPerClass is how many seeded sourced requests per class are
// re-issued with full=1 (PageRank: top=N) after the window, so the checks
// compare whole vectors and not only the summaries the window returned.
const probesPerClass = 3

// body is the union of the query response fields the checks read.
type body struct {
	Epoch      uint64  `json:"epoch"`
	Reached    *int    `json:"reached"`
	Levels     *int    `json:"levels"`
	Components *int    `json:"components"`
	Top        []rank  `json:"top"`
	Parents    []int64 `json:"parents"`
	Dists      []int64 `json:"dists"`
	Labels     []int32 `json:"labels"`
	MachineNS  int64   `json:"machine_time_ns"`
	Sharded    *struct {
		RemoteUnits uint64 `json:"remote_units"`
	} `json:"sharded"`
	Trace *struct {
		FreezeNS  int64 `json:"freeze_ns"`
		ComputeNS int64 `json:"compute_ns"`
	} `json:"trace"`
}

type rank struct {
	V    int     `json:"v"`
	Rank float64 `json:"rank"`
}

func parseBody(b []byte) (*body, error) {
	var out body
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("unparseable body: %v", err)
	}
	return &out, nil
}

// oracle holds the internal/algo sequential answers for one static graph,
// computed on first use.
type oracle struct {
	g, wg  *graph.Graph // wg carries serve's default SSSP weights (wseed=1)
	bfs    map[int][]int32
	sssp   map[int][]uint64
	pr     map[int][]float64 // by iteration count
	labels []int32
	comps  int
}

func newOracle(g *graph.Graph) *oracle {
	return &oracle{g: g, wg: graph.AttachSymmetricWeights(g, 1),
		bfs: map[int][]int32{}, sssp: map[int][]uint64{}, pr: map[int][]float64{}}
}

func (o *oracle) bfsDist(src int) []int32 {
	if d, ok := o.bfs[src]; ok {
		return d
	}
	d := algo.SeqBFS(o.g, src)
	o.bfs[src] = d
	return d
}

func (o *oracle) ssspDist(src int) []uint64 {
	if d, ok := o.sssp[src]; ok {
		return d
	}
	d := algo.SeqSSSP(o.wg, src)
	o.sssp[src] = d
	return d
}

func (o *oracle) ranks(iters int) []float64 {
	if r, ok := o.pr[iters]; ok {
		return r
	}
	r := algo.SeqPageRank(o.g, 0.85, iters)
	o.pr[iters] = r
	return r
}

func (o *oracle) components() ([]int32, int) {
	if o.labels == nil {
		o.labels = algo.SeqComponents(o.g)
		seen := map[int32]bool{}
		for _, l := range o.labels {
			seen[l] = true
		}
		o.comps = len(seen)
	}
	return o.labels, o.comps
}

// iters is the PageRank iteration count a class asks for (serve's default
// is 10).
func (c class) iters() int {
	q, _ := url.ParseQuery(c.params)
	if n, err := strconv.Atoi(q.Get("iters")); err == nil {
		return n
	}
	return 10
}

// checkRead compares one static-graph answer with the oracle.
func (o *oracle) checkRead(c class, src int, b *body) error {
	switch c.alg() {
	case "bfs":
		d := o.bfsDist(src)
		reached, depth := 0, int32(0)
		for _, x := range d {
			if x >= 0 {
				reached++
				depth = max(depth, x)
			}
		}
		if b.Reached == nil || *b.Reached != reached {
			return fmt.Errorf("reached %v, oracle %d", deref(b.Reached), reached)
		}
		if b.Levels != nil && *b.Levels != int(depth) {
			return fmt.Errorf("levels %d, oracle depth %d", *b.Levels, depth)
		}
		if b.Parents != nil {
			if len(b.Parents) != o.g.N {
				return fmt.Errorf("%d parents for %d vertices", len(b.Parents), o.g.N)
			}
			return algo.ValidateBFSTree(o.g, src, b.Parents, d)
		}
	case "sssp":
		d := o.ssspDist(src)
		reached := 0
		for _, x := range d {
			if x != math.MaxUint64 {
				reached++
			}
		}
		if b.Reached == nil || *b.Reached != reached {
			return fmt.Errorf("reached %v, oracle %d", deref(b.Reached), reached)
		}
		if b.Dists != nil {
			if len(b.Dists) != len(d) {
				return fmt.Errorf("%d distances for %d vertices", len(b.Dists), len(d))
			}
			for v, x := range d {
				want := int64(-1)
				if x != math.MaxUint64 {
					want = int64(x)
				}
				if b.Dists[v] != want {
					return fmt.Errorf("dist[%d] = %d, oracle %d", v, b.Dists[v], want)
				}
			}
		}
	case "pagerank":
		return checkTop(o.ranks(c.iters()), b.Top)
	case "cc":
		labels, comps := o.components()
		if b.Components == nil || *b.Components != comps {
			return fmt.Errorf("components %v, oracle %d", deref(b.Components), comps)
		}
		if b.Labels != nil {
			return samePartition(b.Labels, labels)
		}
	}
	return nil
}

func deref(p *int) any {
	if p == nil {
		return "missing"
	}
	return *p
}

// rankTol is the PageRank tolerance: the gblas engine sums in fixed
// point, which tracks the float oracle to 1e-6 (its own tests' bound).
const rankTol = 1e-6

// checkTop checks a top-k list against the oracle ranks: every listed
// rank matches its vertex's, and no unlisted vertex ranks above the last.
func checkTop(ref []float64, top []rank) error {
	k := min(10, len(ref))
	if len(top) > k {
		k = len(top)
	}
	if len(top) != k {
		return fmt.Errorf("top has %d entries, want %d", len(top), k)
	}
	listed := map[int]bool{}
	for i, t := range top {
		if t.V < 0 || t.V >= len(ref) || listed[t.V] {
			return fmt.Errorf("top[%d] vertex %d invalid or repeated", i, t.V)
		}
		listed[t.V] = true
		if math.Abs(t.Rank-ref[t.V]) > rankTol {
			return fmt.Errorf("rank[%d] = %g, oracle %g", t.V, t.Rank, ref[t.V])
		}
		if i > 0 && t.Rank > top[i-1].Rank {
			return fmt.Errorf("top not in descending order at %d", i)
		}
	}
	last := top[len(top)-1].Rank
	for v, r := range ref {
		if !listed[v] && r > last+rankTol {
			return fmt.Errorf("vertex %d (rank %g) missing from top above %g", v, r, last)
		}
	}
	return nil
}

// samePartition reports whether two labelings group vertices identically.
func samePartition(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels for %d vertices", len(got), len(want))
	}
	fwd, back := map[int32]int32{}, map[int32]int32{}
	for v := range got {
		g, w := got[v], want[v]
		if x, ok := fwd[g]; ok && x != w {
			return fmt.Errorf("vertex %d: label %d joins two oracle components", v, g)
		}
		if x, ok := back[w]; ok && x != g {
			return fmt.Errorf("vertex %d: oracle component split across labels", v)
		}
		fwd[g], back[w] = w, g
	}
	return nil
}

// verify checks every answer of a window, outside the timed window.
func verify(w *workload, in *inputs, inst *instance, wr *windowResult, o *oracle) failures {
	if w.writer {
		return verifyIngest(w, in, inst, wr)
	}
	var f failures
	for i := range wr.reads {
		s := &wr.reads[i]
		if err := checkStatic(w, o, s); err != nil {
			f.add("%s src=%d: %v", w.reads[s.req.class].name, s.req.src, err)
		}
	}
	// Re-issue a seeded sample with the full vectors.
	rng := rand.New(rand.NewSource(in.seed*31 + 3))
	for ci, c := range w.reads {
		n := 1
		if c.src {
			n = probesPerClass
		}
		for k := 0; k < n; k++ {
			r := request{class: ci, src: -1}
			if c.src {
				r.src = int(in.giant[rng.Intn(len(in.giant))])
			}
			u := readURL(inst.url, w, r, false, "full=1")
			if c.alg() == "pagerank" {
				u = strings.Replace(u, "top=10", "top="+strconv.Itoa(in.base.N), 1)
			}
			s := do(wr.client, http.MethodGet, u, nil)
			s.req = r
			wr.checked++
			if err := checkStatic(w, o, &s); err != nil {
				f.add("%s src=%d full: %v", c.name, r.src, err)
			}
			wr.probes = append(wr.probes, s)
		}
	}
	return f
}

// checkStatic checks one read against a static graph's oracle.
func checkStatic(w *workload, o *oracle, s *sample) error {
	if !s.ok() {
		return fmt.Errorf("status %d, %v", s.status, s.err)
	}
	if w.cluster {
		if msg := clusterFallback(s.body); msg != "" {
			return fmt.Errorf("cluster fallback: %s", msg)
		}
	}
	b, err := parseBody(s.body)
	if err != nil {
		return err
	}
	return o.checkRead(w.reads[s.req.class], s.req.src, b)
}

// verifyIngest replays the acknowledged batches on an oracle edge set and
// checks every write's epoch and applied count, every read against the
// replay at the read's epoch, the final state over HTTP, and the state a
// reopened WAL recovers.
func verifyIngest(w *workload, in *inputs, inst *instance, wr *windowResult) failures {
	var f failures
	type ack struct {
		Applied int    `json:"applied"`
		Epoch   uint64 `json:"epoch"`
	}
	type read struct {
		s *sample
		b *body
	}
	byEpoch := map[uint64][]read{}
	for i := range wr.reads {
		s := &wr.reads[i]
		if !s.ok() {
			f.add("%s: status %d, %v", w.reads[s.req.class].name, s.status, s.err)
			continue
		}
		b, err := parseBody(s.body)
		if err != nil {
			f.add("%s: %v", w.reads[s.req.class].name, err)
			continue
		}
		byEpoch[b.Epoch] = append(byEpoch[b.Epoch], read{s, b})
	}

	n := in.base.N
	edges := map[uint64]bool{}
	key := func(u, v int32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	uf := newUnionFind(n)
	for v := 0; v < n; v++ {
		for _, x := range in.base.Neighbors(v) {
			edges[key(int32(v), x)] = true
			uf.union(int32(v), x)
		}
	}
	arcs := in.base.NumEdges()
	checkReads := func(e uint64) {
		for _, r := range byEpoch[e] {
			c := w.reads[r.s.req.class]
			var err error
			switch c.alg() {
			case "bfs":
				if want := uf.size(int32(r.s.req.src)); r.b.Reached == nil || *r.b.Reached != want {
					err = fmt.Errorf("reached %v, oracle component size %d", deref(r.b.Reached), want)
				}
			case "cc":
				if r.b.Components == nil || *r.b.Components != uf.sets {
					err = fmt.Errorf("components %v, oracle %d", deref(r.b.Components), uf.sets)
				}
			}
			if err != nil {
				f.add("%s src=%d epoch %d: %v", c.name, r.s.req.src, e, err)
			}
		}
		delete(byEpoch, e)
	}
	epoch := uint64(0)
	checkReads(epoch)
	writes := append(append([]sample(nil), inst.warm...), wr.writes...)
	for i := range writes {
		s := &writes[i]
		if !s.ok() {
			f.add("write %d: status %d, %v", i, s.status, s.err)
			continue
		}
		var a ack
		if err := json.Unmarshal(s.body, &a); err != nil {
			f.add("write %d: unparseable ack: %v", i, err)
			continue
		}
		applied := 0
		for _, e := range s.batch {
			if k := key(e[0], e[1]); !edges[k] {
				edges[k] = true
				uf.union(e[0], e[1])
				applied++
			}
		}
		arcs += 2 * int64(applied)
		epoch++
		if a.Epoch != epoch || a.Applied != applied {
			f.add("write %d: epoch %d applied %d, oracle epoch %d applied %d", i, a.Epoch, a.Applied, epoch, applied)
		}
		checkReads(epoch)
	}
	for e, rs := range byEpoch {
		f.add("%d reads at epoch %d, which no acknowledged write produced", len(rs), e)
	}

	// Final state over HTTP.
	var g struct {
		Epoch uint64 `json:"epoch"`
		Arcs  int64  `json:"arcs"`
	}
	s := do(wr.client, http.MethodGet, inst.url+"/graph", nil)
	wr.checked++
	if err := jsonOK(&s, &g); err != nil {
		f.add("/graph: %v", err)
	} else if g.Epoch != epoch || g.Arcs != arcs {
		f.add("/graph: epoch %d arcs %d, oracle epoch %d (acknowledged batches) arcs %d", g.Epoch, g.Arcs, epoch, arcs)
	}
	var cc body
	s = do(wr.client, http.MethodGet, inst.url+"/query/cc", nil)
	wr.checked++
	if err := jsonOK(&s, &cc); err != nil {
		f.add("/query/cc: %v", err)
	} else if cc.Components == nil || *cc.Components != uf.sets {
		f.add("/query/cc: components %v, oracle %d", deref(cc.Components), uf.sets)
	}

	// Close the log and recover the same directory.
	wr.checked++
	if err := inst.drain(); err != nil {
		f.add("drain: %v", err)
		return f
	}
	if err := inst.log.Close(); err != nil {
		f.add("wal close: %v", err)
		return f
	}
	g2, l2, err := wal.Open(wal.Options{Dir: inst.walDir}, func() (*dyn.Graph, error) { return dyn.New(in.base) })
	if err != nil {
		f.add("wal reopen: %v", err)
		return f
	}
	defer l2.Close()
	if g2.Epoch() != epoch || g2.NumArcs() != arcs {
		f.add("wal reopen: epoch %d arcs %d, want %d and %d", g2.Epoch(), g2.NumArcs(), epoch, arcs)
	}
	return f
}

func jsonOK(s *sample, v any) error {
	if !s.ok() {
		return fmt.Errorf("status %d, %v", s.status, s.err)
	}
	return json.Unmarshal(s.body, v)
}

// unionFind tracks component sizes and count over the replayed edges.
type unionFind struct {
	parent []int32
	sz     []int32
	sets   int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), sz: make([]int32, n), sets: n}
	for i := range u.parent {
		u.parent[i], u.sz[i] = int32(i), 1
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	a, b = u.find(a), u.find(b)
	if a == b {
		return
	}
	if u.sz[a] < u.sz[b] {
		a, b = b, a
	}
	u.parent[b] = a
	u.sz[a] += u.sz[b]
	u.sets--
}

func (u *unionFind) size(x int32) int { return int(u.sz[u.find(x)]) }
