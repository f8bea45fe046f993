package shard

import (
	"hash/maphash"
	"unsafe"

	"aamgo/internal/graph"
)

// Graph residency: a cluster job names its graph by a content
// fingerprint, and the graph bytes travel only to workers that do not
// hold that graph yet. Each worker keeps its recently used graphs in a
// graphCache; the coordinator keeps a fingerprint-only graphCache per
// worker link that mirrors it. Both sides apply the same get/put
// sequence for every job the worker runs, so the mirror names exactly
// the graphs the worker holds. Two events break the lockstep and are
// handled by falling back to shipping:
//
//   - A failed attempt: the worker may or may not have decoded the job.
//     The coordinator clears the mirror of every link of the attempt, so
//     the retry ships the graph.
//   - A worker that lacks a named graph anyway answers collMiss instead
//     of running the job: a retryable failure that likewise clears the
//     mirrors.
//
// A rejoined worker is a new session on a new link, so both its cache
// and its mirror start empty.

// residentGraphs is how many decoded graphs a worker keeps. Four covers a
// serving epoch's unweighted and weighted views with room for the
// previous epoch's pair.
const residentGraphs = 4

// graphCache is a fixed-capacity most-recently-used list of graphs keyed
// by fingerprint. The coordinator's mirrors store nil graphs. Not safe
// for concurrent use: a worker touches its cache only from the job loop,
// the coordinator its mirrors only under Cluster.runMu.
type graphCache struct {
	fps [residentGraphs]uint64
	gs  [residentGraphs]*graph.Graph
	n   int
}

// get looks fp up and, on a hit, makes it the most recent entry.
func (c *graphCache) get(fp uint64) (*graph.Graph, bool) {
	for i := 0; i < c.n; i++ {
		if c.fps[i] == fp {
			g := c.gs[i]
			c.moveToFront(i, fp, g)
			return g, true
		}
	}
	return nil, false
}

// put makes (fp, g) the most recent entry, evicting the least recent one
// when the cache is full.
func (c *graphCache) put(fp uint64, g *graph.Graph) {
	for i := 0; i < c.n; i++ {
		if c.fps[i] == fp {
			c.moveToFront(i, fp, g)
			return
		}
	}
	if c.n < residentGraphs {
		c.n++
	}
	c.moveToFront(c.n-1, fp, g)
}

// moveToFront shifts entries [0, i) down one slot and stores (fp, g) at 0.
func (c *graphCache) moveToFront(i int, fp uint64, g *graph.Graph) {
	copy(c.fps[1:i+1], c.fps[:i])
	copy(c.gs[1:i+1], c.gs[:i])
	c.fps[0], c.gs[0] = fp, g
}

// reset forgets every entry.
func (c *graphCache) reset() { *c = graphCache{} }

// fpSeed keys graph fingerprints. A fingerprint only has to be stable
// within the coordinator process that computes it — workers store the
// coordinator's value rather than recomputing it — so a per-process seed
// does.
var fpSeed = maphash.MakeSeed()

// graphFingerprint hashes the graph's content: vertex count, arc
// storage size, directedness and the raw offsets, segment ends (patched
// layout), adjacency and weights.
func graphFingerprint(g *graph.Graph) uint64 {
	var h maphash.Hash
	h.SetSeed(fpSeed)
	var hdr [17]byte
	putU64(hdr[0:], uint64(g.N))
	putU64(hdr[8:], uint64(len(g.Adj)))
	if g.Directed {
		hdr[16] |= 1
	}
	if g.Weights != nil {
		hdr[16] |= 2
	}
	if g.Ends != nil {
		hdr[16] |= 4
	}
	h.Write(hdr[:])
	h.Write(rawBytes(g.Offsets))
	h.Write(rawBytes(g.Ends))
	h.Write(rawBytes(g.Adj))
	h.Write(rawBytes(g.Weights))
	return h.Sum64()
}

// rawBytes views a slice of fixed-size integers as its in-memory bytes
// (hashing input only; byte order is the process's own).
func rawBytes[T int32 | uint32 | int64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}
