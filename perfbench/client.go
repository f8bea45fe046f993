package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// idHeader carries the client span's request id to the handler span.
const idHeader = "X-Bench-Id"

var epoch = time.Now()

// now is the benchmark clock: time since process start.
func now() time.Duration { return time.Since(epoch) }

var nextID atomic.Uint64

// newClient is one closed loop's client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// sample is one client round trip: the client span (request write to the
// last body byte) and what came back.
type sample struct {
	id         uint64
	req        request    // reads
	batch      [][2]int32 // writes
	start, end time.Duration
	status     int
	cache      string // X-Cache
	body       []byte
	err        error
}

func (s *sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

func do(c *http.Client, method, url string, body []byte) sample {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return sample{err: err}
	}
	s := sample{id: nextID.Add(1)}
	req.Header.Set(idHeader, strconv.FormatUint(s.id, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	s.start = now()
	resp, err := c.Do(req)
	if err != nil {
		s.end, s.err = now(), err
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = now()
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	return s
}

// readURL renders a read request; extra is appended verbatim.
func readURL(base string, w *workload, r request, traced bool, extra string) string {
	c := w.reads[r.class]
	var q []string
	if c.params != "" {
		q = append(q, c.params)
	}
	if c.src {
		q = append(q, "src="+strconv.Itoa(r.src))
	}
	if traced {
		q = append(q, "trace=1")
	}
	if extra != "" {
		q = append(q, extra)
	}
	u := base + c.path
	if len(q) > 0 {
		u += "?" + strings.Join(q, "&")
	}
	return u
}

func getRead(c *http.Client, base string, w *workload, r request, traced bool) sample {
	s := do(c, http.MethodGet, readURL(base, w, r, traced, ""), nil)
	s.req = r
	return s
}

func postBatch(c *http.Client, base string, b [][2]int32) sample {
	body, _ := json.Marshal(map[string]any{"edges": b})
	s := do(c, http.MethodPost, base+"/edges", body)
	s.batch = b
	return s
}

// clusterFallback returns why a cluster query was answered in-process
// ("" when the cluster answered it).
func clusterFallback(body []byte) string {
	var b struct {
		Cluster *struct {
			Used     bool   `json:"used"`
			Fallback string `json:"fallback"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return "unparseable body: " + err.Error()
	}
	switch {
	case b.Cluster == nil:
		return "no cluster block in the response"
	case !b.Cluster.Used:
		return "not used: " + b.Cluster.Fallback
	}
	return ""
}

// windowResult is one timed window: every round trip, the /metrics
// scrapes around it, and the handler spans when traced.
type windowResult struct {
	client        *http.Client // the reader's connection, reused for checks
	reads, writes []sample
	start, end    time.Duration
	before, after expo
	rssMB         float64
	spans         []handlerSpan
	checked       int // extra requests the checks issued
	probes        []sample
}

func (wr *windowResult) attempted() int { return len(wr.reads) + len(wr.writes) }

func (wr *windowResult) seconds() float64 { return (wr.end - wr.start).Seconds() }

func (wr *windowResult) readRate() float64 { return float64(len(wr.reads)) / wr.seconds() }

// runWindow runs the workload's closed loops against inst for d: a reader,
// plus a writer beside it when the workload writes.
func runWindow(w *workload, in *inputs, inst *instance, d time.Duration, traced bool) (*windowResult, error) {
	wr := &windowResult{client: newClient()}
	var err error
	if wr.before, err = scrape(wr.client, inst.url); err != nil {
		return nil, err
	}
	if inst.spans != nil {
		inst.spans.take()
	}
	reads := in.reads(w)
	// Start every window from a collected heap, so what earlier set-ups
	// and windows left behind does not shift the collector's pacing.
	runtime.GC()
	wr.start = now()
	deadline := wr.start + d
	var wg sync.WaitGroup
	if w.writer {
		wc := newClient()
		defer wc.CloseIdleConnections()
		batches := in.batches()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < deadline {
				wr.writes = append(wr.writes, postBatch(wc, inst.url, batches.next()))
			}
		}()
	}
	for now() < deadline {
		wr.reads = append(wr.reads, getRead(wr.client, inst.url, w, reads.read(), traced))
	}
	wg.Wait()
	wr.end = now()
	wr.rssMB = vmHWM()
	if inst.spans != nil {
		wr.spans = inst.spans.take()
	}
	if wr.after, err = scrape(wr.client, inst.url); err != nil {
		return nil, err
	}
	return wr, nil
}

// expo is one /metrics scrape: series name (labels included) → value.
type expo map[string]float64

func scrape(c *http.Client, base string) (expo, error) {
	s := do(c, http.MethodGet, base+"/metrics", nil)
	if !s.ok() {
		return nil, fmt.Errorf("/metrics: status %d, %v", s.status, s.err)
	}
	e := expo{}
	sc := bufio.NewScanner(bytes.NewReader(s.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		e[line[:i]] = v
	}
	return e, nil
}

// delta is a series' growth over the window.
func (wr *windowResult) delta(series string) float64 { return wr.after[series] - wr.before[series] }

// histMean is a histogram's mean over the window, from its _sum and _count.
func (wr *windowResult) histMean(name, labels string) float64 {
	n := wr.delta(name + "_count" + labels)
	if n <= 0 {
		return 0
	}
	return wr.delta(name+"_sum"+labels) / n
}

// vmHWM is the process's peak resident set in MiB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
