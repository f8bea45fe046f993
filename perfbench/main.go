// Command perfbench is the end-to-end benchmark of the aam-serve daemon.
//
// One run drives the real daemon (serve.New → Server.Handler() on a
// loopback listener) from this process with at most two keep-alive client
// connections, over one named workload whose inputs come from --seed:
//
//	perfbench --workload read-mix --seed 1 --seconds 20 --trace 0
//
// Every answer is checked against the internal/algo sequential oracles
// (or, for the write path, an oracle replay of the acknowledged stream)
// outside the timed window. With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it splits the time between an untraced and a
// traced window, each on a fresh daemon, and prints the per-layer table
// and metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A run with any failed request or check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setups is how many daemons an untraced run builds before the one that
// serves the timed window: setups-1 torn down at once, then one for the
// warm-up pass. setup_s is the median set-up time of all setups+1.
const setups = 11

// warmup is the untimed pass each run makes on a throwaway daemon before
// any timed window: the process's lazy set-up (heap growth, buffer pools)
// is done before timing, and every timed window, traced or not, follows
// another window. Its answers are checked like any other.
const warmup = 2 * time.Second

// runLimit bounds one run end to end; past it the run removes its temp
// files and exits 2.
const runLimit = 170 * time.Second

// workDir holds the run's temp files (removed on exit) and the span
// files a traced run writes; it is relative to the checkout root, where
// the benchmark runs.
const workDir = ".bench_build/perfbench"

var spanDir = filepath.Join(workDir, "spans")

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload: read-mix, ingest or cluster-query")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	w := workloadByName(*wname)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		return 2
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(workDir, "tmp-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: temp dir: %v\n", err)
		return 1
	}
	tmp, _ = filepath.Abs(tmp)
	defer os.RemoveAll(tmp)
	// The temp tree (WAL dirs) goes on every exit path: signals, a closed
	// standard output and the run limit remove it before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if ok {
			os.RemoveAll(tmp)
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
			os.Exit(1)
		}
	}()
	limit := time.AfterFunc(runLimit, func() {
		os.RemoveAll(tmp)
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	defer limit.Stop()

	rep, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload: inputs, repeated set-up, the timed window(s),
// the checks, and the metrics for the requested pass.
func bench(w *workload, seed int64, window time.Duration, traced bool, tmp string) (report, error) {
	in := newInputs(w, seed)
	var setupTimes []float64
	start := func(trace bool) (*instance, error) {
		inst, d, err := startInstance(w, in, tmp, trace)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		return inst, nil
	}
	for i := 0; i < setups-1; i++ {
		inst, err := start(false)
		if err != nil {
			return report{}, err
		}
		if err := inst.stop(); err != nil {
			return report{}, err
		}
	}

	var fails failures
	attempted := 0
	// measure runs one window on a fresh instance, checks it and tears
	// the instance down.
	measure := func(trace bool, window time.Duration) (*windowResult, error) {
		inst, err := start(trace)
		if err != nil {
			return nil, err
		}
		wr, err := runWindow(w, in, inst, window, trace)
		if err == nil {
			fails.merge(verify(w, in, inst, wr, newOracle(in.base)))
			attempted += wr.attempted() + wr.checked
			wr.client.CloseIdleConnections()
		}
		if serr := inst.stop(); err == nil {
			err = serr
		}
		return wr, err
	}

	if _, err := measure(false, warmup); err != nil {
		return report{}, err
	}
	var m map[string]metric
	if traced {
		// The traced pass splits its time between an untraced and a traced
		// window, for the overhead.
		untraced, err := measure(false, window/2)
		if err != nil {
			return report{}, err
		}
		untracedQPS := untraced.readRate()
		untraced = nil
		wr, err := measure(true, window/2)
		if err != nil {
			return report{}, err
		}
		lt := layerTable(w, in, wr, untracedQPS)
		lt.print(os.Stdout, w.name, wr)
		if !lt.shapeOK() {
			fails.add("shape: layer self times cover %.1f%% of client time, want >= %.0f%%", 100*lt.coverage, 100*shapeFloor)
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, w, wr); err != nil {
			return report{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		m = lt.metrics
	} else {
		wr, err := measure(false, window)
		if err != nil {
			return report{}, err
		}
		m = endToEnd(w, wr)
		m["setup_s"] = metric{median(setupTimes), "s"}
		printEndToEnd(os.Stdout, w, m, wr, attempted, fails.n)
	}
	for _, msg := range fails.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s\n", w.name, msg)
	}
	return report{Correct: fails.n == 0, Attempted: attempted, Failed: fails.n, Metrics: m}, nil
}

// failures counts failed requests and checks, keeping the first few
// messages for the log.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	for _, m := range o.msgs {
		if len(f.msgs) < 20 {
			f.msgs = append(f.msgs, m)
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
