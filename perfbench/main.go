// Command perfbench is the repository's benchmark: closed-loop
// workloads against the analysis service, in process and over HTTP,
// with every answer checked against a reference analysis.
//
//	perfbench --workload repeat|churn|search|serve|all --seed n --seconds s --trace 0|1 [-hsched path]
//
// With --trace 0 a run reports the end-to-end metrics of one workload;
// with --trace 1 it reports the per-layer metrics of a traced run of
// it. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --workload all runs every workload both ways and prints a table.
// The serve workload starts the hsched binary named by -hsched as a
// child process. run.sh builds both binaries and runs this command;
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

type config struct {
	clients  int // closed-loop client goroutines (serve: connections)
	seed     int64
	seconds  float64
	hsched   string
	traceDir string
	setups   int
}

// instance is one set-up workload: its inputs, references and system
// under test. Client c's state is touched only by client c's goroutine
// while a phase runs; the other methods run between phases.
type instance interface {
	// op runs client c's next operation, traced when ct is non-nil,
	// and returns its latency and whether it succeeded (answered
	// without error and matching the reference).
	op(c int, ct *clientTrace) (time.Duration, bool)
	// drain settles client c's operations still in flight when a
	// phase ends: how many, and how many failed.
	drain(c int) (n, failed int64)
	// check runs the checks a workload defers to the end of a phase
	// and returns how many failed.
	check() int64
	// counters snapshots the layer counters of the system under test.
	counters() (counters, error)
	// warmed reports the untimed warm-up ops set-up ran and checked.
	warmed() (n, failed int64)
	// close stops the system under test. When a child process hosted
	// it, close returns that process's peak resident set in MB;
	// otherwise 0, and the phase's own memory sample stands in.
	close() (float64, error)
}

// workload is one benchmark scenario and its closed-loop concurrency:
// at most one client per core of the 2-core reference machine. The
// hit-path and HTTP workloads run two, so the memo stripe and the
// server see concurrent callers; churn and search run one, because
// with two callers on two cores their tail latency is set by which
// thread the OS preempts (for GC workers and each other), not by the
// work a query does.
type workload struct {
	name    string
	clients int
	setup   func(cfg config, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"repeat", 2, setupRepeat},
	{"churn", 1, setupChurn},
	{"search", 1, setupSearch},
	{"serve", 2, setupServe},
}

// metric is one named, unit-carrying number of a report.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	traced            bool
	attempted, failed int64
	metrics           []metric // the contract metrics of this mode
	notes             []metric // printed for people, not in the JSON
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: repeat, churn, search, serve or all")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds generate equal inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end run; 1: traced run reporting per-layer metrics")
	hsched := fs.String("hsched", "", "hsched binary the serve workload starts as its server")
	traceDir := fs.String("trace-dir", "", "directory a traced run writes its spans to (empty: not written)")
	setups := fs.Int("setups", 3, "set-ups per end-to-end run; setup_s is their median")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *setups < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		fs.Usage()
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, hsched: *hsched, traceDir: *traceDir, setups: *setups}

	if *name == "all" {
		ok := true
		for _, w := range workloads {
			cfg.clients = w.clients
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(w, cfg, traced)
				if err != nil {
					fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
					return 1
				}
				printReport(stdout, rep)
				ok = ok && rep.correct()
			}
		}
		if !ok {
			fmt.Fprintln(stdout, "perfbench: FAILED: some answers did not match the reference")
			return 1
		}
		return 0
	}

	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		cfg.clients = w.clients
		rep, err := runWorkload(w, cfg, *traceMode == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stderr, rep)
		line, err := resultLine(rep)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		return 0
	}
	fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
	return 2
}

// runWorkload performs one run: the end-to-end run (several set-ups,
// then one untraced measured phase) or the traced run (one set-up, a
// traced phase, then an untraced phase of the same length that the
// trace overhead is measured against).
func runWorkload(w workload, cfg config, traced bool) (*report, error) {
	rep := &report{workload: w.name, traced: traced}
	if !traced {
		var setupS []float64
		var inst instance
		for i := 0; i < cfg.setups; i++ {
			if inst != nil {
				if _, err := inst.close(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			next, err := w.setup(cfg, nil)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			n, failed := next.warmed()
			rep.attempted += n
			rep.failed += failed
			inst = next
		}
		ph := runPhase(inst, cfg.clients, secs(cfg.seconds), nil)
		rssMB, err := inst.close()
		if err != nil {
			return nil, err
		}
		if rssMB == 0 {
			rssMB = ph.heldMB
		}
		rep.attempted += ph.attempted()
		rep.failed += ph.failed
		rep.metrics = []metric{
			{"setup_s", median(setupS), "s"},
			{"ops_per_s", ph.medianOpsPerS(), "1/s"},
			{"latency_p50_us", ph.medianQuantileUS(0.50), "us"},
			{"latency_p99_us", ph.medianQuantileUS(0.99), "us"},
			{"peak_rss_mb", rssMB, "MB"},
		}
		rep.notes = []metric{
			{"error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "ratio"},
			{"latency_samples", float64(ph.samples()), "count"},
			{"clients", float64(cfg.clients), "count"},
		}
		return rep, nil
	}

	tr := newTracer(cfg.clients)
	inst, err := w.setup(cfg, tr)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = inst.warmed()
	half := secs(cfg.seconds / 2)
	before, err := inst.counters()
	if err != nil {
		inst.close() //nolint:errcheck // the counters error is the one to report
		return nil, err
	}
	tp := runPhase(inst, cfg.clients, half, tr)
	after, err := inst.counters()
	if err != nil {
		inst.close() //nolint:errcheck // as above
		return nil, err
	}
	up := runPhase(inst, cfg.clients, half, nil)
	if _, err := inst.close(); err != nil {
		return nil, err
	}
	rep.attempted += tp.attempted() + up.attempted()
	rep.failed += tp.failed + up.failed
	rep.metrics = layerMetrics(after.minus(before), tp, up, tr)
	rep.notes = []metric{
		{"error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "ratio"},
		{"trace.spans_dropped", float64(tr.dropped()), "count"},
	}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phase is the outcome of one measured phase.
type phase struct {
	ops, failed int64 // ops completed in the phase; failures among them and the drained ones
	drained     int64 // ops still in flight at the end, settled afterwards
	elapsed     time.Duration
	windows     [numWindows]window
	cpu         time.Duration // this process's CPU time over the phase
	mallocs     uint64
	gcPause     time.Duration
	gcCycles    uint32
	heldMB      float64 // peak memory this process held from the OS during the phase
}

// numWindows is how many equal slices of a phase the end-to-end
// figures are measured over; each figure is the median across them, so
// a few seconds of interference from elsewhere on the machine move it
// less than they would move one figure over the whole phase.
const numWindows = 5

// window is one slice of a phase: the ops that completed in it and
// their latencies.
type window struct {
	ops int64
	d   time.Duration
	lat merged
}

func (p phase) attempted() int64 { return p.ops + p.drained }

// opsPerS is the throughput over the whole phase.
func (p phase) opsPerS() float64 { return ratio(float64(p.ops), p.elapsed.Seconds()) }

// medianOpsPerS is the median of the windows' throughputs.
func (p phase) medianOpsPerS() float64 {
	var xs []float64
	for _, w := range p.windows {
		xs = append(xs, ratio(float64(w.ops), w.d.Seconds()))
	}
	return median(xs)
}

// medianQuantileUS is the median of the windows' q-quantile latencies.
func (p phase) medianQuantileUS(q float64) float64 {
	var xs []float64
	for _, w := range p.windows {
		xs = append(xs, w.lat.quantileUS(q))
	}
	return median(xs)
}

// samples counts the latencies the windows hold.
func (p phase) samples() int64 {
	var n int64
	for _, w := range p.windows {
		n += w.lat.n
	}
	return n
}

// runPhase runs every client in a closed loop for d: each client
// issues its next op as soon as the previous one returns. The phase
// starts from a collected heap with free memory returned to the OS, so
// the memory it samples is the phase's own.
func runPhase(inst instance, clients int, d time.Duration, tr *tracer) phase {
	type clientResult struct {
		ops, failed, drained int64
		last                 time.Time
		win                  [numWindows]*reservoir
	}
	res := make([]clientResult, clients)
	for c := range res {
		for w := range res[c].win {
			res[c].win[w] = newReservoir(uint64(c*numWindows+w)+0x9e3779b97f4a7c15, reservoirCap)
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	stopSampling := make(chan struct{})
	held := make(chan float64, 1)
	go func() { held <- sampleHeldMB(stopSampling) }()

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ct *clientTrace
			if tr != nil {
				ct = tr.clients[c]
			}
			r := &res[c]
			for now := start; now.Before(deadline); {
				lat, ok := inst.op(c, ct)
				now = time.Now()
				r.ops++
				if w := int(now.Sub(start) * numWindows / d); w < numWindows {
					r.win[w].add(lat)
				}
				if !ok {
					r.failed++
				}
			}
			r.last = time.Now()
			n, failed := inst.drain(c)
			r.drained += n
			r.failed += failed
		}(c)
	}
	wg.Wait()
	close(stopSampling)

	p := phase{heldMB: <-held, cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	end := start
	for c := range res {
		p.ops += res[c].ops
		p.failed += res[c].failed
		p.drained += res[c].drained
		if res[c].last.After(end) {
			end = res[c].last
		}
	}
	p.elapsed = end.Sub(start)
	for w := range p.windows {
		rs := make([]*reservoir, clients)
		for c := range res {
			rs[c] = res[c].win[w]
		}
		p.windows[w].lat = merge(rs...)
		p.windows[w].ops = p.windows[w].lat.n
		p.windows[w].d = d / numWindows
	}
	p.failed += inst.check()
	return p
}

// sampleHeldMB samples, every 20 ms until stop closes, the
// memory the Go runtime holds from the OS (mapped and not released:
// heap in use and free, stacks, runtime metadata) and returns the
// largest sample in MB. It is this process's resident set less the
// program text, which a getrusage peak could not separate from set-up.
func sampleHeldMB(stop <-chan struct{}) float64 {
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	peak := 0.0
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(samples)
		if mb := float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20); mb > peak {
			peak = mb
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// processCPU returns the user plus system CPU time this process has
// used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printReport writes one line per metric: workload, mode, name, value
// and unit.
func printReport(w io.Writer, rep *report) {
	mode := "end-to-end"
	if rep.traced {
		mode = "traced"
	}
	for _, ms := range [][]metric{rep.metrics, rep.notes} {
		for _, m := range ms {
			fmt.Fprintf(w, "%-7s %-10s %-38s %16.6g %s\n", rep.workload, mode, m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-7s %-10s %-38s %16d %s\n", rep.workload, mode, "attempted", rep.attempted, "count")
	fmt.Fprintf(w, "%-7s %-10s %-38s %16d %s\n", rep.workload, mode, "failed", rep.failed, "count")
}

// resultLine renders the report as the one-line JSON result.
func resultLine(rep *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, make(map[string]value, len(rep.metrics))}
	for _, m := range rep.metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", errors.New("encoding the result: " + err.Error())
	}
	return string(data), nil
}
