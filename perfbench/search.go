package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/sched"
	"hsched/internal/service"
)

const (
	searchInputs     = 1 << 17 // distinct systems per seed; a run searches fewer
	searchWarm       = 2048    // searches before measuring: enough to fill the memo
	searchTxs        = 3
	searchChainLen   = 2
	searchMaxTasks   = searchTxs * searchChainLen
	searchUtilLow    = 0.2
	searchUtilSpread = 0.15
)

// searchOptions selects the exact oracle: every probe of a search is a
// branch-and-bound exact sweep.
var searchOptions = analysis.Options{Exact: true, Workers: 1}

// search: whole Audsley priority searches with the exact oracle on
// single-platform systems (3 transactions of 1–2 tasks) drawn with
// random priorities, all through one shared service. Every search
// starts on a system no earlier search in the run has probed, so memo
// hits come only from revisits inside a search; the session-pinned
// delta path and the exact sweep do the work. Utilisation is drawn from
// 0.2–0.35: above about 0.4 a few percent of these searches run for
// seconds (the exact sweeps of the first, all-tied probes).
//
// The inputs are generated at set-up as generator configurations and
// each is materialised right before its search, outside the timed
// interval: Assign installs priorities in place, so every search needs
// a fresh copy anyway, and a run's worth of resident systems would
// dwarf the service's own memory.
type searchInst struct {
	svc              *service.Service
	inputs           []searchInput
	clients          []*searchClient
	warmN, warmFails int64
}

type searchInput struct {
	seed int64
	util float64
}

func (in searchInput) system() (*model.System, error) {
	return gen.System(gen.Config{
		Seed:      in.seed,
		Platforms: 1, Transactions: searchTxs, ChainLen: searchChainLen,
		PeriodMin: 20, PeriodMax: 400,
		Utilization: in.util,
		AlphaMin:    0.5, AlphaMax: 0.9,
		RandomPriorities: true,
	})
}

type searchClient struct {
	next int
	done []searchDone // searches awaiting their check
}

// searchDone is one finished search: its input, the priorities it
// installed, and what it reported.
type searchDone struct {
	input  int32
	prio   [searchMaxTasks]int32
	digest uint64
	ok     bool
}

func setupSearch(cfg config, _ *tracer) (instance, error) {
	rng := rngFor(cfg.seed, 200)
	s := &searchInst{inputs: make([]searchInput, searchInputs)}
	for i := range s.inputs {
		s.inputs[i] = searchInput{seed: rng.Int63(), util: searchUtilLow + searchUtilSpread*rng.Float64()}
	}
	s.svc = service.New(service.Options{Analysis: searchOptions})
	for c := 0; c < cfg.clients; c++ {
		s.clients = append(s.clients, &searchClient{next: c})
	}
	for c := range s.clients {
		for k := 0; k < searchWarm/len(s.clients); k++ {
			if _, ok := s.op(c, nil); !ok {
				s.warmFails++
			}
			s.warmN++
		}
	}
	s.warmFails += s.check()
	return s, nil
}

func (s *searchInst) op(c int, ct *clientTrace) (time.Duration, bool) {
	cl := s.clients[c]
	idx := cl.next
	cl.next = (cl.next + len(s.clients)) % len(s.inputs)
	sys, err := s.inputs[idx].system()
	if err != nil {
		return 0, false
	}
	opt := sched.AssignOptions{Analysis: searchOptions, Service: s.svc}
	ctx := context.Background()

	var (
		res *analysis.Result
		ok  bool
		lat time.Duration
	)
	if ct == nil {
		t0 := time.Now()
		res, ok, err = sched.Assign(ctx, sys, sched.PolicyAudsley, opt)
		lat = time.Since(t0)
	} else {
		t0 := ct.now()
		op := ct.begin(t0)
		a0 := ct.now()
		res, ok, err = sched.Assign(ctx, sys, sched.PolicyAudsley, opt)
		a1 := ct.now()
		t1 := ct.now()
		ct.child(op, spanAssign, a0, a1)
		ct.end(op, t0, t1)
		lat = time.Duration(t1 - t0)
	}
	if err != nil {
		return lat, false
	}
	d := searchDone{input: int32(idx), digest: digest(res), ok: ok}
	k := 0
	for i := range sys.Transactions {
		for j := range sys.Transactions[i].Tasks {
			d.prio[k] = int32(sys.Transactions[i].Tasks[j].Priority)
			k++
		}
	}
	cl.done = append(cl.done, d)
	return lat, true
}

// check re-creates every finished search's system with the priorities
// the search installed, analyses it cold on a fresh private engine, and
// compares with what the search returned: the same bounds, and success
// only with a schedulable result. It runs after the phase, outside
// every timed interval.
func (s *searchInst) check() int64 {
	var all []searchDone
	for _, cl := range s.clients {
		all = append(all, cl.done...)
		cl.done = nil
	}
	workers := runtime.GOMAXPROCS(0)
	fails := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				if err := s.recheck(all[i]); err != nil {
					fails[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var n int64
	for _, f := range fails {
		n += f
	}
	return n
}

func (s *searchInst) recheck(d searchDone) error {
	sys, err := s.inputs[d.input].system()
	if err != nil {
		return err
	}
	k := 0
	for i := range sys.Transactions {
		for j := range sys.Transactions[i].Tasks {
			sys.Transactions[i].Tasks[j].Priority = int(d.prio[k])
			k++
		}
	}
	ref, err := analysis.NewEngine(searchOptions).Analyze(sys)
	if err != nil {
		return err
	}
	if digest(ref) != d.digest || (d.ok && !ref.Schedulable) {
		return fmt.Errorf("search of input %d disagrees with its cold re-analysis", d.input)
	}
	return nil
}

func (s *searchInst) drain(int) (int64, int64)    { return 0, 0 }
func (s *searchInst) warmed() (int64, int64)      { return s.warmN, s.warmFails }
func (s *searchInst) close() (float64, error)     { return 0, nil }
func (s *searchInst) counters() (counters, error) { return counters{svc: s.svc.Stats()}, nil }
