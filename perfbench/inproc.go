package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/service"
)

// serviceOptions configures the in-process service of repeat and
// churn: the library defaults (memo 4096 entries, one stripe per core,
// delta window 4 per stripe) for verdict-only admission traffic — the
// holistic iteration stops at the first provable deadline miss — with
// one analysis worker per query, as `hsched serve` runs, since two
// callers already occupy both cores. Without the early stop a few
// systems per thousand iterate hundreds of rounds, and which of them a
// seed happens to draw would decide churn's throughput.
var serviceOptions = service.Options{Analysis: analysis.Options{Workers: 1, StopAtDeadlineMiss: true}}

// rngFor derives the generator of one input stream from the workload
// seed, so streams stay independent and reproducible.
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)*104729 + 1))
}

// mixedSystem draws one system of the mixed-size population: 2–4
// platforms, 3–10 transactions of 1–3 tasks, moderate load.
func mixedSystem(rng *rand.Rand) *model.System {
	sys, err := gen.System(gen.Config{
		Seed:         rng.Int63(),
		Platforms:    2 + rng.Intn(3),
		Transactions: 3 + rng.Intn(8),
		ChainLen:     3,
		PeriodMin:    10, PeriodMax: 1000,
		Utilization: 0.3 + 0.2*rng.Float64(),
		AlphaMin:    0.4, AlphaMax: 0.9,
	})
	if err != nil {
		// Every field above is in gen's valid range.
		panic(fmt.Sprintf("perfbench: generator rejected its own configuration: %v", err))
	}
	return sys
}

// analyzeAll analyses every system cold, each on a fresh private
// engine, spread over the available cores, and hands each result to
// keep (called concurrently, once per index).
func analyzeAll(systems []*model.System, opt analysis.Options, keep func(i int, res *analysis.Result)) error {
	errs := make([]error, len(systems))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(systems); i += workers {
				res, err := analysis.NewEngine(opt).Analyze(systems[i])
				if err != nil {
					errs[i] = err
					continue
				}
				keep(i, res)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference analysis of system %d: %w", i, err)
		}
	}
	return nil
}

// references returns the digests of the cold reference analyses.
func references(systems []*model.System, opt analysis.Options) ([]uint64, error) {
	refs := make([]uint64, len(systems))
	err := analyzeAll(systems, opt, func(i int, res *analysis.Result) { refs[i] = digest(res) })
	return refs, err
}

// query runs one service query. Untraced it is the plain
// Service.Analyze call; traced it is the same work split at the layer
// boundary — Fingerprint, then AnalyzeFingerprinted — with a span
// around each and the rung that answered recorded.
func query(svc *service.Service, sys *model.System, ct *clientTrace) (*analysis.Result, time.Duration, error) {
	ctx := context.Background()
	if ct == nil {
		t0 := time.Now()
		res, err := svc.Analyze(ctx, sys)
		return res, time.Since(t0), err
	}
	t0 := ct.now()
	op := ct.begin(t0)
	f0 := ct.now()
	fp := sys.Fingerprint()
	f1 := ct.now()
	res, err := svc.AnalyzeFingerprinted(ctx, fp, sys, serviceOptions.Analysis, false)
	a1 := ct.now()
	t1 := ct.now()
	ct.child(op, spanFingerprint, f0, f1)
	ct.child(op, spanAnalyze, f1, a1)
	ct.end(op, t0, t1)
	ct.classify(res, time.Duration(a1-f1))
	return res, time.Duration(t1 - t0), err
}

// inprocBase holds what repeat and churn share: the service, the
// warm-up tally, and the process-level close.
type inprocBase struct {
	svc              *service.Service
	warmN, warmFails int64
}

func (b *inprocBase) drain(int) (int64, int64) { return 0, 0 }
func (b *inprocBase) check() int64             { return 0 }
func (b *inprocBase) warmed() (int64, int64)   { return b.warmN, b.warmFails }
func (b *inprocBase) close() (float64, error)  { return 0, nil }
func (b *inprocBase) counters() (counters, error) {
	return counters{svc: b.svc.Stats()}, nil
}

// ---- repeat ----------------------------------------------------------

const (
	repeatPopulation = 1024
	repeatOrderLen   = 1 << 16
)

// repeat: a resident population queried over and over by callers that
// keep their *model.System values. After the warm-up every query is a
// memo hit: fingerprinting and the memo stripe do the work.
type repeatInst struct {
	inprocBase
	pop     []*model.System
	ref     []uint64
	clients []*repeatClient
}

type repeatClient struct {
	order    []int32
	pos      int
	verified []*analysis.Result // per system: the result last checked against the reference
}

func setupRepeat(cfg config, tr *tracer) (instance, error) {
	rng := rngFor(cfg.seed, 0)
	r := &repeatInst{pop: make([]*model.System, repeatPopulation)}
	for i := range r.pop {
		r.pop[i] = mixedSystem(rng)
	}
	var err error
	if r.ref, err = references(r.pop, serviceOptions.Analysis); err != nil {
		return nil, err
	}
	r.svc = service.New(serviceOptions)
	for c := 0; c < cfg.clients; c++ {
		crng := rngFor(cfg.seed, 1+c)
		cl := &repeatClient{order: make([]int32, repeatOrderLen), verified: make([]*analysis.Result, len(r.pop))}
		for k := range cl.order {
			cl.order[k] = int32(crng.Intn(len(r.pop)))
		}
		r.clients = append(r.clients, cl)
	}
	// Warm-up: every system once, so the measured phase starts from the
	// all-resident steady state.
	for i, sys := range r.pop {
		res, err := r.svc.Analyze(context.Background(), sys)
		r.warmN++
		if err != nil || digest(res) != r.ref[i] {
			r.warmFails++
			continue
		}
		if tr != nil {
			tr.note(res)
		}
	}
	return r, nil
}

func (r *repeatInst) op(c int, ct *clientTrace) (time.Duration, bool) {
	cl := r.clients[c]
	i := cl.order[cl.pos]
	cl.pos = (cl.pos + 1) % len(cl.order)
	res, lat, err := query(r.svc, r.pop[i], ct)
	if err != nil {
		return lat, false
	}
	// A memo hit returns the shared pointer a previous check already
	// compared; anything else is compared in full.
	if res != cl.verified[i] {
		if digest(res) != r.ref[i] {
			return lat, false
		}
		cl.verified[i] = res
	}
	return lat, true
}

// ---- churn -----------------------------------------------------------

const (
	churnScript   = 32768 // ops per run, split over the clients, before the script repeats
	churnWarm     = 8192  // ops run before measuring, split over the clients: enough to fill the memo
	churnRecent   = 32    // how far back a repeat reaches
	churnEditBase = 4     // how far back an edit's base reaches
	churnMaxTx    = 12
	churnMinTx    = 2
	churnMaxUtil  = 0.55 // per platform; the population is drawn at 0.3–0.5
)

// churn: admission-control churn. Each client walks its own script:
// mostly one-transaction edits (retune, add, drop) of a system it
// analysed a moment ago, a few brand-new systems, and repeats of
// recent systems. Across clients the script holds far more distinct
// systems than the 4096-entry memo, so edits miss and ride the delta
// path or run cold, and the memo evicts.
type churnInst struct {
	inprocBase
	clients []*churnClient
}

type churnOp struct {
	sys *model.System
	ref uint64
}

type churnClient struct {
	ops []churnOp
	pos int
}

func setupChurn(cfg config, tr *tracer) (instance, error) {
	ch := &churnInst{}
	var distinct []*model.System
	for c := 0; c < cfg.clients; c++ {
		cl := &churnClient{ops: churnScriptFor(rngFor(cfg.seed, 100+c), churnScript/cfg.clients, &distinct)}
		ch.clients = append(ch.clients, cl)
	}
	refs, err := references(distinct, serviceOptions.Analysis)
	if err != nil {
		return nil, err
	}
	byPtr := make(map[*model.System]uint64, len(distinct))
	for i, sys := range distinct {
		byPtr[sys] = refs[i]
	}
	for _, cl := range ch.clients {
		for k := range cl.ops {
			cl.ops[k].ref = byPtr[cl.ops[k].sys]
		}
	}
	ch.svc = service.New(serviceOptions)

	// Warm-up: the clients run the head of their scripts concurrently,
	// filling the memo and the delta pool to their steady state.
	var wg sync.WaitGroup
	warm := make([][2]int64, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := ch.clients[c]
			for k := 0; k < churnWarm/cfg.clients; k++ {
				op := cl.ops[cl.pos]
				cl.pos = (cl.pos + 1) % len(cl.ops)
				res, err := ch.svc.Analyze(context.Background(), op.sys)
				warm[c][0]++
				if err != nil || digest(res) != op.ref {
					warm[c][1]++
					continue
				}
				if tr != nil {
					tr.note(res)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, w := range warm {
		ch.warmN += w[0]
		ch.warmFails += w[1]
	}
	return ch, nil
}

// churnScriptFor generates one client's script of n ops, appending every
// system it creates to distinct.
func churnScriptFor(rng *rand.Rand, n int, distinct *[]*model.System) []churnOp {
	ops := make([]churnOp, 0, n)
	add := func(sys *model.System) {
		*distinct = append(*distinct, sys)
		ops = append(ops, churnOp{sys: sys})
	}
	add(mixedSystem(rng))
	for len(ops) < n {
		back := func(n int) *model.System { return ops[len(ops)-1-rng.Intn(min(n, len(ops)))].sys }
		switch u := rng.Float64(); {
		case u < 0.05:
			add(mixedSystem(rng))
		case u < 0.75:
			add(editOnce(rng, back(churnEditBase), len(*distinct)))
		default:
			ops = append(ops, churnOp{sys: back(churnRecent)})
		}
	}
	return ops
}

// editOnce returns base with one transaction retuned, added or
// dropped, keeping every platform's utilisation at most churnMaxUtil
// (an edit that would exceed it is redrawn, and after a few tries
// replaced by a drop or a retune downwards). Unchanged transactions
// share their task slices with base; systems are never mutated after
// generation.
func editOnce(rng *rand.Rand, base *model.System, id int) *model.System {
	for try := 0; ; try++ {
		out := &model.System{
			Platforms:    base.Platforms,
			Transactions: append([]model.Transaction(nil), base.Transactions...),
		}
		n := len(out.Transactions)
		kind, scale := rng.Float64(), 0.8+0.4*rng.Float64()
		if try >= 8 {
			kind, scale = 0, 0.8
		}
		switch {
		case n > churnMinTx && (kind < 0.2 || n >= churnMaxTx):
			k := rng.Intn(n)
			out.Transactions = append(out.Transactions[:k], out.Transactions[k+1:]...)
		case kind < 0.4 && try < 8:
			out.Transactions = append(out.Transactions, newTransaction(rng, len(out.Platforms), n, id))
		default:
			tr := &out.Transactions[rng.Intn(n)]
			tr.Tasks = append([]model.Task(nil), tr.Tasks...)
			t := &tr.Tasks[rng.Intn(len(tr.Tasks))]
			t.WCET *= scale
			t.BCET = math.Min(t.BCET, t.WCET)
		}
		if try >= 8 || slices.Max(out.Utilization()) <= churnMaxUtil {
			return out
		}
	}
}

// newTransaction draws one light transaction (1–3 tasks, each a few
// percent of its platform) at a random priority level.
func newTransaction(rng *rand.Rand, platforms, n, id int) model.Transaction {
	period := gen.LogUniform(rng, 10, 1000)
	tr := model.Transaction{Name: fmt.Sprintf("Add%d", id), Period: period, Deadline: period}
	start := rng.Intn(platforms)
	prio := 1 + rng.Intn(n+1)
	for j, m := 0, 1+rng.Intn(3); j < m; j++ {
		wcet := (0.01 + 0.03*rng.Float64()) * period * 0.5
		tr.Tasks = append(tr.Tasks, model.Task{
			Name:     fmt.Sprintf("add%d,%d", id, j+1),
			WCET:     wcet,
			BCET:     wcet / 2,
			Priority: prio,
			Platform: (start + j) % platforms,
		})
	}
	return tr
}

func (ch *churnInst) op(c int, ct *clientTrace) (time.Duration, bool) {
	cl := ch.clients[c]
	op := cl.ops[cl.pos]
	cl.pos = (cl.pos + 1) % len(cl.ops)
	res, lat, err := query(ch.svc, op.sys, ct)
	return lat, err == nil && digest(res) == op.ref
}
