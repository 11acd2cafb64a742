package analysis_test

import (
	"fmt"
	"math"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
)

// sweepOptions is the exact analysis the sweep suites run: a strictly
// sequential engine, iteration-capped so unschedulable draws stay
// cheap.
func sweepOptions() analysis.Options {
	return analysis.Options{Exact: true, Workers: 1, MaxIterations: 40}
}

// sweepEngine returns the production engine, or the exhaustive
// reference when exhaustive is set.
func sweepEngine(opt analysis.Options, exhaustive bool) *analysis.Engine {
	if exhaustive {
		return analysis.NewExhaustiveEngine(opt)
	}
	return analysis.NewEngine(opt)
}

// sweepSystems draws the bit-identity population: single-platform
// systems (every task interferes with every lower-priority one, the
// regime where the scenario product of Eq. 12 actually grows) plus a
// couple of multi-platform chains, spanning schedulable and
// unschedulable draws.
func sweepSystems(t testing.TB) []*model.System {
	t.Helper()
	var out []*model.System
	for k := 0; k < 4; k++ {
		sys, err := gen.System(gen.Config{
			Seed:      int64(9000 + k),
			Platforms: 1, Transactions: 3, ChainLen: 4,
			PeriodMin: 20, PeriodMax: 200,
			Utilization: 0.4 + 0.1*float64(k%2),
			AlphaMin:    0.5, AlphaMax: 0.9,
			RandomPriorities: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	for k := 0; k < 2; k++ {
		sys, err := gen.System(gen.Config{
			Seed:      int64(9100 + k),
			Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 300,
			Utilization: 0.45,
			AlphaMin:    0.4, AlphaMax: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// exactHeavySystem builds a single dedicated platform carrying
// `transactions` chains of `chainLen` tasks with per-transaction
// descending priorities: every task of every higher-indexed
// transaction interferes with every task of the lower-priority ones,
// so the lowest-priority tasks face chainLen^transactions exact
// scenario vectors — the worst-case shape of Eq. 12. Utilisation is
// kept low so each scenario's fixed point converges in a few steps and
// the cost is the enumeration itself.
func exactHeavySystem(transactions, chainLen int) *model.System {
	sys := &model.System{Platforms: []platform.Params{platform.Dedicated()}}
	for i := 0; i < transactions; i++ {
		tr := model.Transaction{
			Period:   1000 + 40*float64(i),
			Deadline: 4000,
		}
		for j := 0; j < chainLen; j++ {
			tr.Tasks = append(tr.Tasks, model.Task{
				WCET: 1 + 0.1*float64(j), BCET: 0.5,
				Priority: transactions - i,
			})
		}
		sys.Transactions = append(sys.Transactions, tr)
	}
	return sys
}

// TestExactSweepBitIdentity is the exact sweep's metamorphic contract:
// the production sweep (streamed, pruned, seeded) and the exhaustive
// reference, for every worker count, must reproduce the sequential
// exhaustive sweep's results bit for bit: all task bounds, critical
// scenarios, iteration counts and verdicts.
func TestExactSweepBitIdentity(t *testing.T) {
	for si, sys := range sweepSystems(t) {
		ref, err := analysis.NewExhaustiveEngine(sweepOptions()).Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, exhaustive := range []bool{false, true} {
			for _, workers := range []int{1, 4, 8} {
				opt := sweepOptions()
				opt.Workers = workers
				got, err := sweepEngine(opt, exhaustive).Analyze(sys)
				if err != nil {
					t.Fatalf("system %d exhaustive=%v workers=%d: %v", si, exhaustive, workers, err)
				}
				if !resultsIdentical(ref, got) {
					t.Fatalf("system %d exhaustive=%v workers=%d: diverged from the exhaustive sweep", si, exhaustive, workers)
				}
				if exhaustive && got.ScenariosPruned != 0 {
					t.Fatalf("system %d: exhaustive sweep pruned %d scenarios", si, got.ScenariosPruned)
				}
			}
		}
	}
}

// TestExactSweepBitIdentityHeavy covers the regime the small random
// systems cannot reach: sweeps of thousands of scenario vectors, where
// the whole-subtree seeks dominate the walk, run next to each other on
// several workers. Results must match the exhaustive sweep, and the
// work profile of a fresh engine must not depend on the worker count. One
// static pass (the sweep itself, no holistic iteration on top) keeps
// the -race run short.
func TestExactSweepBitIdentityHeavy(t *testing.T) {
	// Costliest tasks face 6^5 = 7776 scenario vectors.
	sys := exactHeavySystem(5, 6)
	ref, err := analysis.NewExhaustiveEngine(sweepOptions()).AnalyzeStatic(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, exhaustive := range []bool{false, true} {
		var first *analysis.Result
		for _, workers := range []int{1, 4, 8} {
			opt := analysis.Options{Exact: true, Workers: workers}
			got, err := sweepEngine(opt, exhaustive).AnalyzeStatic(sys)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsIdentical(ref, got) {
				t.Fatalf("exhaustive=%v workers=%d: heavy sweep diverged from the exhaustive sweep", exhaustive, workers)
			}
			if exhaustive && (got.ScenariosPruned != 0 || got.SubtreesPruned != 0) {
				t.Fatalf("workers=%d: exhaustive sweep pruned %d scenarios in %d subtrees", workers, got.ScenariosPruned, got.SubtreesPruned)
			}
			if first == nil {
				first = got
			} else if got.ScenariosPruned != first.ScenariosPruned || got.SubtreesPruned != first.SubtreesPruned {
				t.Fatalf("exhaustive=%v workers=%d: work profile %d/%d scenarios/subtrees pruned, want %d/%d as at 1 worker",
					exhaustive, workers, got.ScenariosPruned, got.SubtreesPruned, first.ScenariosPruned, first.SubtreesPruned)
			}
		}
	}
}

// TestExactSweepPrunesPaperExample locks the admissible prune engaging
// on the paper's own Table 3 example: even its small scenario sets
// contain dominated vectors the bound discards.
func TestExactSweepPrunesPaperExample(t *testing.T) {
	sys := experiments.PaperSystem()
	res, err := analysis.NewEngine(analysis.Options{Exact: true, Workers: 1}).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosPruned <= 0 {
		t.Fatalf("exact analysis of the paper example pruned %d scenarios, want > 0", res.ScenariosPruned)
	}

	// And the accelerated sweep still reproduces Table 3's fixed point.
	if r := res.TransactionResponse(0); math.Abs(r-31) > 1e-6 {
		t.Fatalf("R(Γ1) = %v under the pruned sweep, want 31", r)
	}
	base, err := analysis.NewExhaustiveEngine(sweepOptions()).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(base, res) {
		t.Fatal("pruned sweep diverged from the exhaustive sweep on the paper example")
	}
}

// TestExactSweepPrunedCountStable locks the sequential prune count:
// with one worker the sweep order is fixed, so the number of pruned
// scenarios is a deterministic function of the system.
func TestExactSweepPrunedCountStable(t *testing.T) {
	sys := exactHeavySystem(4, 4)
	first, err := analysis.NewEngine(analysis.Options{Exact: true, Workers: 1}).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	second, err := analysis.NewEngine(analysis.Options{Exact: true, Workers: 1}).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if first.ScenariosPruned != second.ScenariosPruned {
		t.Fatalf("sequential prune count not reproducible: %d vs %d", first.ScenariosPruned, second.ScenariosPruned)
	}
	if first.ScenariosPruned <= 0 {
		t.Fatalf("heavy sweep pruned nothing")
	}
}

// TestScenarioCountSaturates locks the overflow fix: a wide
// single-platform system whose scenario product exceeds an int64 must
// report math.MaxInt, not a wrapped negative count.
func TestScenarioCountSaturates(t *testing.T) {
	// 41 transactions × 3 tasks on one platform: the lowest-priority
	// task's product is 3^40 · 4 ≈ 4.9·10^19 > MaxInt64.
	sys := exactHeavySystem(41, 3)
	a := len(sys.Transactions) - 1
	b := len(sys.Transactions[a].Tasks) - 1
	exact, approx := analysis.ScenarioCount(sys, a, b)
	if exact != math.MaxInt {
		t.Fatalf("ScenarioCount = %d, want saturation at MaxInt", exact)
	}
	if approx <= 0 {
		t.Fatalf("approximate count %d must stay exact (no product involved)", approx)
	}

	// Sanity: a small system still counts exactly. For the last task
	// of the lowest-priority transaction of exactHeavySystem(3, 2),
	// the own axis has 1 interferer + the task itself and each of the
	// two higher-priority transactions contributes its 2 tasks:
	// 2 · 2 · 2 = 8 scenario vectors versus 2 approximate ones.
	small := exactHeavySystem(3, 2)
	exact, approx = analysis.ScenarioCount(small, 2, 1)
	if exact != 8 || approx != 2 {
		t.Fatalf("small system counts exact=%d approx=%d, want 8 and 2", exact, approx)
	}
}

// BenchmarkExactSweep measures the exact sweep on the heavy workload
// (≥ 10^5 scenario vectors on the costliest tasks): the exhaustive
// reference ("seed", every vector evaluated) and the production sweep
// on one reused engine, whose resident sweep seeds carry over between
// iterations, and the production sweep from a fresh engine per
// iteration at 1 and 2 workers, which pays every bound and seed from
// scratch as a first query does. One static pass isolates the sweep
// itself from holistic iteration effects.
func BenchmarkExactSweep(b *testing.B) {
	sys := exactHeavySystem(6, 7) // lowest-priority tasks: 7^6 = 117 649 scenarios
	if ex, _ := analysis.ScenarioCount(sys, 5, 6); ex < 100_000 {
		b.Fatalf("heavy workload too light: %d scenarios on the costliest task", ex)
	}
	run := func(b *testing.B, eng *analysis.Engine) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.AnalyzeStatic(sys); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seed", func(b *testing.B) {
		run(b, analysis.NewExhaustiveEngine(sweepOptions()))
	})
	b.Run("streamed-pruned-1w", func(b *testing.B) {
		run(b, analysis.NewEngine(analysis.Options{Exact: true, Workers: 1}))
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("cold-%dw", workers), func(b *testing.B) {
			opt := analysis.Options{Exact: true, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := analysis.NewEngine(opt).AnalyzeStatic(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
