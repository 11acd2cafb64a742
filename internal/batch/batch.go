// Package batch runs schedulability analyses and simulations over
// large collections of systems in parallel. Evaluation sweeps
// (acceptance ratios, soundness campaigns, design-space exploration)
// are embarrassingly parallel: every system is independent, so the
// package provides a deterministic parallel map with bounded workers,
// first-error propagation, optional progress reporting and per-worker
// state (MapWorkers) for reusing expensive resources such as
// analysis engines across items.
package batch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a batch run.
type Options struct {
	// Workers bounds the concurrent evaluations; 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after every completed item
	// with the number of items done so far. It must be safe for
	// concurrent use (the package serialises calls).
	Progress func(done, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(i) for i in [0, n) on a bounded worker pool and
// collects the results in index order, so the output is deterministic
// regardless of scheduling. The first error cancels the remaining
// work (already-started evaluations finish) and is returned.
func Map[T any](n int, opt Options, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkers(n, opt,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// MapWorkers is Map with per-worker state: newState runs once in each
// worker goroutine and the returned state is handed to every fn call
// that worker executes. It is the hook for reusing an expensive,
// non-shareable resource — typically an analysis.Engine — across the
// items of a sweep without locking and without one instance per item.
// State is never shared between goroutines, so fn may mutate it
// freely; results are still collected in index order.
func MapWorkers[S, T any](n int, opt Options, newState func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("batch: negative item count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}

	var (
		next     atomic.Int64
		done     int
		firstErr error
		errOnce  sync.Once
		failed   atomic.Bool
		progMu   sync.Mutex
		wg       sync.WaitGroup
	)

	workers := opt.workers()
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(state, i)
				if err != nil {
					// Raise the flag before formatting the error, so
					// the other workers stop taking items at once.
					failed.Store(true)
					errOnce.Do(func() {
						firstErr = fmt.Errorf("batch: item %d: %w", i, err)
					})
					return
				}
				out[i] = v
				if opt.Progress != nil {
					// Count under the same lock as the call, so
					// Progress sees done strictly increasing.
					progMu.Lock()
					done++
					opt.Progress(done, n)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Count evaluates pred(i) for i in [0, n) in parallel and returns how
// many returned true — the shape of every acceptance-ratio experiment.
func Count(n int, opt Options, pred func(i int) (bool, error)) (int, error) {
	hits, err := Map(n, opt, func(i int) (bool, error) { return pred(i) })
	if err != nil {
		return 0, err
	}
	c := 0
	for _, h := range hits {
		if h {
			c++
		}
	}
	return c, nil
}
