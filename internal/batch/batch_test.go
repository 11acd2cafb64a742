package batch

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndValues(t *testing.T) {
	out, err := Map(100, Options{Workers: 7}, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(i int) (string, error) { return fmt.Sprintf("v%d", i*3), nil }
	a, err := Map(57, Options{Workers: 1}, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(57, Options{Workers: 16}, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := Map(1000, Options{Workers: 4}, func(i int) (int, error) {
		calls.Add(1)
		if i == 17 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Cancellation: nowhere near all 1000 items should have run.
	if calls.Load() > 500 {
		t.Errorf("%d calls after early error; cancellation ineffective", calls.Load())
	}
}

func TestMapEdgeCases(t *testing.T) {
	out, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("n=0: %v, %v", out, err)
	}
	if _, err := Map(-1, Options{}, func(i int) (int, error) { return 0, nil }); err == nil {
		t.Errorf("negative n accepted")
	}
	// More workers than items.
	out, err = Map(3, Options{Workers: 64}, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 3 {
		t.Errorf("workers>n: %v, %v", out, err)
	}
}

func TestProgressMonotone(t *testing.T) {
	var seen []int
	_, err := Map(50, Options{Workers: 8, Progress: func(done, total int) {
		if total != 50 {
			t.Errorf("total = %d", total)
		}
		seen = append(seen, done)
	}}, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("%d progress calls, want 50", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[i-1]+1 {
			t.Fatalf("progress not monotone: %v", seen)
		}
	}
}

func TestMapWorkersStatePerWorker(t *testing.T) {
	// Every worker gets exactly one state; the state is visible to all
	// of that worker's calls and is never shared between goroutines.
	var states atomic.Int64
	type counter struct{ calls int }
	out, err := MapWorkers(200, Options{Workers: 4},
		func() *counter { states.Add(1); return &counter{} },
		func(s *counter, i int) (int, error) {
			s.calls++
			return i + s.calls*0, nil // result depends only on i
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := states.Load(); got < 1 || got > 4 {
		t.Errorf("%d states created, want 1..4", got)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapWorkersErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapWorkers(100, Options{Workers: 3},
		func() int { return 0 },
		func(_ int, i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestCount(t *testing.T) {
	c, err := Count(100, Options{Workers: 5}, func(i int) (bool, error) {
		return i%3 == 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c != 34 {
		t.Errorf("Count = %d, want 34", c)
	}
	boom := errors.New("boom")
	if _, err := Count(10, Options{}, func(i int) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Errorf("Count error = %v", err)
	}
}
