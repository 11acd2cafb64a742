package analysis

import (
	"fmt"
	"math/rand"
	"testing"
)

// productOrder enumerates the cartesian product of the axes'
// candidates recursively, with axis 0 the fastest-varying digit: the
// last axis is the outermost loop.
func productOrder(axes []axis) [][]initiator {
	var out [][]initiator
	vec := make([]initiator, len(axes))
	var rec func(level int)
	rec = func(level int) {
		if level < 0 {
			out = append(out, append([]initiator(nil), vec...))
			return
		}
		for _, c := range axes[level].cands {
			vec[level] = initiator{tr: axes[level].tr, k: c}
			rec(level - 1)
		}
	}
	rec(len(axes) - 1)
	return out
}

// TestCursorEnumeratesProduct checks the mixed-radix scenario cursor
// against an independent recursive enumeration of the product, on
// axes with random radices (1-candidate axes included): cursorReset
// followed by cursorNext visits every vector exactly once, axis 0
// fastest, keeps pick and nu in step, and wraps to the first vector
// after the last.
func TestCursorEnumeratesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		axes := make([]axis, 1+rng.Intn(5))
		count := 1
		for i := range axes {
			radix := 1 + rng.Intn(4)
			axes[i] = axis{tr: 2*i + rng.Intn(2), cands: rng.Perm(8)[:radix]}
			count *= radix
		}
		want := productOrder(axes)
		if len(want) != count {
			t.Fatalf("trial %d: recursive enumeration has %d vectors, want %d", trial, len(want), count)
		}
		seen := make(map[string]bool, count)
		for _, v := range want {
			seen[fmt.Sprint(v)] = true
		}
		if len(seen) != count {
			t.Fatalf("trial %d: recursive enumeration repeats vectors", trial)
		}

		pick := make([]int, len(axes))
		nu := make([]initiator, len(axes))
		cursorReset(axes, pick, nu)
		for step := 0; step <= count; step++ {
			exp := want[step%count]
			for i := range axes {
				if nu[i] != exp[i] {
					t.Fatalf("trial %d step %d: cursor at %v, want %v", trial, step, nu, exp)
				}
				if axes[i].cands[pick[i]] != nu[i].k {
					t.Fatalf("trial %d step %d: pick %v out of step with nu %v", trial, step, pick, nu)
				}
			}
			cursorNext(axes, pick, nu)
		}
	}
}
