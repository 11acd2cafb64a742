package httpd

import (
	"encoding/json"
	"errors"
	"testing"

	"hsched/internal/experiments"
	"hsched/internal/spec"
)

// FuzzEditApply feeds arbitrary JSON edit bodies to EditSpec.apply on
// the paper example and asserts the contract the session-scoped
// analyze route relies on: no input panics, the base system is never
// mutated (it is a memoised, shared value), every rejection wraps
// spec.ErrInvalid (a 400, not a 500), and every accepted edit yields a
// system that passes Validate. Bodies that are not JSON for an
// EditSpec are the decoder's concern and are skipped. The seed corpus
// mixes valid edits with near-valid ones (out-of-range and repeated
// indices, dangling platforms, negative parameters).
func FuzzEditApply(f *testing.F) {
	file := paperFile()
	repl := file.Transactions[0]
	repl.Tasks[0].WCET = 1.5
	for _, e := range []*EditSpec{
		{Platforms: []PlatformEdit{{Index: 1, Alpha: 0.9, Delta: 0.4, Beta: 0.3}}},
		{Set: []TransactionSet{{Index: 1, Transaction: repl}}},
		{Remove: []int{3}},
		{Add: []spec.TransactionSpec{file.Transactions[2]}},
		{
			Platforms: []PlatformEdit{{Index: 2, Alpha: 0.5, Delta: 1, Beta: 1}},
			Set:       []TransactionSet{{Index: 1, Transaction: repl}},
			Remove:    []int{3, 2},
			Add:       []spec.TransactionSpec{file.Transactions[1]},
		},
		{Platforms: []PlatformEdit{{Index: 4, Alpha: 1}}},
		{Platforms: []PlatformEdit{{Index: 1, Alpha: -0.5}}},
		{Set: []TransactionSet{{Index: 0}}},
		{Remove: []int{1, 2, 3, 4}},
		{Remove: []int{2, 2}},
		{Add: []spec.TransactionSpec{{Period: 10, Tasks: []spec.TaskSpec{{WCET: 1, Priority: 1, Platform: 9}}}}},
		{Add: []spec.TransactionSpec{{Period: -10, Tasks: []spec.TaskSpec{{WCET: 1, Priority: 1, Platform: 1}}}}},
	} {
		body, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"remove":[-1]}`))

	base := experiments.PaperSystem()
	fp := base.Fingerprint()
	f.Fuzz(func(t *testing.T, body []byte) {
		var e EditSpec
		if json.Unmarshal(body, &e) != nil {
			return
		}
		sys, err := e.apply(base)
		if base.Fingerprint() != fp {
			t.Fatalf("apply mutated the base system (edit %s)", body)
		}
		if err != nil {
			if !errors.Is(err, spec.ErrInvalid) {
				t.Fatalf("rejection does not wrap spec.ErrInvalid: %v", err)
			}
			return
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("accepted edit yields an invalid system: %v (edit %s)", err, body)
		}
	})
}
