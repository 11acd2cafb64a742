package spec

import (
	"bytes"
	"errors"
	"testing"

	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
)

// FuzzSpecParse feeds arbitrary bytes to the JSON system decoder and
// asserts the properties the HTTP intake depends on: hostile input
// never panics, every rejection wraps ErrInvalid (so servers answer
// 400, not 500), and every accepted document round-trips through
// Marshal and Parse to a system with the same fingerprint. The seed
// corpus is the paper example and a generated system, each valid and
// with a few near-valid mutations.
func FuzzSpecParse(f *testing.F) {
	generated, err := gen.System(gen.Config{
		Seed: 3, Platforms: 2, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 200, Utilization: 0.5,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, sys := range []*model.System{experiments.PaperSystem(), generated} {
		doc, err := Marshal(sys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(doc[:len(doc)/2]) // truncated
		f.Add(bytes.Replace(doc, []byte(`"platform": 1`), []byte(`"platform": 9`), 1))
		f.Add(bytes.Replace(doc, []byte(`"wcet": `), []byte(`"wcet": -`), 1))
		f.Add(bytes.Replace(doc, []byte(`"period": `), []byte(`"period": "`), 1))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"platforms":[{"alpha":1,"delta":0,"beta":0}],"transactions":[{"period":10,"tasks":[{"wcet":1,"priority":1,"platform":1}]}]}`))
	f.Add([]byte(`{"platforms":[{"alpha":0.5,"delta":1,"beta":1}],"transactions":[{"period":10,"deadline":5,"tasks":[{"wcet":1,"offset":-0,"priority":1,"platform":1}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection does not wrap ErrInvalid: %v", err)
			}
			return
		}
		again, err := Marshal(sys)
		if err != nil {
			t.Fatalf("Marshal of an accepted system: %v", err)
		}
		back, err := Parse(again)
		if err != nil {
			t.Fatalf("re-Parse of the marshalled system: %v\n%s", err, again)
		}
		if back.Fingerprint() != sys.Fingerprint() {
			t.Fatalf("fingerprint changed across Marshal → Parse:\n%s", again)
		}
	})
}
