package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
	"weak"

	"hsched/internal/analysis"
)

// spanKind names one layer boundary the benchmark records.
type spanKind uint8

const (
	spanOp          spanKind = iota // one whole op, as its caller sees it (for serve: one HTTP round trip)
	spanFingerprint                 // model.System.Fingerprint
	spanAnalyze                     // service.Service.AnalyzeFingerprinted
	spanAssign                      // sched.Assign
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "model.fingerprint", "service.analyze", "sched.assign"}

// rung is the ladder step that served one service query.
type rung uint8

const (
	rungHit rung = iota
	rungDelta
	rungCold
	numRungs
)

// maxSpansPerClient bounds the raw spans a client keeps for the trace
// file; every span past it still counts in the per-kind aggregates.
const maxSpansPerClient = 1 << 16

// span is one recorded interval. Times are nanoseconds since the
// tracer's base; parent indexes the same client's span buffer (-1 for
// an op span).
type span struct {
	op         int64
	start, end int64
	parent     int32
	kind       spanKind
}

// clientTrace is one client goroutine's private span buffer and
// aggregates; only its owner writes it while a phase runs.
type clientTrace struct {
	t       *tracer
	id      int
	seq     int64
	spans   []span
	dropped int64
	byKind  [numSpanKinds]*reservoir
	byRung  [numRungs]*reservoir
}

// tracer collects the spans of a traced phase and classifies service
// queries by rung. A query is a memo hit when the *Result it returns
// was already handed out before (the memo shares one pointer across
// hits); otherwise it ran an analysis, on the delta rung when the
// result records a delta profile. Pointers are held weakly, so the
// seen-set neither keeps evicted results alive nor confuses a reused
// address with an earlier result.
type tracer struct {
	base    time.Time
	clients []*clientTrace

	mu   sync.Mutex
	seen map[weak.Pointer[analysis.Result]]struct{}
}

func newTracer(clients int) *tracer {
	t := &tracer{base: time.Now(), seen: make(map[weak.Pointer[analysis.Result]]struct{})}
	for c := 0; c < clients; c++ {
		ct := &clientTrace{t: t, id: c, spans: make([]span, 0, 1024)}
		for k := range ct.byKind {
			ct.byKind[k] = newReservoir(uint64(c)<<8|uint64(k)|1, 1024)
		}
		for r := range ct.byRung {
			ct.byRung[r] = newReservoir(uint64(c)<<8|uint64(r)|0x80, 1024)
		}
		t.clients = append(t.clients, ct)
	}
	return t
}

// now reads the trace clock.
func (ct *clientTrace) now() int64 { return int64(time.Since(ct.t.base)) }

// begin opens an op span and returns its buffer index (or -1 once the
// buffer is full); end closes it.
func (ct *clientTrace) begin(start int64) int32 {
	ct.seq++
	if len(ct.spans) >= maxSpansPerClient {
		return -1
	}
	ct.spans = append(ct.spans, span{op: ct.seq, start: start, parent: -1, kind: spanOp})
	return int32(len(ct.spans) - 1)
}

func (ct *clientTrace) end(idx int32, start, end int64) {
	if idx >= 0 {
		ct.spans[idx].end = end
	}
	ct.byKind[spanOp].add(time.Duration(end - start))
}

// child records a completed span inside the op opened at parent.
func (ct *clientTrace) child(parent int32, kind spanKind, start, end int64) {
	ct.byKind[kind].add(time.Duration(end - start))
	if parent < 0 || len(ct.spans) >= maxSpansPerClient {
		ct.dropped++
		return
	}
	ct.spans = append(ct.spans, span{op: ct.seq, start: start, end: end, parent: parent, kind: kind})
}

// classify records one service query's duration under the rung that
// served it.
func (ct *clientTrace) classify(res *analysis.Result, d time.Duration) {
	if res == nil {
		return
	}
	wp := weak.Make(res)
	t := ct.t
	t.mu.Lock()
	_, hit := t.seen[wp]
	if !hit {
		t.seen[wp] = struct{}{}
	}
	t.mu.Unlock()
	switch {
	case hit:
		ct.byRung[rungHit].add(d)
	case res.Delta != nil:
		ct.byRung[rungDelta].add(d)
	default:
		ct.byRung[rungCold].add(d)
	}
}

// note registers results handed out outside the traced phase (the
// warm-up), so a later hit on them classifies as a hit.
func (t *tracer) note(res *analysis.Result) {
	if res == nil {
		return
	}
	t.mu.Lock()
	t.seen[weak.Make(res)] = struct{}{}
	t.mu.Unlock()
}

// kind merges every client's durations of one span kind.
func (t *tracer) kind(k spanKind) merged {
	rs := make([]*reservoir, len(t.clients))
	for i, ct := range t.clients {
		rs[i] = ct.byKind[k]
	}
	return merge(rs...)
}

// rung merges every client's service-query durations of one rung.
func (t *tracer) rung(r rung) merged {
	rs := make([]*reservoir, len(t.clients))
	for i, ct := range t.clients {
		rs[i] = ct.byRung[r]
	}
	return merge(rs...)
}

// dropped counts the spans that aggregated but did not fit the
// per-client buffers.
func (t *tracer) dropped() int64 {
	var n int64
	for _, ct := range t.clients {
		n += ct.dropped
	}
	return n
}

// write stores the kept spans as JSON lines, one span per line. Span
// ids are client<<32|index, so parent links resolve across the file.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for _, ct := range t.clients {
		for i, s := range ct.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(ct.id)<<32 | int64(s.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"client":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				int64(ct.id)<<32|int64(i), parent, s.op, ct.id, spanNames[s.kind], s.start, s.end)
		}
	}
	return w.Flush()
}
