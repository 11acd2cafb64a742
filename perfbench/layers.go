package main

import (
	"hsched/internal/service"
)

// counters is a snapshot of the layer counters of the system under
// test: service.Stats in process, GET /v1/stats plus the client's own
// request counts over HTTP.
type counters struct {
	remote     bool
	svc        service.Stats
	parseHits  int64 // httpd: JSON bodies answered from the parse memo
	binaryHits int64 // httpd: binary bodies answered from the intern pool
	requests   int64 // httpd: /v1/analyze requests handled
	handlerUS  float64
	shed       int64
	jsonSent   int64 // client: JSON requests written
	binarySent int64 // client: binary requests written
}

// minus returns the counter deltas a-b. Resident is a gauge and keeps
// a's value.
func (a counters) minus(b counters) counters {
	d := a
	d.svc.Queries -= b.svc.Queries
	d.svc.Hits -= b.svc.Hits
	d.svc.Misses -= b.svc.Misses
	d.svc.Evictions -= b.svc.Evictions
	d.svc.InflightDedups -= b.svc.InflightDedups
	d.svc.DeltaHits -= b.svc.DeltaHits
	d.svc.RoundsSaved -= b.svc.RoundsSaved
	d.svc.ScenariosPruned -= b.svc.ScenariosPruned
	d.svc.SubtreesPruned -= b.svc.SubtreesPruned
	d.svc.InternHits -= b.svc.InternHits
	d.svc.InternMisses -= b.svc.InternMisses
	d.parseHits -= b.parseHits
	d.binaryHits -= b.binaryHits
	d.requests -= b.requests
	d.handlerUS -= b.handlerUS
	d.shed -= b.shed
	d.jsonSent -= b.jsonSent
	d.binarySent -= b.binarySent
	return d
}

// layerMetrics derives the per-layer metrics of a traced run from the
// traced phase tp (spans and counter deltas d) and the untraced phase
// up that follows it (runtime and client CPU, which tracing would
// distort, and the throughput the trace overhead is measured against).
// Every workload reports every metric; one whose layer the workload
// does not cross reads 0. Each ratio is listed after its base count.
func layerMetrics(d counters, tp, up phase, tr *tracer) []metric {
	s := d.svc
	ops := float64(tp.ops)
	queries, misses, deltas := float64(s.Queries), float64(s.Misses), float64(s.DeltaHits)
	opSpan := tr.kind(spanOp)
	fp, an, as := tr.kind(spanFingerprint), tr.kind(spanAnalyze), tr.kind(spanAssign)
	searches := 0.0
	if as.n > 0 {
		searches = ops
	}
	internLookups := float64(s.InternHits + s.InternMisses)

	var handlerUS, transportUS, coverage, allocs, gcPauseMS, gcCycles, clientCPU float64
	if d.remote {
		// The handler is the server-side child of each round trip; the
		// rest of the round trip is transport (and pipeline queueing).
		handlerUS = ratio(d.handlerUS, float64(d.requests))
		transportUS = opSpan.meanUS() - handlerUS
		coverage = ratio(handlerUS, opSpan.meanUS())
		clientCPU = ratio(float64(up.cpu.Microseconds()), float64(up.ops))
	} else {
		coverage = ratio(float64(fp.sumNS+an.sumNS+as.sumNS), float64(opSpan.sumNS))
		allocs = ratio(float64(up.mallocs), float64(up.ops))
		gcPauseMS = float64(up.gcPause.Microseconds()) / 1e3
		gcCycles = float64(up.gcCycles)
	}

	return []metric{
		{"trace.ops", ops, "count"},
		{"trace.overhead", ratio(up.opsPerS(), tp.opsPerS()), "ratio"},
		{"trace.coverage", coverage, "ratio"},
		{"model.fingerprint_us", fp.quantileUS(0.5), "us"},
		{"service.analyze_us", an.quantileUS(0.5), "us"},
		{"service.hit_us", tr.rung(rungHit).quantileUS(0.5), "us"},
		{"service.delta_us", tr.rung(rungDelta).quantileUS(0.5), "us"},
		{"service.cold_us", tr.rung(rungCold).quantileUS(0.5), "us"},
		{"service.queries", queries, "count"},
		{"service.hit_ratio", ratio(float64(s.Hits), queries), "ratio"},
		{"service.dedup_ratio", ratio(float64(s.InflightDedups), queries), "ratio"},
		{"service.evictions_per_op", ratio(float64(s.Evictions), ops), "1/op"},
		{"service.misses", misses, "count"},
		{"service.delta_ratio", ratio(deltas, misses), "ratio"},
		{"analysis.scenarios_pruned_per_miss", ratio(float64(s.ScenariosPruned), misses), "1/miss"},
		{"analysis.subtrees_pruned_per_miss", ratio(float64(s.SubtreesPruned), misses), "1/miss"},
		{"service.delta_hits", deltas, "count"},
		{"service.rounds_saved_per_delta", ratio(float64(s.RoundsSaved), deltas), "1/delta"},
		{"service.intern_lookups", internLookups, "count"},
		{"service.intern_hit_ratio", ratio(float64(s.InternHits), internLookups), "ratio"},
		{"sched.searches", searches, "count"},
		{"sched.probes_per_search", ratio(queries, searches), "1/search"},
		{"sched.executed_per_search", ratio(misses, searches), "1/search"},
		{"sched.probe_us", ratio(float64(as.sumNS)/1e3, queries), "us"},
		{"httpd.requests", float64(d.requests), "count"},
		{"httpd.handler_us", handlerUS, "us"},
		{"httpd.transport_us", transportUS, "us"},
		{"httpd.json_requests", float64(d.jsonSent), "count"},
		{"httpd.parse_hit_ratio", ratio(float64(d.parseHits), float64(d.jsonSent)), "ratio"},
		{"httpd.binary_requests", float64(d.binarySent), "count"},
		{"httpd.binary_hit_ratio", ratio(float64(d.binaryHits), float64(d.binarySent)), "ratio"},
		{"httpd.shed", float64(d.shed), "count"},
		{"runtime.allocs_per_op", allocs, "1/op"},
		{"runtime.gc_pause_ms", gcPauseMS, "ms"},
		{"runtime.gc_cycles", gcCycles, "count"},
		{"client.cpu_us_per_op", clientCPU, "us"},
	}
}
