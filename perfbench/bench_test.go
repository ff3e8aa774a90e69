package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSupportedPct(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // too few for any percentile
		{10, 0},    // nothing can have ten samples beyond it
		{20, 50},   // the median of 20 has ten above it
		{100, 90},  // p90 of 100 is the 90th sample; ten lie above
		{200, 95},  // p95 of 200 leaves ten
		{1000, 99}, // p99 of 1000 leaves ten
		{5000, 99}, // capped at the percentile asked for
	} {
		p := supportedPct(tc.n, 99)
		if p != tc.want {
			t.Errorf("supportedPct(%d) = %v, want %v", tc.n, p, tc.want)
		}
		if p > 0 {
			beyond := tc.n - int(math.Ceil(p/100*float64(tc.n)))
			if beyond < minBeyond {
				t.Errorf("n=%d p=%v leaves %d samples beyond", tc.n, p, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted
	}
	s := summarize(xs, 99)
	// Nearest rank on 1..200: p50 is the 100th sample, p95 the 190th,
	// with ten samples above it.
	if s.N != 200 || s.TailPct != 95 || s.P50 != 100 || s.Tail != 190 {
		t.Fatalf("summarize = %+v, want n=200 p50=100 p95=190", s)
	}
	if got := summarize(nil, 99); got.N != 0 || got.Tail != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 10, 50, 51, 52, 60, 200, 1000}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 50}, {90, 200}, {91, 1000}, {100, 1000},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Errorf("percentile of no samples is not 0")
	}
}

// TestOpenLoopTimesFromDue runs a schedule whose jobs take three intervals
// each on one worker: later jobs queue and their latency from the due time
// grows, while the generator keeps to the schedule and reports little lag.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, rate = 6, 200.0 // 5ms apart
	interval := time.Duration(float64(time.Second) / rate)
	var mu sync.Mutex
	lat := make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	lags := openLoop(n, rate, 1, start, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("job %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		time.Sleep(3 * interval)
		mu.Lock()
		lat[i] = time.Since(due)
		mu.Unlock()
	})
	if len(lags) != n {
		t.Fatalf("%d lags, want %d", len(lags), n)
	}
	// Job i finishes at about (i+1)*3 intervals and was due at i
	// intervals, so its latency from due is about (2i+3) intervals.
	for i := 0; i < n; i++ {
		if min := time.Duration(2*i+3) * interval; lat[i] < min {
			t.Errorf("job %d latency %v, want at least %v", i, lat[i], min)
		}
	}
	for i, lag := range lags {
		if lag > 2*interval {
			t.Errorf("job %d: generator lag %v although only the worker was busy", i, lag)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	var mu sync.Mutex
	calls := map[int]int{}
	closedLoop(2, time.Now().Add(20*time.Millisecond), func(w int) {
		mu.Lock()
		calls[w]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if calls[0] == 0 || calls[1] == 0 || len(calls) != 2 {
		t.Fatalf("calls per worker = %v", calls)
	}
}

const promBefore = `# HELP schemr_search_total Searches.
# TYPE schemr_search_total counter
schemr_search_total{tenant=""} 10
schemr_http_requests_total{route="GET /api/schema/{id}/svg",method="GET",class="2xx"} 3
schemr_http_requests_total{route="POST /api/v1/search",method="POST",class="2xx"} 7
schemr_wal_fsync_seconds_bucket{le="0.001"} 4
schemr_wal_fsync_seconds_sum 0.002
schemr_wal_fsync_seconds_count 4
schemr_index_segments 3
`

const promAfter = `schemr_search_total{tenant=""} 25
schemr_http_requests_total{route="GET /api/schema/{id}/svg",method="GET",class="2xx"} 5
schemr_http_requests_total{route="POST /api/v1/search",method="POST",class="2xx"} 17
schemr_wal_fsync_seconds_bucket{le="0.001"} 9
schemr_wal_fsync_seconds_sum 0.012
schemr_wal_fsync_seconds_count 9
schemr_index_segments 2
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["schemr_search_total"] != 15 {
		t.Errorf("search delta %v, want 15", d["schemr_search_total"])
	}
	if d["schemr_http_requests_total"] != 12 {
		t.Errorf("requests delta summed over labels %v, want 12", d["schemr_http_requests_total"])
	}
	if got := d.histMeanMS("schemr_wal_fsync_seconds"); math.Abs(got-2) > 1e-9 {
		t.Errorf("fsync mean %v ms, want 2", got)
	}
	if _, ok := d["schemr_wal_fsync_seconds_bucket"]; ok {
		t.Errorf("buckets should not be summed")
	}
	if d["schemr_index_segments"] != -1 || after["schemr_index_segments"] != 2 {
		t.Errorf("gauge: delta %v, after %v", d["schemr_index_segments"], after["schemr_index_segments"])
	}
	if _, err := parseProm(strings.NewReader("schemr_x{a=\"b\" 1\n")); err == nil {
		t.Errorf("unterminated labels parsed")
	}
	if _, err := parseProm(strings.NewReader("schemr_x notanumber\n")); err == nil {
		t.Errorf("bad value parsed")
	}
}

// TestSelfTimes checks self time against parent links: a request span
// with two children, one of which has a child of its own, and overlapping
// children counted once.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "request", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "parse", Start: 1 * ms, End: 2 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "search", Start: 3 * ms, End: 9 * ms},
		{ID: 4, Parent: 3, Req: 1, Name: "match", Start: 3 * ms, End: 6 * ms},
		{ID: 5, Parent: 3, Req: 1, Name: "match", Start: 5 * ms, End: 8 * ms},
		{ID: 6, Parent: 0, Req: 2, Name: "request", Start: 20 * ms, End: 22 * ms},
		{ID: 7, Parent: 0, Req: 3, Name: "open", Start: 30 * ms, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"request": {Count: 2, Self: 3*ms + 2*ms}, // 10-1-6, then 2
		"parse":   {Count: 1, Self: 1 * ms},
		"search":  {Count: 1, Self: 1 * ms}, // 6 minus the union 3..8
		"match":   {Count: 2, Self: 6 * ms},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("unclosed span counted")
	}
	if m := got["match"].mean(); m != 3*ms {
		t.Errorf("match mean %v, want 3ms", m)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 0, 7)
	child := tr.begin("parse", root, 7)
	tr.end(child)
	tr.add("match", root, 7, time.Now(), time.Millisecond)
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != root || s.Req != 7 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 1); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
	if err := tr.write(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestParseArgs(t *testing.T) {
	base := []string{"--server", "s", "--work", "w"}
	ok := append([]string{"--workload", "design-search", "--seed", "3", "--seconds", "5", "--trace", "1"}, base...)
	o, err := parseArgs(ok, io.Discard)
	if err != nil || o.seed != 3 || o.seconds != 5 || o.trace != 1 {
		t.Fatalf("parseArgs(%q) = %+v, %v", ok, o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "design-search"},
		{"--workload", "design-search", "--seed", "1", "--seconds", "0"},
		{"--workload", "design-search", "--seed", "1", "--seconds", "-5"},
		{"--workload", "design-search", "--seed", "1", "--trace", "2"},
		{"--workload", "design-search", "--seed", "1", "extra"},
	} {
		if _, err := parseArgs(append(bad, base...), io.Discard); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
}

func TestSameHits(t *testing.T) {
	a := []hit{{"s1", 0.5}, {"s2", 0.25}}
	if err := sameHits(a, []hit{{"s1", 0.5}, {"s2", 0.25}}); err != nil {
		t.Fatal(err)
	}
	if sameHits(a, []hit{{"s1", 0.5}, {"s2", 0.2500001}}) == nil {
		t.Error("score difference accepted")
	}
	if sameHits(a, a[:1]) == nil {
		t.Error("length difference accepted")
	}
}

// TestBenchmarkJSONMatches checks that the metrics a run reports are the
// ones BENCHMARK.json declares, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	r := &runResult{log: &opLog{}, traced: &tracedResult{}}
	e2e, _ := split(endToEndMetrics(r), true)
	layers, _ := split(layerMetrics(r), false)
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		reported map[string]metric
	}{{bench.EndToEnd, e2e}, {bench.PerLayer, layers}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("BENCHMARK.json declares %d metrics, a run reports %d", len(c.declared), len(c.reported))
		}
		for _, m := range c.declared {
			if got, ok := c.reported[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: reported %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
			}
		}
	}
	for _, wl := range bench.Workloads {
		if _, ok := specs[wl.Name]; !ok {
			t.Errorf("workload %s is not in the benchmark", wl.Name)
		}
	}
}
