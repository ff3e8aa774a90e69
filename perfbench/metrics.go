package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tailWant is the percentile the tail latencies aim for.
const tailWant = 99

// gated are the end-to-end metrics BENCHMARK.json bounds: set-up and search
// cost as server CPU time, memory and ranking quality. The others are
// measured and printed on every run too, but on a shared 2-vCPU host their
// wall-clock figures follow the host's fast and slow periods by more than
// the largest bound a later change could be held to, so they are reported
// without a gate. search_cpu_ms covers every search phase, open loop
// included, so that it takes in enough of the server's garbage collection
// cycles to vary little from run to run.
var gated = map[string]bool{
	"setup_s": true, "search_cpu_ms": true, "rss_mb": true, "mrr": true, "ndcg10": true,
}

// split separates the metrics a run reports as its result from those it
// prints alongside: end-to-end metrics outside gated when gate is set.
func split(all map[string]metric, gate bool) (reported, ungated map[string]metric) {
	reported, ungated = map[string]metric{}, map[string]metric{}
	for name, m := range all {
		if !gate || gated[name] {
			reported[name] = m
		} else {
			ungated[name] = m
		}
	}
	return reported, ungated
}

// endToEndMetrics are what a user of the server sees.
func endToEndMetrics(r *runResult) map[string]metric {
	l := r.log
	search, closed := summarize(l.search, tailWant), summarize(l.closed, tailWant)
	view, imports := summarize(l.view, tailWant), summarize(l.imports, tailWant)
	return map[string]metric{
		"setup_s":       {median(r.setupCPU), "s"},
		"setup_wall_s":  {median(r.setupWall), "s"},
		"search_p50_ms": {search.P50, "ms"},
		"search_p99_ms": {search.Tail, "ms"},
		"search_qps":    {ratio(float64(closed.N), sum(r.closeSecs)), "1/s"},
		"search_cpu_ms": {1000 * ratio(r.searchCPU, float64(search.N+closed.N)), "ms"},
		"view_p50_ms":   {view.P50, "ms"},
		"view_p99_ms":   {view.Tail, "ms"},
		"import_p50_ms": {imports.P50, "ms"},
		"import_p99_ms": {imports.Tail, "ms"},
		"import_qps":    {ratio(float64(imports.N), r.impSecs), "1/s"},
		"import_cpu_ms": {1000 * ratio(r.impCPU, float64(imports.N)), "ms"},
		"rss_mb":        {r.rssMB, "MB"},
		"mrr":           {r.mrr, "score"},
		"ndcg10":        {r.ndcg, "score"},
	}
}

// layerMetrics are the per-layer numbers: deltas of the server's /metrics
// over the measured phases, the search replies' took_ms, and span self
// times of the traced in-process replay.
func layerMetrics(r *runResult) map[string]metric {
	d := r.after.delta(r.before)
	searches := d["schemr_search_total"]
	imports := float64(len(r.log.imports))
	touched, skipped := d["schemr_index_postings_touched_total"], d["schemr_index_postings_skipped_total"]
	hits, misses := d["schemr_profile_cache_hits_total"], d["schemr_profile_cache_misses_total"]
	layer := func(name string, unit time.Duration) float64 {
		return float64(r.traced.layers[name].mean()) / float64(unit)
	}
	lag := summarize(r.log.lagMS, tailWant)
	return map[string]metric{
		"server.self_ms":                    {median(r.log.selfMS), "ms"},
		"server.shed":                       {d["schemr_http_shed_total"], "count"},
		"server.timeouts":                   {d["schemr_http_timeouts_total"], "count"},
		"query.parse_us":                    {layer("query.parse", time.Microsecond), "us"},
		"index.extract_ms":                  {layer("index.extract", time.Millisecond), "ms"},
		"index.postings_touched_per_search": {ratio(touched, searches), "count"},
		"index.postings_skipped_ratio":      {ratio(skipped, touched+skipped), "ratio"},
		"index.blocks_skipped_per_search":   {ratio(d["schemr_index_blocks_skipped_total"], searches), "count"},
		"index.segments":                    {r.after["schemr_index_segments"], "count"},
		"index.merges":                      {d["schemr_index_merges_total"], "count"},
		"index.flush_ms":                    {d.histMeanMS("schemr_index_flush_seconds"), "ms"},
		"match.ms":                          {layer("match", time.Millisecond), "ms"},
		"match.elements_scored_per_search":  {ratio(d["schemr_search_elements_scored_total"], searches), "count"},
		"match.matchers_skipped_per_search": {ratio(d["schemr_search_matchers_skipped_total"], searches), "count"},
		"cascade.abandoned_ratio":           {ratio(d["schemr_search_candidates_abandoned_total"], d["schemr_search_candidates_total"]), "ratio"},
		"tightness.ms":                      {layer("tightness", time.Millisecond), "ms"},
		"core.profile_hit_ratio":            {ratio(hits, hits+misses), "ratio"},
		"core.profile_build_ms":             {r.after.histMeanMS("schemr_profile_build_seconds"), "ms"},
		"core.sync_ms":                      {layer("core.sync", time.Millisecond), "ms"},
		"codebook.annotate_us":              {layer("codebook.annotate", time.Microsecond), "us"},
		"layout.us":                         {layer("layout", time.Microsecond), "us"},
		"svg.render_us":                     {layer("svg.render", time.Microsecond), "us"},
		"graphml.encode_us":                 {layer("graphml.encode", time.Microsecond), "us"},
		"ddl.parse_us":                      {layer("ddl.parse", time.Microsecond), "us"},
		"xsd.parse_us":                      {layer("xsd.parse", time.Microsecond), "us"},
		"repository.put_ms":                 {layer("repository.put", time.Millisecond), "ms"},
		"repository.fsync_ms":               {d.histMeanMS("schemr_wal_fsync_seconds"), "ms"},
		"repository.wal_appends_per_import": {ratio(d["schemr_wal_appends_total"], imports), "count"},
		"repository.wal_bytes_per_import":   {ratio(d["schemr_wal_append_bytes_total"], imports), "bytes"},
		"repository.snapshot_ms":            {layer("repository.snapshot", time.Millisecond), "ms"},
		"loadgen.lag_ms":                    {lag.Tail, "ms"},
		"trace.overhead_pct":                {r.traced.overheadPct, "%"},
	}
}

// runDetail states the sample counts and the percentile each tail figure
// stands for, which the metric names alone do not, and the phase durations.
func runDetail(r *runResult) map[string]any {
	l := r.log
	d := map[string]any{
		"search":             summarize(l.search, tailWant),
		"closed_search":      summarize(l.closed, tailWant),
		"view":               summarize(l.view, tailWant),
		"import":             summarize(l.imports, tailWant),
		"loadgen_lag":        summarize(l.lagMS, tailWant),
		"setup_cpu_s":        r.setupCPU,
		"setup_wall_s":       r.setupWall,
		"round_seconds":      map[string][]float64{"open": r.openSecs, "closed": r.closeSecs},
		"import_seconds":     r.impSecs,
		"server_cpu_seconds": map[string]float64{"search": r.searchCPU, "import": r.impCPU},
		"failed_ratio":       ratio(float64(l.failed), float64(l.attempted)),
	}
	if r.traced != nil {
		d["traced_ops"] = r.traced.ops
	}
	return d
}

// provenance identifies the host, toolchain, code and inputs of a run.
func provenance(o options, r *runResult) map[string]any {
	rev, dirty := gitRev(o.root)
	return map[string]any{
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"git_rev":     rev,
		"git_dirty":   dirty,
		"source_hash": r.srcHash,
		"command":     strings.Join(os.Args, " "),
		"workload":    o.workload,
		"seed":        o.seed,
		"corpus_size": r.corpus.Size,
		"data_hash":   r.corpus.SHA256,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the checkout's commit and whether its tracked files are
// modified, or "unknown" when the checkout is not a git repository.
func gitRev(root string) (string, bool) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", false
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err != nil || len(status) > 0
}

// sourceHash is a SHA-256 over the Go sources and module files of the
// checkout, which identifies the code where git cannot.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		in, err := os.Open(f)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, in)
		in.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
