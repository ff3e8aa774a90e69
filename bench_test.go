// Benchmarks, one family per experiment row in DESIGN.md §4. Run with
//
//	go test -bench=. -benchmem
//
// The figures these correspond to are regenerated with full reports by
// cmd/schemr-experiments; the benches here measure the hot paths behind
// them.
package schemr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"schemr/internal/codebook"
	"schemr/internal/core"
	"schemr/internal/eval"
	"schemr/internal/graphml"
	"schemr/internal/index"
	"schemr/internal/layout"
	"schemr/internal/learn"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/shard"
	"schemr/internal/summary"
	"schemr/internal/svg"
	"schemr/internal/tightness"
	"schemr/internal/webtables"
)

// benchRepo builds a deterministic mixed corpus of about n schemas.
// Cached per size across benchmarks in one run.
var benchRepos = map[int]*repository.Repository{}

func benchRepo(b *testing.B, n int) *repository.Repository {
	b.Helper()
	if r, ok := benchRepos[n]; ok {
		return r
	}
	repo := repository.New()
	for _, s := range webtables.GenerateRelational(1, n/10+5) {
		if _, err := repo.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range webtables.GenerateHierarchical(2, n/20+3) {
		if _, err := repo.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	seed := int64(3)
	for repo.Len() < n {
		flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{Seed: seed, NumTables: 40 * (n - repo.Len() + 100)}).All())
		seed++
		for _, s := range flat {
			if repo.Len() >= n {
				break
			}
			if _, _, err := repo.PutDedup(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchRepos[n] = repo
	return repo
}

func benchEngine(b *testing.B, n int) *core.Engine {
	b.Helper()
	e := core.NewEngine(benchRepo(b, n), core.Options{})
	if err := e.Reindex(); err != nil {
		b.Fatal(err)
	}
	return e
}

func paperQuery(b *testing.B) *query.Query {
	b.Helper()
	q, err := query.Parse(query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// --- FIG1: query graph construction ---

func BenchmarkFig1QueryGraph(b *testing.B) {
	in := query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(in)
		if err != nil {
			b.Fatal(err)
		}
		_ = q.Flatten()
		_ = q.Elements()
	}
}

// --- FIG2: result visualization (GraphML + layouts + SVG) ---

func BenchmarkFig2Visualize(b *testing.B) {
	repo := benchRepo(b, 500)
	s := repo.All()[0]
	scores := map[string]float64{}
	for i, el := range s.Elements() {
		if i%2 == 0 {
			scores[el.Ref.String()] = 0.8
		}
	}
	b.Run("graphml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := graphml.FromSchema(s, scores)
			if _, err := g.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	g := graphml.FromSchema(s, scores)
	b.Run("tree+svg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := layout.Tree(g, layout.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = svg.Render(l, svg.Options{})
		}
	})
	b.Run("radial+svg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := layout.Radial(g, layout.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = svg.Render(l, svg.Options{})
		}
	})
}

// --- FIG3 / SCALE: the three-phase search across corpus sizes ---

func BenchmarkFig3Search(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		engine := benchEngine(b, n)
		q := paperQuery(b)
		b.Run(fmt.Sprintf("corpus%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3SearchNoObs is BenchmarkFig3Search with instrumentation
// disabled (Options.DisableMetrics) — the uninstrumented baseline the
// observability overhead budget in BENCH_obs_overhead.json compares
// against.
func BenchmarkFig3SearchNoObs(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		engine := core.NewEngine(benchRepo(b, n), core.Options{DisableMetrics: true})
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		q := paperQuery(b)
		b.Run(fmt.Sprintf("corpus%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3SearchUnprofiled is BenchmarkFig3Search with the match-profile
// cache disabled: every candidate of every search builds a fresh profile and
// drops it. Comparing the two pairs (per corpus size) gives the cost of the
// per-candidate profile build. The speedups recorded in
// BENCH_search_profile.json were measured when this configuration still ran
// the map-based matchers.
func BenchmarkFig3SearchUnprofiled(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		engine := core.NewEngine(benchRepo(b, n), core.Options{DisableProfileCache: true})
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		q := paperQuery(b)
		b.Run(fmt.Sprintf("corpus%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCascade compares the phase-2/3 cascade with its bound checks on
// and off (every candidate completes) on the acceptance configuration (CandidateN 50, limit 10, the
// paper query) — the pair behind BENCH_search_profile.json's cascade rows.
// Run under -race in CI as a concurrency smoke for the shared-floor
// protocol.
func BenchmarkCascade(b *testing.B) {
	repo := benchRepo(b, 1000)
	q := paperQuery(b)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		engine := core.NewEngine(repo, core.Options{CandidateN: 50, DisableCascade: mode.disable})
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileBuild measures match.NewProfile — the one-time per-schema
// cost the cache pays to make every later search cheap.
func BenchmarkProfileBuild(b *testing.B) {
	repo := benchRepo(b, 500)
	schemas := repo.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.NewProfile(schemas[i%len(schemas)])
	}
}

func BenchmarkFig3PhaseExtractOnly(b *testing.B) {
	repo := benchRepo(b, 20000)
	idx := index.New()
	for _, s := range repo.All() {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
	}
	terms := paperQuery(b).Flatten()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchTerms(terms, 50, index.SearchOptions{})
	}
}

// --- SCALE: index build throughput and candidate-n sweep ---

func BenchmarkIndexBuild(b *testing.B) {
	repo := benchRepo(b, 5000)
	docs := make([]index.Document, 0, repo.Len())
	for _, s := range repo.All() {
		docs = append(docs, core.SchemaDocument(s))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := index.New()
		for _, d := range docs {
			if err := idx.Add(d); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
}

func BenchmarkSearchCandidateN(b *testing.B) {
	repo := benchRepo(b, 5000)
	for _, n := range []int{10, 25, 50, 100} {
		engine := core.NewEngine(repo, core.Options{CandidateN: n})
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		q := paperQuery(b)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FIG4: tightness-of-fit measurement ---

func BenchmarkFig4Tightness(b *testing.B) {
	repo := benchRepo(b, 500)
	// Pick a multi-entity schema and a matching matrix from the real
	// ensemble, then measure the scoring phase alone.
	var s *model.Schema
	for _, cand := range repo.All() {
		if cand.NumEntities() >= 3 {
			s = cand
			break
		}
	}
	if s == nil {
		b.Fatal("no multi-entity schema")
	}
	q := paperQuery(b)
	m := match.DefaultEnsemble().Match(q, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tightness.Score(s, m, tightness.Options{})
	}
}

// --- CORPUS: web-table generation and filter funnel ---

func BenchmarkCorpusFilter(b *testing.B) {
	tables := webtables.NewGenerator(webtables.Options{Seed: 9, NumTables: 20000}).All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := webtables.Filter(tables)
		if stats.Retained == 0 {
			b.Fatal("nothing retained")
		}
	}
	b.ReportMetric(float64(len(tables)*b.N)/b.Elapsed().Seconds(), "tables/s")
}

func BenchmarkCorpusGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := webtables.NewGenerator(webtables.Options{Seed: int64(i), NumTables: 10000})
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "tables/s")
}

// --- ABBREV: the name matcher's n-gram similarity ---

func BenchmarkNameMatcherSimilarity(b *testing.B) {
	nm := match.NewNameMatcher()
	pairs := [][2]string{
		{"pt_hght", "patient height"},
		{"diagnoses", "primary diagnosis"},
		{"orderQty", "order quantity"},
		{"patient", "patient"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		nm.Similarity(p[0], p[1])
	}
}

// ensembleBenchSchema picks the first bench-corpus schema with at least 20
// elements — a mid-sized candidate for the per-candidate match benches.
func ensembleBenchSchema(b *testing.B) *model.Schema {
	repo := benchRepo(b, 500)
	for _, cand := range repo.All() {
		if cand.NumElements() >= 20 {
			return cand
		}
	}
	return repo.All()[0]
}

func BenchmarkEnsembleMatch(b *testing.B) {
	s := ensembleBenchSchema(b)
	q := paperQuery(b)
	en := match.DefaultEnsemble()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Match(q, s)
	}
}

// BenchmarkEnsembleMatchProfiled is BenchmarkEnsembleMatch on the profiled
// path the engine serves from: the candidate's profile and the query's
// artifacts are built once, outside the timer, so each iteration is the
// per-candidate phase-2 kernel alone.
func BenchmarkEnsembleMatchProfiled(b *testing.B) {
	s := ensembleBenchSchema(b)
	qa := match.NewQueryArtifacts(paperQuery(b))
	p := match.NewProfile(s)
	en := match.DefaultEnsemble()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.MatchProfiled(qa, p)
	}
}

// --- COORD: index scoring with and without the coordination factor ---

func BenchmarkCoordFactor(b *testing.B) {
	repo := benchRepo(b, 5000)
	idx := index.New()
	for _, s := range repo.All() {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
	}
	terms := paperQuery(b).Flatten()
	for _, mode := range []struct {
		name string
		opts index.SearchOptions
	}{
		{"with", index.SearchOptions{}},
		{"without", index.SearchOptions{DisableCoord: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.SearchTerms(terms, 50, mode.opts)
			}
		})
	}
}

// --- WEIGHTS: meta-learner training ---

func BenchmarkMetaLearner(b *testing.B) {
	engine := benchEngine(b, 1000)
	cases, err := eval.GenerateWorkload(engine.Repository(), eval.WorkloadOptions{N: 20, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	var examples []learn.Example
	for _, c := range cases {
		ex, err := engine.CollectExamples(core.History{Query: c.Query, Relevant: c.Target}, 3)
		if err != nil {
			b.Fatal(err)
		}
		examples = append(examples, ex...)
	}
	names := engine.Ensemble().MatcherNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.Train(examples, names, learn.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- RANK: end-to-end pipeline latency per ablation ---

func BenchmarkRankPipelines(b *testing.B) {
	repo := benchRepo(b, 2000)
	rankers, err := eval.Pipelines(repo, 50)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := eval.GenerateWorkload(repo, eval.WorkloadOptions{N: 10, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range eval.PipelineNames {
		rank := rankers[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rank(cases[i%len(cases)])
			}
		})
	}
}

// --- DEPTH: layout with and without the display cap ---

func BenchmarkDepthLayout(b *testing.B) {
	deep := webtables.GenerateHierarchical(7, 1)[0]
	g := graphml.FromSchema(deep, nil)
	b.Run("capped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Tree(g, layout.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Tree(g, layout.Options{MaxDepth: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXT: codebook detection and summarization ---

func BenchmarkCodebookAnnotate(b *testing.B) {
	repo := benchRepo(b, 500)
	schemas := repo.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		codebook.Annotate(schemas[i%len(schemas)])
	}
}

func BenchmarkCodebookProfile(b *testing.B) {
	repo := benchRepo(b, 2000)
	schemas := repo.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codebook.ProfileCorpus(schemas)
	}
}

func BenchmarkSummarize(b *testing.B) {
	repo := benchRepo(b, 500)
	var s *model.Schema
	for _, cand := range repo.All() {
		if s == nil || cand.NumEntities() > s.NumEntities() {
			s = cand
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := summary.Summarize(s, summary.Options{K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ABBREV adjacent: trigram-fallback cost ---

func BenchmarkTrigramFallback(b *testing.B) {
	repo := benchRepo(b, 5000)
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"off", core.Options{}},
		{"on", core.Options{TrigramFallback: true}},
	} {
		engine := core.NewEngine(repo, mode.opts)
		if err := engine.Reindex(); err != nil {
			b.Fatal(err)
		}
		// An abbreviated query that forces the fallback path when enabled.
		q, err := query.Parse(query.Input{Keywords: "gndr hght dx qty"})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FIG5 adjacent: repository change-feed sync ---

func BenchmarkIncrementalSync(b *testing.B) {
	engine := benchEngine(b, 2000)
	repo := engine.Repository()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := repo.Put(&model.Schema{
			Name: fmt.Sprintf("churn %d", i),
			Entities: []*model.Entity{{Name: "t", Attributes: []*model.Attribute{
				{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
			}}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := engine.Sync(); err != nil {
			b.Fatal(err)
		}
		repo.Delete(id)
		if _, _, err := engine.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Phase 1: candidate extraction (DAAT + MaxScore pruning) ---

// BenchmarkPhase1 measures coarse-grain candidate extraction alone on the
// WebTables corpus: the MaxScore-pruned document-at-a-time scorer against
// the same merge with pruning disabled, classic and BM25, across the
// CandidateN values the acceptance experiment uses. Results are recorded
// in BENCH_phase1.json.
func BenchmarkPhase1(b *testing.B) {
	repo := benchRepo(b, 20000)
	idx := index.New()
	for _, s := range repo.All() {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
	}
	terms := paperQuery(b).Flatten()
	for _, mode := range []struct {
		name string
		opts index.SearchOptions
	}{
		{"pruned", index.SearchOptions{}},
		{"exhaustive", index.SearchOptions{DisablePruning: true}},
		{"pruned-bm25", index.SearchOptions{BM25: true}},
		{"exhaustive-bm25", index.SearchOptions{BM25: true, DisablePruning: true}},
	} {
		for _, n := range []int{10, 50, 200} {
			b.Run(fmt.Sprintf("%s-n%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					idx.SearchTerms(terms, n, mode.opts)
				}
			})
		}
	}
}

// benchIndexTopo builds the corpus index with an exact segment topology:
// nSegs immutable segments (0 = everything stays in the mutable head) and
// no background merging, so each variant measures one shape.
func benchIndexTopo(b *testing.B, repo *repository.Repository, nSegs int, compress bool) *index.Index {
	b.Helper()
	opts := []index.Option{index.WithFlushDocs(-1), index.WithMergeFactor(1), index.WithCompression(compress)}
	idx := index.New(opts...)
	all := repo.All()
	per := len(all)
	if nSegs > 0 {
		per = (len(all) + nSegs - 1) / nSegs
	}
	for i, s := range all {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
		if nSegs > 0 && (i+1)%per == 0 {
			idx.Flush()
		}
	}
	if nSegs > 0 {
		idx.Flush()
	}
	return idx
}

// BenchmarkPhase1Segments measures how candidate extraction scales with
// segment count: the same 20k corpus carved into 1, 4 and 16 immutable
// segments, pruned vs exhaustive at CandidateN=10.
func BenchmarkPhase1Segments(b *testing.B) {
	repo := benchRepo(b, 20000)
	terms := paperQuery(b).Flatten()
	for _, segs := range []int{1, 4, 16} {
		idx := benchIndexTopo(b, repo, segs, true)
		for _, mode := range []struct {
			name string
			opts index.SearchOptions
		}{
			{"pruned", index.SearchOptions{}},
			{"exhaustive", index.SearchOptions{DisablePruning: true}},
		} {
			b.Run(fmt.Sprintf("segs%d-%s-n10", segs, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					idx.SearchTerms(terms, 10, mode.opts)
				}
			})
		}
	}
}

// BenchmarkPhase1Compression compares delta+varint-compressed postings
// against the raw []posting layout — search latency at CandidateN=10 plus
// serialized bytes on disk (disk-B metric) for the compression ratio.
func BenchmarkPhase1Compression(b *testing.B) {
	repo := benchRepo(b, 20000)
	terms := paperQuery(b).Flatten()
	for _, compress := range []bool{true, false} {
		name := "compressed"
		if !compress {
			name = "raw"
		}
		idx := benchIndexTopo(b, repo, 1, compress)
		var cw countWriter
		if _, err := idx.WriteTo(&cw); err != nil {
			b.Fatal(err)
		}
		b.Run(name+"-n10", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(cw.n), "disk-B")
			for i := 0; i < b.N; i++ {
				idx.SearchTerms(terms, 10, index.SearchOptions{})
			}
		})
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// BenchmarkPhase1Parallel drives the pruned path from GOMAXPROCS
// goroutines at once — the lock-free snapshot read path should scale with
// cores (go test -cpu 1,2,4,8 to sweep).
func BenchmarkPhase1Parallel(b *testing.B) {
	repo := benchRepo(b, 20000)
	idx := index.New()
	for _, s := range repo.All() {
		if err := idx.Add(core.SchemaDocument(s)); err != nil {
			b.Fatal(err)
		}
	}
	terms := paperQuery(b).Flatten()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			idx.SearchTerms(terms, 10, index.SearchOptions{})
		}
	})
}

// BenchmarkPhase1Skewed is the acceptance experiment: a skewed-vocabulary
// query at CandidateN=10, isolating the pruning strategy on identical
// segmented storage — index-wide MaxScore per-term bounds (the pre-segment
// strategy, SearchOptions.DisableBlockMax) against block-max pruning with
// shallow advances. The corpus has the ordinal-clustered skew block-max
// exists for: a fat "signal" list where the high-scoring documents cluster
// in one ordinal range (a topically coherent ingest batch), so the
// list-wide bound is dominated by a handful of blocks while most blocks
// bound far below the top-10 threshold.
func BenchmarkPhase1Skewed(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	idx := index.New(index.WithFlushDocs(-1))
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		sb.Reset()
		for w := 0; w < 8+rng.Intn(8); w++ {
			sb.WriteString(vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())])
			sb.WriteByte(' ')
		}
		if i%3 == 0 {
			sb.WriteString("signal ") // fat list: ~6700 weak postings
		}
		if i >= 9000 && i < 9260 {
			sb.WriteString(strings.Repeat("signal ", 24)) // the hot batch
		}
		if err := idx.Add(index.Document{ID: fmt.Sprintf("s%05d", i), Fields: []index.Field{
			{Name: index.FieldElements, Text: sb.String()},
		}}); err != nil {
			b.Fatal(err)
		}
	}
	idx.Flush()
	terms := []string{"signal", "w00"}
	for _, v := range []struct {
		name string
		opts index.SearchOptions
	}{
		{"maxscore", index.SearchOptions{DisableBlockMax: true}},
		{"blockmax", index.SearchOptions{}},
	} {
		b.Run(v.name+"-n10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx.SearchTerms(terms, 10, v.opts)
			}
		})
	}
}

// --- Sharded candidate extraction (in-process scatter/gather) ---

// BenchmarkShard measures phase-1 throughput against shard count on the
// 20k-schema WebTables corpus: the paper query at CandidateN=10, serial
// (one search at a time — scatter latency) and parallel (b.RunParallel —
// aggregate searches/sec under concurrent load). Sharded results are
// byte-identical to single-shard by construction (distributed IDF + global
// threshold exchange; see internal/shard), so this measures pure topology
// cost/benefit. Results are recorded in BENCH_shard.json; throughput
// scaling requires real cores, so multi-vCPU runners report the headline
// numbers.
func BenchmarkShard(b *testing.B) {
	repo := benchRepo(b, 20000)
	terms := paperQuery(b).Flatten()
	for _, n := range []int{1, 2, 4} {
		g := shard.New(n, func() *index.Index { return index.New() })
		for _, s := range repo.All() {
			if err := g.Add(core.SchemaDocument(s)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("serial-shards%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.SearchTerms(terms, 10, index.SearchOptions{})
			}
		})
		b.Run(fmt.Sprintf("parallel-shards%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					g.SearchTerms(terms, 10, index.SearchOptions{})
				}
			})
		})
	}
}
