package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"schemr/internal/index"
	"schemr/internal/query"
	"schemr/internal/tightness"
)

// referenceRank is the engine-level oracle for phases 2–3: it takes the
// engine's phase-1 hits and scores every candidate with the map-based
// Ensemble.Match, tightness.Score, coverage and popularity — no match
// profiles, no progressive evaluation, no bounds — then sorts the results
// in the total result order (score desc, coarse desc, ID asc).
func referenceRank(t *testing.T, e *Engine, q *query.Query) []Result {
	t.Helper()
	hits := e.idx.SearchTerms(q.Flatten(), e.opts.CandidateN, e.opts.Index)
	if len(hits) == 0 {
		return nil
	}
	ensemble := e.Ensemble()
	results := []Result{}
	for _, h := range hits {
		s := e.repo.Get(h.ID)
		if s == nil {
			t.Fatalf("phase-1 hit %s missing from the repository", h.ID)
		}
		m := ensemble.Match(q, s)
		ts := tightness.Score(s, m, e.opts.Tightness)
		cov := e.coverage(m)
		final := ts.Score
		if e.opts.CoverageExponent > 0 {
			final = ts.Score * math.Pow(cov, e.opts.CoverageExponent)
		}
		if e.opts.PopularityBoost > 0 {
			sel := float64(e.repo.Usage(s.ID).Selections)
			final *= 1 + e.opts.PopularityBoost*sel/(sel+5)
		}
		if final <= 0 {
			continue
		}
		results = append(results, Result{
			ID:          s.ID,
			Name:        s.Name,
			Description: s.Description,
			Score:       final,
			Tightness:   ts.Score,
			Coverage:    cov,
			Coarse:      h.Score,
			Anchor:      ts.Anchor,
			Matched:     ts.Matched,
			Entities:    s.NumEntities(),
			Attributes:  s.NumAttributes(),
		})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		if results[i].Coarse != results[j].Coarse {
			return results[i].Coarse > results[j].Coarse
		}
		return results[i].ID < results[j].ID
	})
	return results
}

// TestReferenceRankRandomized runs the cascade property test's sweep —
// randomized corpora with recorded usage, index scoring modes, candidate
// pool sizes, result limits and ensemble weights, popularity boost on —
// and requires the default engine, a DisableCascade engine and a
// DisableProfileCache engine to each return exactly referenceRank's
// results. The DisableCascade engine must also rank every candidate the
// reference ranks.
func TestReferenceRankRandomized(t *testing.T) {
	queries := []query.Input{
		{Keywords: "patient height gender diagnosis",
			DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"},
		{Keywords: "order customer price quantity"},
		{Keywords: "species site count observer date"},
		{Keywords: "student course grade term",
			DDL: "CREATE TABLE enrollment (student INT, course INT, grade VARCHAR(2));"},
	}
	learned := map[string]float64{
		"name": 0.9, "context": 1.6, "exact": 0.4, "type": 0.15, "synonym": 0.7,
	}
	modes := []index.SearchOptions{{}, {BM25: true}, {Proximity: true}}
	variants := []struct {
		name string
		edit func(*Options)
	}{
		{"default", func(*Options) {}},
		{"no-cascade", func(o *Options) { o.DisableCascade = true }},
		{"no-profile-cache", func(o *Options) { o.DisableProfileCache = true }},
	}
	for _, seed := range []int64{3, 19} {
		repo := cascadeCorpus(t, seed, 280)
		for mode, iopts := range modes {
			for _, candN := range []int{10, 50, 200} {
				engines := make([]*Engine, len(variants))
				for vi, v := range variants {
					opts := Options{CandidateN: candN, Index: iopts, PopularityBoost: 0.2}
					v.edit(&opts)
					engines[vi] = NewEngine(repo, opts)
					if err := engines[vi].Reindex(); err != nil {
						t.Fatal(err)
					}
				}
				for _, weights := range []map[string]float64{nil, learned} {
					for _, e := range engines {
						e.SetEnsemble(extendedEnsemble(t, weights))
					}
					for li, limit := range []int{1, 10, 50} {
						qi := (int(seed) + candN + li + len(queries)) % len(queries)
						q := mustQ(t, queries[qi])
						want := referenceRank(t, engines[0], q)
						allRanked := len(want)
						if len(want) > limit {
							want = want[:limit]
						}
						for vi, e := range engines {
							label := fmt.Sprintf("%s seed=%d mode=%d candN=%d learned=%v limit=%d q=%d",
								variants[vi].name, seed, mode, candN, weights != nil, limit, qi)
							got, stats, err := e.SearchWithStats(q, limit)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: results differ from the reference\ngot:  %+v\nwant: %+v", label, got, want)
							}
							if e.opts.DisableCascade {
								if stats.TotalRanked != allRanked {
									t.Fatalf("%s: TotalRanked %d, reference ranks %d", label, stats.TotalRanked, allRanked)
								}
								if stats.MatchersSkipped != 0 || stats.CandidatesAbandoned != 0 {
									t.Fatalf("%s: cascade stats %d/%d with the cascade off",
										label, stats.MatchersSkipped, stats.CandidatesAbandoned)
								}
							}
						}
					}
				}
			}
		}
	}
}
