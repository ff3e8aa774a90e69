package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"schemr/internal/index"
	"schemr/internal/match"
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/tightness"
)

// cascadeSlack is the admissibility slack of every cascade bound check: a
// candidate is abandoned only when its upper bound is below the top-n
// floor by more than this, so the tiny floating-point error between a
// bound accumulated in cost order and the exact score accumulated in
// ensemble order can never abandon a candidate that belongs in the top n
// (same shape as the DAAT merge's boundSlack in internal/index).
const cascadeSlack = 1e-9

// topK tracks the best k completed final scores of one search behind an
// atomically published floor — the cascade's abandonment threshold, shared
// across the phase-2 worker pool the same way shard.Group's searches share
// an index.TopNThreshold. Offers serialize on a mutex (they are rare: one
// per completed candidate); the floor is read lock-free before every
// expensive matcher, and only ever rises, so a bound check that observes a
// stale floor is merely conservative, never wrong.
type topK struct {
	mu   sync.Mutex
	k    int
	heap []float64     // min-heap of the best k scores offered so far
	bits atomic.Uint64 // Float64bits of the floor; -Inf until the heap fills
}

func newTopK(k int) *topK {
	t := &topK{k: k, heap: make([]float64, 0, k)}
	t.bits.Store(math.Float64bits(math.Inf(-1)))
	return t
}

// Floor returns the current abandonment threshold: the k-th best completed
// final score, or -Inf while fewer than k candidates have completed. It is
// a lower bound on the final ranking's k-th best score, which is what
// makes abandoning strictly-worse candidates exact.
func (t *topK) Floor() float64 { return math.Float64frombits(t.bits.Load()) }

// Offer records one completed final score, raising the floor if the score
// displaces the current k-th best.
func (t *topK) Offer(score float64) {
	t.mu.Lock()
	switch {
	case len(t.heap) < t.k:
		t.heap = append(t.heap, score)
		for i := len(t.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if t.heap[p] <= t.heap[i] {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		if len(t.heap) == t.k {
			t.bits.Store(math.Float64bits(t.heap[0]))
		}
	case score > t.heap[0]:
		t.heap[0] = score
		i := 0
		for {
			l, r, min := 2*i+1, 2*i+2, i
			if l < len(t.heap) && t.heap[l] < t.heap[min] {
				min = l
			}
			if r < len(t.heap) && t.heap[r] < t.heap[min] {
				min = r
			}
			if min == i {
				break
			}
			t.heap[i], t.heap[min] = t.heap[min], t.heap[i]
			i = min
		}
		t.bits.Store(math.Float64bits(t.heap[0]))
	}
	t.mu.Unlock()
}

// matchThreshold returns the effective tightness match threshold — the
// boundary both the matched set and the coverage fraction are computed
// against.
func (e *Engine) matchThreshold() float64 {
	if thr := e.opts.Tightness.MatchThreshold; thr != 0 {
		return thr
	}
	return tightness.DefaultMatchThreshold
}

// popularity returns the popularity multiplier of one schema. The search
// reads it once per candidate, so a selection recorded mid-search can not
// give one candidate's bound, final score and shadow score different
// multipliers.
func (e *Engine) popularity(id string) float64 {
	if e.opts.PopularityBoost <= 0 {
		return 1
	}
	sel := float64(e.repo.Usage(id).Selections)
	return 1 + e.opts.PopularityBoost*sel/(sel+5)
}

// finalScore is the ranking score: tightness × coverage^exp × popularity.
// The cascade's exact-matrix bound, the served score, the shadow score and
// Explain all compute it here, so they share one floating-point operation
// order.
func (e *Engine) finalScore(tight, cov, pop float64) float64 {
	final := tight
	if e.opts.CoverageExponent > 0 {
		final = tight * math.Pow(cov, e.opts.CoverageExponent)
	}
	return final * pop
}

// cascadeBound turns per-column and per-row cell upper bounds into an
// admissible upper bound on the candidate's final ranking score:
//
//   - tightness <= mean over matched elements of their best score
//     <= max over matchable columns (colUB >= threshold) of colUB;
//   - coverage <= fraction of query rows whose rowUB clears the threshold;
//   - final = tightness × coverage^exp × popularity, every factor bounded
//     or exact.
//
// A 0 return means the candidate provably has no matched element, so its
// final score is 0 and it is excluded from the ranking no matter what the
// top-n floor is — an exact skip, not a threshold one. The threshold
// comparisons subtract cascadeSlack so float error in the cell bounds can
// not disqualify a column or row that exactly meets the threshold.
func cascadeBound(colUB, rowUB []float64, thr, covExp, pop float64) float64 {
	tUB := 0.0
	for _, v := range colUB {
		if v >= thr-cascadeSlack && v > tUB {
			tUB = v
		}
	}
	if tUB == 0 {
		return 0
	}
	ub := tUB
	if covExp > 0 {
		covered := 0
		for _, v := range rowUB {
			if v >= thr-cascadeSlack {
				covered++
			}
		}
		ub *= math.Pow(float64(covered)/float64(len(rowUB)), covExp)
	}
	return ub * pop
}

// cascadeRank runs phases 2 and 3 fused under the score-bounded cascade —
// the engine's only phase 2–3 path: candidates are dispatched in
// descending phase-1 order, every worker evaluates matchers cheapest-first
// on the candidate's match profile, and a candidate whose admissible upper
// bound falls below the shared top-limit floor is abandoned — its
// remaining matchers and its tightness pass skipped entirely. The
// surviving results are byte-identical to scoring every candidate with
// Ensemble.Match and tightness.Score: completed scores use the same
// arithmetic (Progressive.Combine merges in ensemble order), and
// abandonment requires strict inferiority beyond cascadeSlack, so ties
// always complete.
//
// With Options.DisableCascade the bound checks are skipped: every
// candidate completes, so TotalRanked is exact and no matcher is skipped.
// Candidates without a matched element are dropped either way (their
// final score is 0); only the cascade counts them as abandoned.
//
// Timing attribution: the fused phase's wall clock is split into
// PhaseMatch and PhaseTightness by summing the in-worker tightness
// scoring time (clamped to the wall clock), so Total() still equals the
// end-to-end latency.
//
// When shadowEns is non-nil, each completed candidate's per-matcher
// matrices (plus tightness inputs) are retained and returned keyed by
// schema ID, so the caller's shadow pass can rescore the served results
// without re-running any matcher. Abandoned candidates never complete and
// so are never retained — which is fine: only served (hence completed)
// results are shadow-scored.
func (e *Engine) cascadeRank(ctx context.Context, q *query.Query, ensemble, shadowEns *match.Ensemble, hits []index.Hit, limit int, stats *SearchStats) ([]Result, map[string]*shadowInput) {
	start := time.Now()
	qa := match.NewQueryArtifacts(q)
	bounded := !e.opts.DisableCascade
	thr := e.matchThreshold()
	top := newTopK(limit)
	out := make([]Result, len(hits))
	done := make([]bool, len(hits))
	var shadowIns []*shadowInput
	if shadowEns != nil {
		shadowIns = make([]*shadowInput, len(hits))
	}
	var elements, matchersSkipped, abandoned, tightNanos atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.opts.Parallelism)
dispatch:
	for i, h := range hits {
		// Cancellation gate: stop dispatching promptly; in-flight
		// candidates drain.
		if ctx.Err() != nil {
			break
		}
		s := e.repo.Get(h.ID)
		if s == nil {
			continue // deleted between index snapshot and now
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(i int, h index.Hit, s *model.Schema) {
			defer wg.Done()
			defer func() { <-sem }()
			pop := e.popularity(s.ID)
			profile := e.profiles.get(s.ID, s)
			prog := ensemble.NewProgressive(qa, profile)
			defer prog.Release()
			colUB := make([]float64, prog.Cols())
			rowUB := make([]float64, prog.Rows())
			for prog.Remaining() > 0 {
				// Bounds are checked BEFORE every Step, including the
				// first: the matchers' declared score bounds alone
				// (ScoreBounds) often disqualify a weak candidate before
				// even the cheapest expensive matcher — the name matcher's
				// n-gram walk — has run.
				if bounded {
					prog.Bounds(colUB, rowUB)
					ub := cascadeBound(colUB, rowUB, thr, e.opts.CoverageExponent, pop)
					if ub == 0 || ub < top.Floor()-cascadeSlack {
						matchersSkipped.Add(int64(prog.Remaining()))
						abandoned.Add(1)
						return
					}
				}
				prog.Step()
			}
			m := prog.Combine()
			elements.Add(int64(len(m.Schema)))

			// Exact-matrix bound before the tightness pass: tightness can
			// not exceed the mean matched best score (penalties are
			// non-negative), and coverage is exact now.
			best, argmax := m.ElementBest()
			sumS, matched := 0.0, 0
			for si := range m.Schema {
				if argmax[si] >= 0 && best[si] >= thr {
					matched++
					sumS += best[si]
				}
			}
			if matched == 0 {
				// No matched element means tightness 0 and a final score
				// of 0: the candidate never ranks.
				if bounded {
					abandoned.Add(1)
				}
				return
			}
			cov := e.coverage(m)
			if bounded && e.finalScore(sumS/float64(matched), cov, pop) < top.Floor()-cascadeSlack {
				abandoned.Add(1)
				return // tightness pass skipped
			}

			tstart := time.Now()
			t := tightness.ScoreProfiled(profile, m, e.opts.Tightness)
			tightNanos.Add(int64(time.Since(tstart)))
			final := e.finalScore(t.Score, cov, pop)
			if final <= 0 {
				return
			}
			out[i] = Result{
				ID:          s.ID,
				Name:        s.Name,
				Description: s.Description,
				Score:       final,
				Tightness:   t.Score,
				Coverage:    cov,
				Coarse:      h.Score,
				Anchor:      t.Anchor,
				Matched:     t.Matched,
				Entities:    s.NumEntities(),
				Attributes:  s.NumAttributes(),
			}
			done[i] = true
			if shadowIns != nil {
				qe, se := prog.Elements()
				shadowIns[i] = &shadowInput{
					mats:    prog.Matrices(),
					qe:      qe,
					se:      se,
					profile: profile,
					pop:     pop,
				}
			}
			top.Offer(final)
		}(i, h, s)
	}
	wg.Wait()

	stats.ElementsScored = int(elements.Load())
	stats.MatchersSkipped = int(matchersSkipped.Load())
	stats.CandidatesAbandoned = int(abandoned.Load())
	wall := time.Since(start)
	tight := time.Duration(tightNanos.Load())
	if tight > wall {
		tight = wall
	}
	stats.PhaseTightness = tight
	stats.PhaseMatch = wall - tight

	results := make([]Result, 0, len(hits))
	var sins map[string]*shadowInput
	if shadowIns != nil {
		sins = make(map[string]*shadowInput)
	}
	for i := range out {
		if done[i] {
			results = append(results, out[i])
			if shadowIns != nil && shadowIns[i] != nil {
				sins[out[i].ID] = shadowIns[i]
			}
		}
	}
	return results, sins
}
