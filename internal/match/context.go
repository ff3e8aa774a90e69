package match

import (
	"sync"

	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// ContextMatcher builds, for each element, the set of terms of its
// neighboring elements, and "tries to capture matches when
// neighboring-element sets are similar to each other" [Madhavan et al.;
// Rahm & Bernstein]. An attribute's context is its entity's name and its
// sibling attributes; an entity's context is its attributes and the
// entities adjacent to it via foreign keys or containment. Set similarity
// is a soft Jaccard that credits near-matching terms using the name
// matcher's n-gram similarity.
//
// Bare keywords have no neighborhood, so the matcher reports NotApplicable
// for keyword rows; the ensemble renormalizes weights there.
type ContextMatcher struct {
	nm *NameMatcher
	// minTermSim is the per-term similarity below which two context terms
	// are considered unrelated (soft-Jaccard credit 0).
	minTermSim float64
}

// NewContextMatcher returns a context matcher with the default term
// threshold (0.3).
func NewContextMatcher() *ContextMatcher {
	return &ContextMatcher{nm: NewNameMatcher(), minTermSim: 0.3}
}

// Name implements Matcher.
func (cm *ContextMatcher) Name() string { return "context" }

// Cost implements CostTiered: the most expensive matcher in the ensemble —
// each cell soft-Jaccards two whole neighbor-term sets.
func (cm *ContextMatcher) Cost() int { return CostNeighborhood }

// ScoreBounds implements BoundedMatcher: keyword rows stay NotApplicable
// (bare keywords have no neighborhood), kind-mismatched cells score exactly
// 0, and like-kinded cells are applicable with the trivial bound 1 — the
// structural skeleton of Match and MatchProfiled, declared without any
// soft-Jaccard work. This is what lets the cascade bound a candidate's
// keyword coverage exactly before the most expensive matcher runs.
func (cm *ContextMatcher) ScoreBounds(qa *QueryArtifacts, p *Profile, out []float64) {
	se := p.elems
	for qi, qel := range qa.elems {
		row := out[qi*len(se) : (qi+1)*len(se)]
		if qel.IsKeyword() {
			for si := range row {
				row[si] = NotApplicable
			}
			continue
		}
		for si, sel := range se {
			if qel.Kind != sel.Kind {
				row[si] = 0
			} else {
				row[si] = 1
			}
		}
	}
}

// contextSets returns each element's neighbor-term set.
func contextSets(s *model.Schema) map[model.ElementRef][]string {
	return contextSetsWith(model.NewEntityGraph(s), s)
}

// contextSetsWith is contextSets with a caller-supplied entity graph, so
// profile construction builds the graph once and shares it with tightness.
func contextSetsWith(g *model.EntityGraph, s *model.Schema) map[model.ElementRef][]string {
	out := make(map[model.ElementRef][]string, s.NumElements())
	for _, e := range s.Entities {
		var entCtx []string
		for _, a := range e.Attributes {
			entCtx = append(entCtx, a.Name)
		}
		entCtx = append(entCtx, g.Adjacent(e.Name)...)
		out[model.ElementRef{Entity: e.Name}] = entCtx

		for _, a := range e.Attributes {
			ctx := make([]string, 0, len(e.Attributes))
			ctx = append(ctx, e.Name)
			for _, sib := range e.Attributes {
				if sib.Name != a.Name {
					ctx = append(ctx, sib.Name)
				}
			}
			out[model.ElementRef{Entity: e.Name, Attribute: a.Name}] = ctx
		}
	}
	return out
}

// simCache memoizes name-pair similarities on normalized forms for the
// unprofiled path; context terms repeat heavily across elements of one
// schema.
type simCache struct {
	nm    *NameMatcher
	grams map[string]map[string]int
	sims  map[[2]string]float64
}

func newSimCache(nm *NameMatcher) *simCache {
	return &simCache{
		nm:    nm,
		grams: make(map[string]map[string]int),
		sims:  make(map[[2]string]float64),
	}
}

// gramsOfNormalized is the cache lookup for a term that is already
// normalized — each term is normalized exactly once.
func (c *simCache) gramsOfNormalized(n string) map[string]int {
	if g, ok := c.grams[n]; ok {
		return g
	}
	g := c.nm.gramsNormalized(n)
	c.grams[n] = g
	return g
}

func (c *simCache) sim(a, b string) float64 {
	return c.simNormalized(text.Normalize(a), text.Normalize(b))
}

func (c *simCache) simNormalized(na, nb string) float64 {
	if na > nb {
		na, nb = nb, na
	}
	key := [2]string{na, nb}
	if v, ok := c.sims[key]; ok {
		return v
	}
	v := c.nm.gramSim(c.gramsOfNormalized(na), c.gramsOfNormalized(nb))
	c.sims[key] = v
	return v
}

// softJaccard scores two term sets in [0,1]: for each term the best
// similarity to any term of the other set (zeroed below the threshold),
// summed both ways and divided by the total term count.
func (cm *ContextMatcher) softJaccard(cache *simCache, a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	na := make([]string, len(a))
	for i, t := range a {
		na[i] = text.Normalize(t)
	}
	nb := make([]string, len(b))
	for i, t := range b {
		nb[i] = text.Normalize(t)
	}
	total := 0.0
	for _, ta := range na {
		best := 0.0
		for _, tb := range nb {
			if v := cache.simNormalized(ta, tb); v > best {
				best = v
			}
		}
		if best >= cm.minTermSim {
			total += best
		}
	}
	for _, tb := range nb {
		best := 0.0
		for _, ta := range na {
			if v := cache.simNormalized(ta, tb); v > best {
				best = v
			}
		}
		if best >= cm.minTermSim {
			total += best
		}
	}
	return total / float64(len(na)+len(nb))
}

// termSims memoizes, for one (query, candidate) pair, the similarity of
// every query term × schema term pair in a dense table indexed by the two
// sides' term indexes; a negative cell is not computed yet. It replaces
// the string-keyed sim cache on the profiled path.
type termSims struct {
	q, s []gramVec
	tbl  []float64
}

// simTables recycles termSims tables across candidates.
var simTables sync.Pool

func newTermSims(q, s []gramVec) *termSims {
	n := len(q) * len(s)
	ts, _ := simTables.Get().(*termSims)
	if ts == nil || cap(ts.tbl) < n {
		ts = &termSims{tbl: make([]float64, n)}
	}
	ts.q, ts.s, ts.tbl = q, s, ts.tbl[:n]
	for i := range ts.tbl {
		ts.tbl[i] = -1
	}
	return ts
}

func (ts *termSims) release() {
	ts.q, ts.s = nil, nil
	simTables.Put(ts)
}

func (ts *termSims) sim(qt, st int32) float64 {
	c := &ts.tbl[int(qt)*len(ts.s)+int(st)]
	if *c < 0 {
		*c = gramSimVec(&ts.q[qt], &ts.s[st])
	}
	return *c
}

// softJaccardTerms is softJaccard over term indexes, a on the
// query side and b on the schema side; the arithmetic and its order are
// the same, so the score is bit-identical.
func (cm *ContextMatcher) softJaccardTerms(ts *termSims, a, b []int32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	total := 0.0
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if v := ts.sim(ta, tb); v > best {
				best = v
			}
		}
		if best >= cm.minTermSim {
			total += best
		}
	}
	for _, tb := range b {
		best := 0.0
		for _, ta := range a {
			if v := ts.sim(ta, tb); v > best {
				best = v
			}
		}
		if best >= cm.minTermSim {
			total += best
		}
	}
	return total / float64(len(a)+len(b))
}

// Match implements Matcher.
func (cm *ContextMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := NewMatrix(qe, se)

	sCtx := contextSets(s)
	fragCtx := make([]map[model.ElementRef][]string, len(q.Fragments))
	for i, frag := range q.Fragments {
		fragCtx[i] = contextSets(frag)
	}
	cache := newSimCache(cm.nm)

	for qi, qel := range qe {
		if qel.IsKeyword() {
			continue // row stays NotApplicable
		}
		qctx := fragCtx[qel.Fragment][qel.Ref]
		for si, sel := range se {
			// Contexts only compare like with like: entity neighborhoods
			// against entity neighborhoods, attribute siblings against
			// attribute siblings.
			if qel.Kind != sel.Kind {
				m.Set(qi, si, 0)
				continue
			}
			m.Set(qi, si, cm.softJaccard(cache, qctx, sCtx[sel.Ref]))
		}
	}
	return m
}

// MatchProfiled implements ProfiledMatcher: neighbor-term sets come as
// term indexes and their grams as interned vectors from the query
// artifacts and the schema profile; only the cross-side term-pair
// similarities are computed here, memoized per candidate in a dense table.
func (cm *ContextMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	m := NewMatrix(qa.elems, p.elems)
	ts := newTermSims(qa.vectorsFor(p), p.vecs)
	defer ts.release()
	for qi, qel := range qa.elems {
		if qel.IsKeyword() {
			continue // row stays NotApplicable
		}
		qctx := qa.terms.context(qi)
		for si, sel := range p.elems {
			if qel.Kind != sel.Kind {
				m.Set(qi, si, 0)
				continue
			}
			m.Set(qi, si, cm.softJaccardTerms(ts, qctx, p.terms.context(si)))
		}
	}
	return m
}
