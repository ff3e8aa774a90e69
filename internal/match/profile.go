package match

import (
	"sort"
	"sync"
	"sync/atomic"

	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// Profile holds every query-independent artifact the fine-grained phases
// derive from one candidate schema: its element list, normalized names,
// name-bound statistics, coarse type classes, the interned n-gram vectors
// of its distinct terms (element names and context neighbor terms), each
// element's name and context-term indexes into those vectors, and the
// entity graph with the BFS distance map of every anchor. Building one
// costs about as much as a single unprofiled Ensemble.Match +
// tightness.Score against that schema; every subsequent search reuses it,
// which is what makes the engine's profile cache pay off.
//
// A Profile is immutable after construction and safe for concurrent use. It
// is built from a specific *model.Schema value and remembers it (Schema);
// callers cache profiles keyed by schema identity so a replaced schema is
// never scored through a stale profile.
type Profile struct {
	schema *model.Schema
	elems  []model.Element
	stats  []nameStats // name score-bound artifacts, aligned with elems
	class  []typeClass // coarse type classes, aligned with elems

	terms termIndex
	vecs  []gramVec // interned gram vectors, aligned with terms.norm
	hi    uint32    // one past the largest dictionary id in vecs

	graph   *model.EntityGraph
	anchors []string                  // sorted entity names
	dists   map[string]map[string]int // anchor → entity → FK hops
}

// termIndex lists the distinct normalized terms one side of a match uses —
// element names and context neighbor terms — and, per element, the index
// of its name and the indexes of its context terms in order. Matchers
// address gram vectors and memoized term-pair similarities through these
// indexes instead of through maps keyed by strings.
type termIndex struct {
	norm   []string // distinct normalized terms
	name   []int32  // per element: index of its normalized name
	ctx    []int32  // context-term indexes of every element, concatenated
	ctxOff []int32  // element i's context terms are ctx[ctxOff[i]:ctxOff[i+1]]
}

// buildTerms indexes n elements given each one's raw name and raw context
// terms, normalizing every distinct raw term once.
func buildTerms(n int, name func(i int) string, context func(i int) []string) termIndex {
	ti := termIndex{name: make([]int32, n), ctxOff: make([]int32, n+1)}
	byRaw := make(map[string]int32, n)
	byNorm := make(map[string]int32, n)
	term := func(raw string) int32 {
		if i, ok := byRaw[raw]; ok {
			return i
		}
		nt := text.Normalize(raw)
		i, ok := byNorm[nt]
		if !ok {
			i = int32(len(ti.norm))
			byNorm[nt] = i
			ti.norm = append(ti.norm, nt)
		}
		byRaw[raw] = i
		return i
	}
	for i := 0; i < n; i++ {
		ti.name[i] = term(name(i))
	}
	for i := 0; i < n; i++ {
		for _, t := range context(i) {
			ti.ctx = append(ti.ctx, term(t))
		}
		ti.ctxOff[i+1] = int32(len(ti.ctx))
	}
	return ti
}

// nameOf returns element i's normalized name.
func (ti *termIndex) nameOf(i int) string { return ti.norm[ti.name[i]] }

// context returns element i's context-term indexes.
func (ti *termIndex) context(i int) []int32 { return ti.ctx[ti.ctxOff[i]:ti.ctxOff[i+1]] }

// NewProfile precomputes the match profile of a schema, interning the
// n-grams of its terms into the process-wide gram dictionary.
func NewProfile(s *model.Schema) *Profile {
	elems := s.Elements()
	p := &Profile{
		schema: s,
		elems:  elems,
		stats:  make([]nameStats, len(elems)),
		class:  schemaTypeClasses(elems),
		graph:  model.NewEntityGraph(s),
	}
	ctx := contextSetsWith(p.graph, s)
	p.terms = buildTerms(len(elems),
		func(i int) string { return elems[i].Name },
		func(i int) []string { return ctx[elems[i].Ref] })
	for i := range elems {
		p.stats[i] = newNameStats(p.terms.nameOf(i))
	}
	p.vecs, p.hi, _ = dict.vectors(p.terms.norm, true)

	p.anchors = make([]string, 0, len(s.Entities))
	for _, e := range s.Entities {
		p.anchors = append(p.anchors, e.Name)
	}
	sort.Strings(p.anchors)
	p.dists = p.graph.AllDistances()
	return p
}

// Schema returns the exact schema value the profile was built from; caches
// compare it against the current repository value to detect staleness.
func (p *Profile) Schema() *model.Schema { return p.schema }

// Elements returns the cached s.Elements() slice. Callers must not mutate it.
func (p *Profile) Elements() []model.Element { return p.elems }

// Graph returns the cached entity graph.
func (p *Profile) Graph() *model.EntityGraph { return p.graph }

// Anchors returns the schema's entity names in sorted order — the anchor
// scan order of the tightness measurement. Callers must not mutate it.
func (p *Profile) Anchors() []string { return p.anchors }

// AnchorDistances returns the precomputed FK hop distances from the given
// anchor entity (nil for unknown anchors), keyed by entity name with
// unreachable entities absent — the same contract as
// model.EntityGraph.DistancesFrom. Callers must not mutate the map.
func (p *Profile) AnchorDistances(anchor string) map[string]int { return p.dists[anchor] }

// QueryArtifacts holds the query-side computations shared across every
// candidate of one search: elements, normalized names, name-bound
// statistics, type classes, the distinct terms with per-element name and
// context-term indexes, and their gram vectors. Built once per search,
// read-only afterwards apart from the internally synchronized vector
// refresh, and safe for concurrent use by the parallel match workers.
type QueryArtifacts struct {
	query *query.Query
	elems []query.Element
	stats []nameStats
	class []typeClass

	terms termIndex
	mu    sync.Mutex // serializes refreshes of vecs
	vecs  atomic.Pointer[queryVecs]
}

// queryVecs is one resolution of the query's gram vectors against the
// dictionary. Query grams are looked up, never inserted, so a gram no
// schema has been profiled with yet is missing: it is counted in its
// vector's mass but has no id. seen is the dictionary length the lookups
// observed; a profile whose ids all lie below it cannot contain any of the
// missing grams, because a gram interned later gets an id at or above it.
type queryVecs struct {
	vecs    []gramVec
	seen    uint32
	missing bool // some gram was not in the dictionary
}

// NewQueryArtifacts precomputes the query side of the matcher ensemble.
func NewQueryArtifacts(q *query.Query) *QueryArtifacts {
	elems := q.Elements()
	qa := &QueryArtifacts{
		query: q,
		elems: elems,
		stats: make([]nameStats, len(elems)),
		class: queryTypeClasses(q, elems),
	}
	fragCtx := make([]map[model.ElementRef][]string, len(q.Fragments))
	for fi, frag := range q.Fragments {
		fragCtx[fi] = contextSets(frag)
	}
	qa.terms = buildTerms(len(elems),
		func(i int) string { return elems[i].Name },
		func(i int) []string {
			if elems[i].IsKeyword() {
				return nil // bare keywords have no neighborhood
			}
			return fragCtx[elems[i].Fragment][elems[i].Ref]
		})
	for i := range elems {
		qa.stats[i] = newNameStats(qa.terms.nameOf(i))
	}
	qa.vecs.Store(qa.lookup())
	return qa
}

// lookup resolves the query's gram vectors against the dictionary as it
// is now.
func (qa *QueryArtifacts) lookup() *queryVecs {
	vecs, _, seen := dict.vectors(qa.terms.norm, false)
	qv := &queryVecs{vecs: vecs, seen: seen}
	for _, v := range vecs {
		n := 0
		for _, g := range v.grams {
			n += int(g.n)
		}
		if n != v.mass {
			qv.missing = true
			break
		}
	}
	return qv
}

// vectorsFor returns query gram vectors that are exact against p. When a
// missing query gram may have been interned by p — p uses an id at or
// above the watermark the current vectors saw — the vectors are looked up
// again; since p's grams were all interned before p was built, the fresh
// lookup resolves any of them the query shares. Artifacts built after the
// profile, or with every gram already known, never refresh.
func (qa *QueryArtifacts) vectorsFor(p *Profile) []gramVec {
	qv := qa.vecs.Load()
	if !qv.missing || p.hi <= qv.seen {
		return qv.vecs
	}
	qa.mu.Lock()
	defer qa.mu.Unlock()
	if qv = qa.vecs.Load(); qv.missing && p.hi > qv.seen {
		qv = qa.lookup()
		qa.vecs.Store(qv)
	}
	return qv.vecs
}

// Query returns the query the artifacts were built from.
func (qa *QueryArtifacts) Query() *query.Query { return qa.query }

// Elements returns the cached q.Elements() slice. Callers must not mutate it.
func (qa *QueryArtifacts) Elements() []query.Element { return qa.elems }
