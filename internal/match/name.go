package match

import (
	"schemr/internal/model"
	"schemr/internal/query"
	"schemr/internal/text"
)

// NameMatcher normalizes element names and scores their character n-gram
// overlap: each name is parsed into the set of all possible n-grams from
// length one to the length of the word, and two names score the Dice
// coefficient of their n-gram multisets. Per the paper, this matcher is
// "particularly helpful for properly ranking schemas containing abbreviated
// terms, alternate grammatical forms, and delimiter characters not in the
// original query": normalization removes delimiter/casing noise, and
// sub-word n-grams connect "pt_hght" to "patient height" and "diagnoses"
// to "diagnosis".
type NameMatcher struct{}

// maxGram caps n-gram length to bound cost on pathological names; names
// shorter than the cap still use their full length.
const maxGram = 32

// NewNameMatcher returns a name matcher (n-grams capped at 32 runes).
func NewNameMatcher() *NameMatcher { return &NameMatcher{} }

// Name implements Matcher.
func (nm *NameMatcher) Name() string { return "name" }

// Cost implements CostTiered: each cell walks two n-gram multisets.
func (nm *NameMatcher) Cost() int { return CostNGrams }

// nameStats are the cheap per-name artifacts ScoreBounds derives bounds
// from: a per-character-class histogram of the normalized name, presence
// bitmasks over single classes and adjacent class pairs, the class-pair
// sequence itself, and the total n-gram multiset mass.
type nameStats struct {
	hist  [nameBuckets]int32
	mask  uint64
	bmask [bigramWords]uint64 // presence bitset over adjacent class pairs
	pairs []uint16            // class pair at each adjacent position
	mass  int
}

// nameBuckets: 'a'-'z' → 0..25, '0'-'9' → 26..35, every other rune shares
// bucket 36 — a conservative merge (two different exotic runes count as
// shared) that keeps the bound sound without a full rune histogram.
const nameBuckets = 37

// bigramWords sizes the exact presence bitset over the 37×37 class pairs.
const bigramWords = (nameBuckets*nameBuckets + 63) / 64

func (st *nameStats) hasPair(pc uint16) bool {
	return st.bmask[pc>>6]&(1<<(pc&63)) != 0
}

func charBucket(r rune) int {
	switch {
	case r >= 'a' && r <= 'z':
		return int(r - 'a')
	case r >= '0' && r <= '9':
		return 26 + int(r-'0')
	default:
		return nameBuckets - 1
	}
}

// gramMass returns the total n-gram multiset mass of a name of length l
// under the cap: sum over k=1..min(l,maxGram) of (l-k+1) — exactly
// text.NGrams' output size.
func gramMass(l int) int {
	m := maxGram
	if l < m {
		m = l
	}
	return m*l - m*(m-1)/2
}

// newNameStats builds the bound artifacts of an already-normalized name.
func newNameStats(n string) nameStats {
	var st nameStats
	runes := []rune(n)
	for _, r := range runes {
		st.hist[charBucket(r)]++
	}
	for i, c := range st.hist {
		if c > 0 {
			st.mask |= 1 << i
		}
	}
	if len(runes) > 1 {
		st.pairs = make([]uint16, len(runes)-1)
		for i := 0; i+1 < len(runes); i++ {
			pc := uint16(charBucket(runes[i])*nameBuckets + charBucket(runes[i+1]))
			st.pairs[i] = pc
			st.bmask[pc>>6] |= 1 << (pc & 63)
		}
	}
	st.mass = gramMass(len(runes))
	return st
}

// linkMass bounds, from a's side, how many n-gram occurrences of length
// two or more can appear in the multiset intersection with b: a shared
// k-gram occurs literally in both names, so each of its k−1 adjacent
// character pairs is a class pair present in b. Adjacent positions of a
// whose class pair b also has ("links") therefore delimit every such
// occurrence; a maximal run of l links spans l+1 characters and holds at
// most gramMass(l+1)−(l+1) occurrences of length ≥ 2.
func linkMass(a, b *nameStats) int {
	mass, run := 0, 0
	flush := func() {
		if run > 0 {
			n := run + 1
			mass += gramMass(n) - n
			run = 0
		}
	}
	for _, pc := range a.pairs {
		if b.hasPair(pc) {
			run++
		} else {
			flush()
		}
	}
	flush()
	return mass
}

// boundPair returns an admissible upper bound on gramSim(a, b) from the
// two names' stats alone. The n-gram multiset intersection splits into
// unigrams — at most the smaller side's count of characters whose class
// both names have — and longer grams, bounded by linkMass from each side.
// The bound is tight exactly on the weak tail the cascade wants to abandon
// before the n-gram walk runs: names sharing stray characters but few
// adjacent pairs get a bound near the unigram floor.
func boundPair(a, b *nameStats) float64 {
	if a.mass == 0 || b.mass == 0 {
		return 0 // gramSim of an empty multiset is exactly 0
	}
	shared := a.mask & b.mask
	if shared == 0 {
		return 0 // no shared character classes, so no shared grams at all
	}
	ua, ub := 0, 0
	for i := 0; i < nameBuckets; i++ {
		if shared&(1<<i) != 0 {
			ua += int(a.hist[i])
			ub += int(b.hist[i])
		}
	}
	if ub < ua {
		ua = ub
	}
	long := linkMass(a, b)
	if m := linkMass(b, a); m < long {
		long = m
	}
	inter := ua + long
	minMass := a.mass
	if b.mass < minMass {
		minMass = b.mass
	}
	if minMass < inter {
		inter = minMass
	}
	if inter == 0 {
		return 0
	}
	dice := 2 * float64(inter) / float64(a.mass+b.mass)
	if overlap := 0.8 * float64(inter) / float64(minMass); overlap > dice {
		return overlap
	}
	return dice
}

// ScoreBounds implements BoundedMatcher: every cell is applicable (Match
// scores all pairs), bounded by boundPair on the two names' precomputed
// character statistics — O(cells) integer arithmetic instead of O(cells)
// n-gram merge passes.
func (nm *NameMatcher) ScoreBounds(qa *QueryArtifacts, p *Profile, out []float64) {
	for i := range qa.stats {
		row := out[i*len(p.stats) : (i+1)*len(p.stats)]
		for j := range p.stats {
			row[j] = boundPair(&qa.stats[i], &p.stats[j])
		}
	}
}

// Similarity scores two raw element names in [0,1]: 1 for identical
// normalized forms, 0 for no shared character n-grams. Exported because the
// context matcher and evaluation harness reuse it.
func (nm *NameMatcher) Similarity(a, b string) float64 {
	return nm.gramSim(nm.grams(a), nm.grams(b))
}

func (nm *NameMatcher) grams(s string) map[string]int {
	return nm.gramsNormalized(text.Normalize(s))
}

// gramsNormalized builds the n-gram multiset of an already-normalized name;
// callers that hold normalized forms (the sim cache, profiles) use it to
// avoid normalizing twice.
func (nm *NameMatcher) gramsNormalized(n string) map[string]int {
	return text.NGramSet(n, 1, min(len([]rune(n)), maxGram))
}

// gramSim blends two views of n-gram overlap: the Dice coefficient, which
// rewards morphological and delimiter variants of similar length, and a
// down-weighted overlap coefficient, which rewards containment and so keeps
// abbreviations ("qty" ⊂ "quantity", "pt hght" ⊂ "patient height") from
// being drowned by the expansion's extra grams. Taking the max keeps both
// regimes in [0,1] with identical names still scoring exactly 1.
func (nm *NameMatcher) gramSim(a, b map[string]int) float64 {
	return blendOverlap(text.MultisetOverlap(a, b))
}

// gramSimVec is gramSim over interned gram vectors: one merge pass yields
// the same three integers as the map walk, so the score is bit-identical.
func gramSimVec(a, b *gramVec) float64 {
	return blendOverlap(interOf(a.grams, b.grams), a.mass, b.mass)
}

// blendOverlap is gramSim's arithmetic on the multiset intersection and
// the two multiset sizes; an empty side scores 0.
func blendOverlap(inter, sizeA, sizeB int) float64 {
	if sizeA == 0 || sizeB == 0 {
		return 0
	}
	dice := 2 * float64(inter) / float64(sizeA+sizeB)
	if overlap := 0.8 * (float64(inter) / float64(min(sizeA, sizeB))); overlap > dice {
		return overlap
	}
	return dice
}

// Match implements Matcher: every query element (keywords included — a
// keyword is just a name) is scored against every schema element.
func (nm *NameMatcher) Match(q *query.Query, s *model.Schema) *Matrix {
	qe := q.Elements()
	se := s.Elements()
	m := NewMatrix(qe, se)

	qGrams := make([]map[string]int, len(qe))
	for i, el := range qe {
		qGrams[i] = nm.grams(el.Name)
	}
	// Candidate names repeat rarely, but normalize+grams is the hot loop;
	// compute once per schema element.
	sGrams := make([]map[string]int, len(se))
	for j, el := range se {
		sGrams[j] = nm.grams(el.Name)
	}
	for i := range qe {
		for j := range se {
			m.Set(i, j, nm.gramSim(qGrams[i], sGrams[j]))
		}
	}
	return m
}

// MatchProfiled implements ProfiledMatcher: both sides' interned gram
// vectors are read from the precomputed artifacts, and each cell is one
// merge pass over two sorted id lists instead of a walk over two maps.
func (nm *NameMatcher) MatchProfiled(qa *QueryArtifacts, p *Profile) *Matrix {
	qv := qa.vectorsFor(p)
	m := NewMatrix(qa.elems, p.elems)
	for i := range qa.elems {
		a := &qv[qa.terms.name[i]]
		for j := range p.elems {
			m.Set(i, j, gramSimVec(a, &p.vecs[p.terms.name[j]]))
		}
	}
	return m
}
