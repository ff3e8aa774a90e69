package match

import (
	"slices"
	"strings"
	"sync"
)

// gramDict interns name n-grams into dense uint32 ids so the profiled
// name and context matchers compare sorted integer vectors instead of
// hashing gram strings in every cell. It is append-only and process-wide:
// an id, once assigned, names the same gram for the life of the process,
// which is what lets profiles built at different times share one id space.
//
// Only schema profiles insert (NewProfile). Query artifacts look grams up
// but never add them, so the dictionary is bounded by the distinct grams of
// the schemas profiled since the process started, whatever users type.
type gramDict struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

var dict = &gramDict{ids: make(map[string]uint32)}

// GramDictSize returns how many distinct name n-grams the match profiles
// have interned since the process started.
func GramDictSize() int {
	dict.mu.RLock()
	defer dict.mu.RUnlock()
	return len(dict.ids)
}

// gramCount is one distinct gram of a multiset and its multiplicity.
type gramCount struct {
	id, n uint32
}

// gramVec is a name's n-gram multiset in interned form: the distinct
// grams found in the dictionary, ascending by id, and the multiset's total
// mass. The mass always counts every gram, so a query vector whose grams
// are missing from the dictionary keeps its true size — those grams can
// only ever lower the intersection, never the denominators.
type gramVec struct {
	grams []gramCount
	mass  int
}

// interOf returns the multiset intersection size of two vectors in one
// merge pass over their sorted ids.
func interOf(a, b []gramCount) int {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x.id < y.id:
			i++
		case x.id > y.id:
			j++
		default:
			inter += int(min(x.n, y.n))
			i++
			j++
		}
	}
	return inter
}

// missingGram is a gram occurrence a dictionary lookup did not find: its
// position in the flat id list and the gram itself.
type missingGram struct {
	pos  int
	gram string
}

// vectors builds the interned gram vectors of already-normalized terms,
// with n-gram lengths 1..min(len, maxGram) — the same multisets
// NameMatcher.gramsNormalized builds as maps. When insert is set, grams
// missing from the dictionary are added and hi is one past the largest id
// the vectors use (0 when they hold no grams). Otherwise missing grams are
// left out of the vectors but still counted in their mass, and seen is the
// dictionary length every lookup observed: any gram missing now that is
// interned later gets an id at or above seen.
func (d *gramDict) vectors(terms []string, insert bool) (vecs []gramVec, hi, seen uint32) {
	const unknown = ^uint32(0)
	var ids []uint32
	bounds := make([]int, len(terms)+1)
	var missing []missingGram
	var offs []int
	d.mu.RLock()
	for t, n := range terms {
		// Byte offsets of the rune starts, so each gram is a substring of n
		// and looking it up allocates nothing. Normalized terms are valid
		// UTF-8, so these substrings equal text.NGrams' rune slices.
		offs = offs[:0]
		for i := range n {
			offs = append(offs, i)
		}
		offs = append(offs, len(n))
		runes := len(offs) - 1
		for k := 1; k <= min(runes, maxGram); k++ {
			for i := 0; i+k <= runes; i++ {
				g := n[offs[i]:offs[i+k]]
				id, ok := d.ids[g]
				if !ok {
					id = unknown
					missing = append(missing, missingGram{len(ids), g})
				}
				ids = append(ids, id)
			}
		}
		bounds[t+1] = len(ids)
	}
	seen = uint32(len(d.ids))
	d.mu.RUnlock()

	if insert && len(missing) > 0 {
		d.mu.Lock()
		for _, m := range missing {
			id, ok := d.ids[m.gram]
			if !ok {
				id = uint32(len(d.ids))
				d.ids[strings.Clone(m.gram)] = id
			}
			ids[m.pos] = id
		}
		d.mu.Unlock()
	}

	// Sort each term's ids and run-length encode them into one flat,
	// exactly sized backing array the vectors slice into.
	flat := make([]gramCount, 0, len(ids))
	starts := make([]int, len(terms)+1)
	for t := range terms {
		run := ids[bounds[t]:bounds[t+1]]
		slices.Sort(run)
		for _, id := range run {
			if id == unknown {
				break // sorts last; counted in the mass only
			}
			if last := len(flat) - 1; last >= starts[t] && flat[last].id == id {
				flat[last].n++
			} else {
				flat = append(flat, gramCount{id: id, n: 1})
				hi = max(hi, id+1)
			}
		}
		starts[t+1] = len(flat)
	}
	flat = slices.Clone(flat)
	vecs = make([]gramVec, len(terms))
	for t := range terms {
		vecs[t] = gramVec{
			grams: flat[starts[t]:starts[t+1]:starts[t+1]],
			mass:  bounds[t+1] - bounds[t],
		}
	}
	return vecs, hi, seen
}
