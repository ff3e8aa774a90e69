package match

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"schemr/internal/model"
	"schemr/internal/query"
)

// nonces numbers the novel suffixes the kernel oracle appends to names.
var nonces atomic.Uint64

// novel returns a name fragment no schema has been profiled with: the next
// nonce spelled in Yi syllables, a letter block no test corpus uses, so
// its multi-rune grams are missing from the dictionary until a profile
// containing it is built.
func novel() string {
	var b strings.Builder
	b.WriteRune('ꆈ')
	for k := nonces.Add(1); k > 0; k /= 1024 {
		b.WriteRune(rune(0xA000 + k%1024))
	}
	return b.String()
}

// oracleQuery makes qName both a keyword and a fragment entity whose
// attributes are sName and a fixed sibling, so the name matcher sees the
// keyword row and the context matcher sees neighbor sets holding both
// names.
func oracleQuery(qName, sName string) *query.Query {
	return &query.Query{
		Keywords: []string{qName},
		Fragments: []*model.Schema{{Entities: []*model.Entity{{
			Name:       qName,
			Attributes: []*model.Attribute{{Name: sName}, {Name: "id"}},
		}}}},
	}
}

// oracleSchema mirrors oracleQuery from the candidate side.
func oracleSchema(qName, sName string) *model.Schema {
	return &model.Schema{ID: "oracle", Entities: []*model.Entity{{
		Name:       sName,
		Attributes: []*model.Attribute{{Name: qName}, {Name: sName + qName}, {Name: "id"}},
	}}}
}

// checkInterned asserts the interned kernel equals the map-based one bit
// for bit on one name pair, with the query artifacts built before or after
// the candidate's profile.
func checkInterned(t *testing.T, qName, sName string, queryFirst bool) {
	t.Helper()
	nm := NewNameMatcher()
	q, s := oracleQuery(qName, sName), oracleSchema(qName, sName)
	var qa *QueryArtifacts
	var p *Profile
	if queryFirst {
		size := GramDictSize()
		qa = NewQueryArtifacts(q)
		if got := GramDictSize(); got != size {
			t.Fatalf("NewQueryArtifacts grew the dictionary from %d to %d", size, got)
		}
		p = NewProfile(s)
	} else {
		p = NewProfile(s)
		qa = NewQueryArtifacts(q)
	}

	want := nm.gramSim(nm.grams(qName), nm.grams(sName))
	got := nm.MatchProfiled(qa, p).At(0, 0) // keyword row × entity column
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("queryFirst=%v sim(%q, %q): interned %v != map-based %v", queryFirst, qName, sName, got, want)
	}
	for _, en := range []*Ensemble{DefaultEnsemble(), ExtendedEnsemble()} {
		wantM, gotM := en.Match(q, s), en.MatchProfiled(qa, p)
		for i := range wantM.Scores {
			for j, w := range wantM.Scores[i] {
				if g := gotM.Scores[i][j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("queryFirst=%v (%q, %q) cell (%d,%d): profiled %v != unprofiled %v",
						queryFirst, qName, sName, i, j, g, w)
				}
			}
		}
	}
}

// FuzzInternedGramSim is the kernel oracle: for arbitrary name pairs, the
// interned-vector similarity (and the whole profiled ensemble matrix)
// equals the map-based gramSim bit for bit, whichever of the query
// artifacts and the profile is built first. Novel suffixes give the query
// grams the dictionary does not hold yet — alone, and shared with a
// profile built afterwards — so both the missing-gram mass and the
// watermark refresh are exercised. The seed corpus under testdata/fuzz
// covers non-ASCII runes, empty names and names past the 32-gram cap.
func FuzzInternedGramSim(f *testing.F) {
	f.Add("pt_hght", "patient height")
	f.Add("orderQty", "order quantity")
	f.Add("", "patient")
	f.Add("diagnoses", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, queryFirst := range []bool{true, false} {
			checkInterned(t, a, b, queryFirst)
			checkInterned(t, b, a, queryFirst)
			checkInterned(t, a+novel(), b, queryFirst) // grams only the query has
			n := novel()
			checkInterned(t, a+n, b+n, queryFirst) // grams the profile interns later
		}
	})
}

// TestQueryArtifactsRefreshAcrossProfiles pins the watermark rule on one
// query reused across candidates: after a profile interns the query's
// missing grams, later profiles still score exactly, and a profile built
// before the artifacts never forces a refresh.
func TestQueryArtifactsRefreshAcrossProfiles(t *testing.T) {
	nm := NewNameMatcher()
	n := novel()
	old := NewProfile(oracleSchema("patient", "height"))
	qa := NewQueryArtifacts(oracleQuery(n, "height"))
	first := qa.vecs.Load()
	if !first.missing {
		t.Fatal("query with a novel name resolved every gram")
	}
	if qa.vectorsFor(old); qa.vecs.Load() != first {
		t.Fatal("a profile built before the artifacts forced a refresh")
	}
	for _, sName := range []string{"patient" + n, n, "height" + n + n} {
		p := NewProfile(oracleSchema("x", sName))
		want := nm.gramSim(nm.grams(n), nm.grams(sName))
		if got := nm.MatchProfiled(qa, p).At(0, 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sim(%q, %q) = %v, want %v", n, sName, got, want)
		}
	}
	if qa.vecs.Load().missing {
		t.Fatal("query grams still missing after a profile interned all of them")
	}
}
