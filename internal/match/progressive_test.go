package match

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"schemr/internal/query"
	"schemr/internal/text"
	"schemr/internal/webtables"
)

// fullEnsemble builds the widest ensemble (all five matchers) so the
// progressive path exercises every cost tier.
func fullEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	e, err := NewEnsemble(NewNameMatcher(), NewContextMatcher(), NewExactMatcher(),
		NewTypeMatcher(), NewSynonymMatcher())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProgressiveCostOrdering(t *testing.T) {
	e := fullEnsemble(t)
	q, err := query.Parse(query.Input{Keywords: "patient height"})
	if err != nil {
		t.Fatal(err)
	}
	s := webtables.GenerateRelational(5, 3)[0]
	pm := e.NewProgressive(NewQueryArtifacts(q), NewProfile(s))
	var costs []int
	for _, i := range pm.order {
		costs = append(costs, matcherCost(e.matchers[i]))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1] {
			t.Fatalf("evaluation order not cost-ascending: %v", costs)
		}
	}
	// exact and type (trivial) must precede name, then synonym, then context.
	if got := e.matchers[pm.order[len(pm.order)-1]].Name(); got != "context" {
		t.Fatalf("most expensive matcher evaluated last = %q, want context", got)
	}
}

// TestProgressiveCombineMatchesMatch: the progressive evaluation's combined
// matrix must be byte-identical to the map-based Ensemble.Match reference,
// with uniform and learned weights.
func TestProgressiveCombineMatchesMatch(t *testing.T) {
	e := fullEnsemble(t)
	q, err := query.Parse(query.Input{
		Keywords: "patient height gender diagnosis",
		DDL:      "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));",
	})
	if err != nil {
		t.Fatal(err)
	}
	schemas := webtables.GenerateRelational(11, 12)
	weightSets := []map[string]float64{
		nil, // uniform
		{"name": 0.7, "context": 1.9, "exact": 0.35, "type": 0.0, "synonym": 1.2},
	}
	for wi, w := range weightSets {
		if w != nil {
			if err := e.SetWeights(w); err != nil {
				t.Fatal(err)
			}
		}
		qa := NewQueryArtifacts(q)
		for si, s := range schemas {
			want := e.Match(q, s)
			pm := e.NewProgressive(qa, NewProfile(s))
			for pm.Remaining() > 0 {
				pm.Step()
			}
			if got := pm.Combine(); !reflect.DeepEqual(got.Scores, want.Scores) {
				t.Fatalf("weights %d schema %d: progressive != Match", wi, si)
			}
		}
	}
}

// TestProgressiveBoundsAdmissible: before the first step and after every
// step, the per-column and per-row upper bounds the cascade reads must
// dominate the final combined matrix of the Ensemble.Match reference
// (within the engine's 1e-9 slack), and must be exact once all matchers
// are evaluated.
func TestProgressiveBoundsAdmissible(t *testing.T) {
	e := fullEnsemble(t)
	rng := rand.New(rand.NewSource(41))
	if err := e.SetWeights(map[string]float64{
		"name": 0.5 + rng.Float64(), "context": 0.5 + rng.Float64(),
		"exact": rng.Float64(), "type": rng.Float64(), "synonym": rng.Float64(),
	}); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(query.Input{
		Keywords: "customer order price quantity",
		DDL:      "CREATE TABLE orders (price DECIMAL, quantity INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 1e-9
	qa := NewQueryArtifacts(q)
	for _, s := range webtables.GenerateRelational(29, 10) {
		want := e.Match(q, s)
		wantCol := make([]float64, len(want.Schema))
		wantRow := make([]float64, len(want.Query))
		for qi := range want.Query {
			for si := range want.Schema {
				v := want.Scores[qi][si]
				if v > wantCol[si] {
					wantCol[si] = v
				}
				if v > wantRow[qi] {
					wantRow[qi] = v
				}
			}
		}
		pm := e.NewProgressive(qa, NewProfile(s))
		colUB := make([]float64, pm.Cols())
		rowUB := make([]float64, pm.Rows())
		for steps := 0; ; steps++ {
			pm.Bounds(colUB, rowUB)
			for si, ub := range colUB {
				if ub+slack < wantCol[si] {
					t.Fatalf("step %d: column %d bound %v below final %v", steps, si, ub, wantCol[si])
				}
			}
			for qi, ub := range rowUB {
				if ub+slack < wantRow[qi] {
					t.Fatalf("step %d: row %d bound %v below final %v", steps, qi, ub, wantRow[qi])
				}
			}
			if pm.Remaining() == 0 {
				break
			}
			pm.Step()
		}
		// All matchers evaluated: the bounds collapse to the exact maxima.
		for si, ub := range colUB {
			if diff := ub - wantCol[si]; diff > slack || diff < -slack {
				t.Fatalf("final column bound %v != exact max %v", ub, wantCol[si])
			}
		}
	}
}

// TestProgressiveBoundsTightenMonotonically: adding matchers never loosens
// a column bound (the unevaluated mass only shrinks).
func TestProgressiveBoundsTightenMonotonically(t *testing.T) {
	e := fullEnsemble(t)
	q, err := query.Parse(query.Input{Keywords: "species name location date"})
	if err != nil {
		t.Fatal(err)
	}
	s := webtables.GenerateRelational(7, 4)[1]
	pm := e.NewProgressive(NewQueryArtifacts(q), NewProfile(s))
	prev := make([]float64, pm.Cols())
	for i := range prev {
		prev[i] = 1
	}
	cur := make([]float64, pm.Cols())
	row := make([]float64, pm.Rows())
	for pm.Remaining() > 0 {
		pm.Step()
		pm.Bounds(cur, row)
		for si := range cur {
			if cur[si] > prev[si]+1e-12 {
				t.Fatalf("column %d bound rose from %v to %v", si, prev[si], cur[si])
			}
		}
		copy(prev, cur)
	}
}

// TestNameBoundSound drives boundPair over random name pairs — including
// delimiter noise, digits, repeats, unicode, and empty strings — and checks
// the declared bound dominates the exact n-gram similarity. This is the
// admissibility contract the cascade's byte-identical guarantee rests on.
func TestNameBoundSound(t *testing.T) {
	nm := NewNameMatcher()
	stats := func(name string) nameStats { return newNameStats(text.Normalize(name)) }
	rng := rand.New(rand.NewSource(97))
	alphabet := []rune("abcdefgstuvxyz0189_ -éß日")
	randName := func() string {
		n := rng.Intn(16)
		runes := make([]rune, n)
		for i := range runes {
			runes[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(runes)
	}
	words := []string{"patient", "pt_hght", "patientHeight", "diagnosis",
		"diagnoses", "order date", "ORDER_DATE", "qty", "quantity", ""}
	names := append([]string{}, words...)
	for i := 0; i < 300; i++ {
		names = append(names, randName())
	}
	checked := 0
	for _, a := range names {
		sa := stats(a)
		for _, b := range names {
			sb := stats(b)
			bound := boundPair(&sa, &sb)
			if got := nm.Similarity(a, b); got > bound+1e-12 {
				t.Fatalf("boundPair(%q, %q) = %v below exact similarity %v", a, b, bound, got)
			}
			checked++
		}
	}
	t.Logf("checked %d pairs", checked)
}

// TestProgressiveReleaseReuse: evaluations drawn from the pool after
// Release — across ensembles with different matcher counts and candidates
// of different shapes — start from clean state, and matrices obtained
// before Release survive the reuse.
func TestProgressiveReleaseReuse(t *testing.T) {
	q, err := query.Parse(query.Input{
		Keywords: "customer order price",
		DDL:      "CREATE TABLE orders (price DECIMAL, quantity INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	qa := NewQueryArtifacts(q)
	ensembles := []*Ensemble{fullEnsemble(t), DefaultEnsemble()}
	var kept []*Matrix
	var wants []*Matrix
	for i, s := range webtables.GenerateRelational(31, 12) {
		e := ensembles[i%len(ensembles)]
		want := e.MatchProfiled(qa, NewProfile(s))
		pm := e.NewProgressive(qa, NewProfile(s))
		for pm.Remaining() > 0 {
			pm.Step()
		}
		colUB, rowUB := make([]float64, pm.Cols()), make([]float64, pm.Rows())
		pm.Bounds(colUB, rowUB)
		got := pm.Combine()
		pm.Release()
		if !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Fatalf("schema %d: reused progressive != MatchProfiled", i)
		}
		for si := range colUB {
			best := 0.0
			for qi := range want.Query {
				best = max(best, want.Scores[qi][si])
			}
			if math.Abs(colUB[si]-best) > 1e-9 {
				t.Fatalf("schema %d column %d: final bound %v != best score %v", i, si, colUB[si], best)
			}
		}
		kept, wants = append(kept, got), append(wants, want)
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i].Scores, wants[i].Scores) {
			t.Fatalf("schema %d: combined matrix changed after later evaluations reused the pool", i)
		}
	}
}
