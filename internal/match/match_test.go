package match

import (
	"strings"
	"testing"
	"testing/quick"

	"schemr/internal/model"
	"schemr/internal/query"
)

// clinicCandidate is a candidate schema resembling the paper's Figure 4.
func clinicCandidate() *model.Schema {
	return &model.Schema{
		Name: "clinic",
		Entities: []*model.Entity{
			{Name: "patient", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"},
				{Name: "height", Type: "FLOAT"},
				{Name: "gender", Type: "VARCHAR(8)"},
			}},
			{Name: "case", Attributes: []*model.Attribute{
				{Name: "id", Type: "INT"},
				{Name: "patient", Type: "INT"},
				{Name: "doctor", Type: "INT"},
				{Name: "diagnosis", Type: "VARCHAR(64)"},
			}},
		},
		ForeignKeys: []model.ForeignKey{
			{FromEntity: "case", FromColumns: []string{"patient"}, ToEntity: "patient", ToColumns: []string{"id"}},
		},
	}
}

func mustQuery(t *testing.T, in query.Input) *query.Query {
	t.Helper()
	q, err := query.Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func cell(m *Matrix, qName, sRef string) float64 {
	for qi, qe := range m.Query {
		if qe.Name != qName && qe.Ref.String() != qName {
			continue
		}
		for si, se := range m.Schema {
			if se.Ref.String() == sRef {
				return m.Scores[qi][si]
			}
		}
	}
	return -99
}

func TestNameMatcherIdentityAndBounds(t *testing.T) {
	nm := NewNameMatcher()
	if got := nm.Similarity("patient", "patient"); got != 1 {
		t.Errorf("identical names = %v", got)
	}
	if got := nm.Similarity("patient", "Patient_"); got != 1 {
		t.Errorf("normalization-equal names = %v", got)
	}
	if got := nm.Similarity("zz", "qx"); got != 0 {
		t.Errorf("disjoint names = %v", got)
	}
}

func TestNameMatcherAbbreviations(t *testing.T) {
	nm := NewNameMatcher()
	// The paper's headline cases: abbreviations, grammatical forms,
	// delimiters.
	cases := []struct{ a, b, unrelated string }{
		{"pt_hght", "patient height", "order total"},
		{"diagnoses", "diagnosis", "dinosaurs"},
		{"patientHeight", "PATIENT-HEIGHT", "patent rights"},
		{"qty", "quantity", "city"},
		{"dob", "date of birth", "job"}, // acronym: weaker but nonzero? dice of d-o-b grams
	}
	for _, c := range cases[:4] {
		sim := nm.Similarity(c.a, c.b)
		bad := nm.Similarity(c.a, c.unrelated)
		if sim <= bad {
			t.Errorf("Similarity(%q,%q)=%v should exceed Similarity(%q,%q)=%v",
				c.a, c.b, sim, c.a, c.unrelated, bad)
		}
		if sim <= 0.2 {
			t.Errorf("Similarity(%q,%q)=%v too low", c.a, c.b, sim)
		}
	}
}

func TestNameMatcherSymmetricAndBounded(t *testing.T) {
	nm := NewNameMatcher()
	f := func(a, b string) bool {
		s1 := nm.Similarity(a, b)
		s2 := nm.Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNameMatcherMatrix(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "diagnosis", DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"})
	m := NewNameMatcher().Match(q, clinicCandidate())
	if got := cell(m, "diagnosis", "case.diagnosis"); got != 1 {
		t.Errorf("diagnosis↔case.diagnosis = %v", got)
	}
	if got := cell(m, "patient.height", "patient.height"); got != 1 {
		t.Errorf("height↔height = %v", got)
	}
	hit := cell(m, "patient.gender", "patient.gender")
	miss := cell(m, "patient.gender", "case.diagnosis")
	if hit <= miss {
		t.Errorf("gender should match gender (%v) better than diagnosis (%v)", hit, miss)
	}
}

func TestContextMatcherKeywordsNotApplicable(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "diagnosis"})
	m := NewContextMatcher().Match(q, clinicCandidate())
	for si := range m.Schema {
		if m.Scores[0][si] != NotApplicable {
			t.Fatalf("keyword row should be NotApplicable, got %v", m.Scores[0][si])
		}
	}
}

func TestContextMatcherNeighborhoods(t *testing.T) {
	// Query fragment: a patient table with the same siblings as the
	// candidate's patient, and a lone "orphan" table with different
	// siblings.
	q := mustQuery(t, query.Input{DDL: `
		CREATE TABLE patient (height FLOAT, gender VARCHAR(8));
		CREATE TABLE orphan (engine VARCHAR(10), wingspan FLOAT);`})
	m := NewContextMatcher().Match(q, clinicCandidate())

	// patient.height's context {patient, gender} matches candidate
	// patient.height's context {patient, id, gender} well...
	same := cell(m, "patient.height", "patient.height")
	// ...but candidate case.diagnosis's context {case, id, patient, doctor}
	// poorly.
	diff := cell(m, "patient.height", "case.diagnosis")
	if same <= diff {
		t.Errorf("context: same neighborhood %v should beat different %v", same, diff)
	}
	// The orphan's attributes share no context with the clinic at all.
	orphan := cell(m, "orphan.engine", "patient.height")
	if orphan >= same {
		t.Errorf("orphan context %v should score below matching context %v", orphan, same)
	}
	// Kind mismatch: entity row vs attribute column is 0.
	if got := cell(m, "patient", "patient.height"); got != 0 {
		t.Errorf("entity↔attribute context = %v, want 0", got)
	}
}

func TestContextMatcherEntityLevel(t *testing.T) {
	q := mustQuery(t, query.Input{DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"})
	m := NewContextMatcher().Match(q, clinicCandidate())
	// Query entity "patient" (attrs height, gender) vs candidate entity
	// "patient" (attrs id, height, gender + neighbor case) should score
	// higher than vs entity "case".
	pp := cell(m, "patient", "patient")
	pc := cell(m, "patient", "case")
	if pp <= pc {
		t.Errorf("entity context: patient↔patient %v should beat patient↔case %v", pp, pc)
	}
}

func TestExactMatcher(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "Patient_Height diagnosis"})
	s := clinicCandidate()
	m := NewExactMatcher().Match(q, s)
	if got := cell(m, "Patient_Height", "patient.height"); got != 0 {
		// "patientheight" != "height": exact matcher is strict on the
		// element name, not entity-qualified.
		t.Errorf("patient_height vs height = %v, want 0", got)
	}
	if got := cell(m, "diagnosis", "case.diagnosis"); got != 1 {
		t.Errorf("diagnosis exact = %v", got)
	}
	if got := cell(m, "diagnosis", "patient.height"); got != 0 {
		t.Errorf("non-match = %v", got)
	}
}

func TestTypeMatcher(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "stray", DDL: "CREATE TABLE t (height FLOAT, name VARCHAR(20), born DATE);"})
	s := clinicCandidate()
	m := NewTypeMatcher().Match(q, s)
	// FLOAT vs FLOAT: same class.
	if got := cell(m, "t.height", "patient.height"); got != 1 {
		t.Errorf("float↔float = %v", got)
	}
	// FLOAT vs INT: both numeric.
	if got := cell(m, "t.height", "patient.id"); got != 0.8 {
		t.Errorf("float↔int = %v", got)
	}
	// FLOAT vs VARCHAR: incompatible.
	if got := cell(m, "t.height", "patient.gender"); got != 0.1 {
		t.Errorf("float↔varchar = %v", got)
	}
	// Keyword row: not applicable.
	if got := cell(m, "stray", "patient.height"); got != NotApplicable {
		t.Errorf("keyword type match = %v", got)
	}
	// Entity columns: not applicable.
	if got := cell(m, "t.height", "patient"); got != NotApplicable {
		t.Errorf("entity type match = %v", got)
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]typeClass{
		"INT": classInteger, "bigint": classInteger, "SERIAL": classInteger,
		"FLOAT": classReal, "DECIMAL(10,2)": classReal, "double precision": classReal,
		"VARCHAR(255)": classText, "string": classText, "TEXT": classText,
		"DATE": classTemporal, "timestamp with time zone": classTemporal,
		"BOOLEAN": classBool, "bytea": classBinary,
		"frobnicator": classUnknown, "": classUnknown,
	}
	for in, want := range cases {
		if got := classify(in); got != want {
			t.Errorf("classify(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestEnsembleCombination(t *testing.T) {
	e := DefaultEnsemble()
	q := mustQuery(t, query.Input{Keywords: "diagnosis", DDL: "CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"})
	s := clinicCandidate()
	m := e.Match(q, s)
	// All cells in [0,1] — combination must fill every cell.
	for qi := range m.Query {
		for si := range m.Schema {
			v := m.Scores[qi][si]
			if v < 0 || v > 1 {
				t.Fatalf("combined cell (%d,%d) = %v", qi, si, v)
			}
		}
	}
	// The combined diagnosis↔case.diagnosis must be the strongest cell in
	// the diagnosis row.
	best := cell(m, "diagnosis", "case.diagnosis")
	for si, se := range m.Schema {
		if se.Ref.String() == "case.diagnosis" {
			continue
		}
		if m.Scores[0][si] > best {
			t.Errorf("diagnosis row: %s (%v) beats case.diagnosis (%v)",
				se.Ref, m.Scores[0][si], best)
		}
	}
}

func TestEnsembleKeywordNotDiluted(t *testing.T) {
	// With only name+context, a keyword's combined score equals the name
	// score (context is NotApplicable and must be excluded, not averaged
	// in as zero).
	nm := NewNameMatcher()
	en, err := NewEnsemble(nm, NewContextMatcher())
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, query.Input{Keywords: "diagnosis"})
	s := clinicCandidate()
	combined := en.Match(q, s)
	nameOnly := nm.Match(q, s)
	for si := range combined.Schema {
		if combined.Scores[0][si] != nameOnly.Scores[0][si] {
			t.Fatalf("keyword cell diluted: combined %v vs name %v",
				combined.Scores[0][si], nameOnly.Scores[0][si])
		}
	}
}

func TestEnsembleWeights(t *testing.T) {
	en, err := NewEnsemble(NewNameMatcher(), NewExactMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if err := en.SetWeights(map[string]float64{"name": 1, "exact": 3}); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, query.Input{Keywords: "gander"}) // near-miss of gender
	s := clinicCandidate()
	m := en.Match(q, s)
	// gander vs gender: name ≈ high, exact = 0. Weighted 1:3 pulls the
	// combined score to 1/4 of the name score.
	nameScore := NewNameMatcher().Match(q, s)
	got := cell(m, "gander", "patient.gender")
	want := cell(nameScore, "gander", "patient.gender") * 0.25
	if !approx(got, want) {
		t.Errorf("weighted combination = %v, want %v", got, want)
	}

	// Error cases.
	if err := en.SetWeights(map[string]float64{"name": 1}); err == nil {
		t.Error("missing weight accepted")
	}
	if err := en.SetWeights(map[string]float64{"name": -1, "exact": 1}); err == nil {
		t.Error("negative weight accepted")
	}
	if err := en.SetWeights(map[string]float64{"name": 0, "exact": 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
}

func TestEnsembleConstruction(t *testing.T) {
	if _, err := NewEnsemble(); err == nil {
		t.Error("empty ensemble accepted")
	}
	if _, err := NewEnsemble(NewNameMatcher(), NewNameMatcher()); err == nil {
		t.Error("duplicate matcher accepted")
	}
	names := DefaultEnsemble().MatcherNames()
	want := []string{"name", "context"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("default ensemble = %v", names)
	}
	names = ExtendedEnsemble().MatcherNames()
	want = []string{"name", "context", "exact", "type"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("extended ensemble = %v", names)
	}
}

func TestElementBest(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "diagnosis height"})
	s := clinicCandidate()
	m := DefaultEnsemble().Match(q, s)
	scores, argmax := m.ElementBest()
	for si, se := range m.Schema {
		if se.Ref.String() == "case.diagnosis" {
			if argmax[si] != 0 {
				t.Errorf("case.diagnosis best query element = %d, want 0 (diagnosis)", argmax[si])
			}
			if scores[si] < 0.5 {
				t.Errorf("case.diagnosis best score = %v", scores[si])
			}
		}
		if se.Ref.String() == "patient.height" && argmax[si] != 1 {
			t.Errorf("patient.height best query element = %d, want 1 (height)", argmax[si])
		}
	}
}

func TestTopPairs(t *testing.T) {
	q := mustQuery(t, query.Input{Keywords: "diagnosis height gender"})
	s := clinicCandidate()
	m := DefaultEnsemble().Match(q, s)
	pairs := m.TopPairs(3)
	if len(pairs) != 3 {
		t.Fatalf("len = %d", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Score < pairs[i].Score {
			t.Error("pairs not sorted")
		}
	}
	if pairs[0].Score < 0.9 {
		t.Errorf("top pair = %+v", pairs[0])
	}
	all := m.TopPairs(0)
	if len(all) <= 3 {
		t.Errorf("unlimited pairs = %d", len(all))
	}
}

func TestMatrixSetPanicsOnBadScore(t *testing.T) {
	m := NewMatrix(nil, nil)
	_ = m
	m2 := NewMatrix([]query.Element{{Name: "x"}}, []model.Element{{Name: "y"}})
	defer func() {
		if recover() == nil {
			t.Error("Set(1.5) did not panic")
		}
	}()
	m2.Set(0, 0, 1.5)
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
