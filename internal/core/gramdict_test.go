package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"schemr/internal/match"
	"schemr/internal/query"
	"schemr/internal/repository"
	"schemr/internal/tenant"
	"schemr/internal/webtables"
)

// randomWord returns a lower-case letter string of 6–13 runes, mostly
// ASCII with an occasional accented letter; its longer grams are novel to
// any corpus.
func randomWord(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyzéøß"
	runes := []rune(letters)
	n := 6 + rng.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(runes[rng.Intn(len(runes))])
	}
	return b.String()
}

// dictCorpus is a small mixed corpus in which "patient" always finds
// candidates.
func dictCorpus(t *testing.T) *repository.Repository {
	t.Helper()
	repo := repository.New()
	schemas := append(webtables.GenerateRelational(21, 6), webtables.GenerateHierarchical(22, 3)...)
	schemas = append(schemas,
		tenantSchema("patients", "patient", "height", "gender"),
		tenantSchema("visit", "patient", "doctor", "diagnosis"))
	for _, s := range schemas {
		if _, err := repo.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// Query grams are looked up, never interned: a thousand searches whose
// keywords and fragment names are random novel strings leave the gram
// dictionary exactly the size the profiled corpus made it.
func TestSearchesNeverGrowGramDictionary(t *testing.T) {
	e := NewEngine(dictCorpus(t), Options{EagerProfiles: true})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}
	before := match.GramDictSize()
	rng := rand.New(rand.NewSource(5))
	matched := 0
	for i := 0; i < 1000; i++ {
		in := query.Input{Keywords: "patient " + randomWord(rng)}
		if i%2 == 1 {
			in.DDL = fmt.Sprintf("CREATE TABLE %s (%s INT, height FLOAT);", randomWord(rng), randomWord(rng))
		}
		q, err := query.Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no search reached phase 2; the test exercises nothing")
	}
	if after := match.GramDictSize(); after != before {
		t.Fatalf("gram dictionary grew from %d to %d over query-only traffic", before, after)
	}
}

// Searches race Sync imports that intern the searches' novel grams: the
// default tenant holds probe schemas named after novel words (profiled
// lazily, so often after the searching query's artifacts were built),
// while another tenant's schemas carrying the same words arrive through
// Sync and get profiled by that tenant's searches. Every default-tenant
// result must equal the same search on a fresh engine over the final
// corpus. Run under -race in CI.
func TestSearchRacingSyncInterning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := make([]string, 16)
	for i := range words {
		words[i] = randomWord(rng)
	}
	repo := dictCorpus(t)
	for _, w := range words {
		if _, err := repo.Put(tenantSchema(w+"_record", w+"_id", "patient", w+"_height")); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]*query.Query, len(words))
	for i, w := range words {
		q, err := query.Parse(query.Input{
			Keywords: w + " patient",
			DDL:      fmt.Sprintf("CREATE TABLE %s_visit (%s_code INT, height FLOAT);", w, w),
		})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	e := NewEngine(repo, Options{})
	if err := e.Reindex(); err != nil {
		t.Fatal(err)
	}

	other := tenant.With(context.Background(), tenant.Info{ID: "other"})
	const searchers = 2
	got := make([][][]Result, searchers)
	var wg sync.WaitGroup
	errs := make(chan error, searchers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, w := range words {
			s := tenantSchema(w+"_visit", w+"_code", "height", w+"_patient")
			if _, err := repo.PutTenant("other", s); err != nil {
				errs <- err
				return
			}
			if _, _, err := e.Sync(); err != nil {
				errs <- err
				return
			}
			if _, err := e.SearchContext(other, queries[i], 10); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < searchers; g++ {
		got[g] = make([][]Result, len(queries))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range queries {
				i := k
				if g%2 == 1 {
					i = len(queries) - 1 - k
				}
				res, err := e.Search(queries[i], 10)
				if err != nil {
					errs <- err
					return
				}
				got[g][i] = res
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fresh := NewEngine(repo, Options{})
	if err := fresh.Reindex(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := fresh.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !strings.HasPrefix(want[0].Name, words[i]) {
			t.Fatalf("query %d: fresh engine does not rank the probe schema first: %+v", i, want)
		}
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Errorf("searcher %d query %d (%s): racing result differs from a fresh engine\n got: %+v\nwant: %+v",
					g, i, words[i], got[g][i], want)
			}
		}
	}
}
