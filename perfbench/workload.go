package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"schemr/internal/ddl"
	"schemr/internal/eval"
	"schemr/internal/repository"
	"schemr/internal/text"
	"schemr/internal/webtables"
	"schemr/internal/xsd"
)

// spec describes one workload: the corpus it runs on, the traffic it sends
// and the share of the measured time each phase gets.
type spec struct {
	name string
	// rate is the open-loop session rate in sessions per second, about 40%
	// of the workload's closed-loop capacity on a 2-vCPU host.
	rate float64
	// pool is the number of distinct searches; requests repeat them with a
	// Zipfian skew.
	pool int
	// explore makes searches 1-2 plain keywords; otherwise each search is
	// 3-6 perturbed keywords plus a DDL or XSD fragment of a target schema.
	explore bool
	// viewProb is the chance that a search is followed by a click-through
	// on one of its hits: select, SVG diagram, GraphML.
	viewProb float64
}

// specs are the benchmark's workloads. Each stresses a different layer:
// design-search spends its time in phase 2 (match and cascade),
// explore-browse in phase 1, HTTP encoding, codebook annotation and the
// diagram renderers. Both run on the same corpus and end with a tail of
// WAL-durable imports.
var specs = map[string]spec{
	"design-search":  {name: "design-search", rate: 19, pool: 150, viewProb: 0.5},
	"explore-browse": {name: "explore-browse", rate: 70, pool: 400, explore: true, viewProb: 1},
}

const (
	// corpusSize is the number of schemas in the corpus.
	corpusSize = 20000
	// openShare is the share of each round's time given to the open-loop
	// phase; the closed-loop phase gets the rest.
	openShare = 0.75
	// importCount is how many schemas a run imports after its search
	// phases.
	importCount = 2000
)

// searchReq is one distinct search of a workload's pool, with its ground
// truth: the target schema it was derived from and every schema sharing the
// target's structural fingerprint are relevant.
type searchReq struct {
	Keywords string `json:"q,omitempty"`
	DDL      string `json:"ddl,omitempty"`
	XSD      string `json:"xsd,omitempty"`
	Limit    int    `json:"limit"`

	relevant map[string]bool
}

// session is one user action of the request stream: a search from the
// pool, optionally followed by a view of the hit at viewRank.
type session struct {
	pool     int
	view     bool
	viewRank int
}

// importReq is one schema import.
type importReq struct {
	Name string `json:"name"`
	DDL  string `json:"ddl,omitempty"`
	XSD  string `json:"xsd,omitempty"`
}

// workload is the generated input of one run: the search pool with its
// reference results, and the seeded session and import streams.
type workload struct {
	spec     spec
	seed     int64
	pool     []searchReq
	refs     [][]hit
	sessions *sessionStream
	imports  []importReq
}

const searchLimit = 10

// poolSeed fixes each workload's pool of distinct searches and how popular
// each is. The pool is the population of queries users send; the run's
// seed draws the order they arrive in, the click-throughs and the imports.
// Keeping the pool fixed keeps the cost mix of a run, and the
// ranking-quality figures, from depending on which queries a seed drew.
const poolSeed = 7

// newWorkload generates the session and import streams of a run from its
// seed over a pool.
func newWorkload(sp spec, seed int64, pool []searchReq, refs [][]hit) *workload {
	r := rand.New(rand.NewSource(seed))
	return &workload{
		spec: sp, seed: seed, pool: pool, refs: refs,
		sessions: newSessionStream(r.Int63(), len(pool), sp.viewProb),
		imports:  importPayloads(r.Int63(), 256),
	}
}

// generatePool derives a workload's pool of distinct searches from the
// corpus.
func generatePool(sp spec, repo *repository.Repository) ([]searchReq, error) {
	if sp.explore {
		return explorePool(poolSeed, repo, sp.pool)
	}
	return designPool(poolSeed, repo, sp.pool)
}

// fingerprintGroups maps each schema's structural fingerprint to the IDs
// sharing it: the relevance ground truth eval.GenerateWorkload uses.
func fingerprintGroups(repo *repository.Repository) map[string][]string {
	groups := map[string][]string{}
	for _, s := range repo.All() {
		fp := s.Fingerprint()
		groups[fp] = append(groups[fp], s.ID)
	}
	return groups
}

// designPool derives query-by-example searches: perturbed keywords plus a
// schema fragment of the target, rendered as DDL or XSD at random.
func designPool(seed int64, repo *repository.Repository, n int) ([]searchReq, error) {
	cases, err := eval.GenerateWorkload(repo, eval.WorkloadOptions{N: n, Seed: seed, FragmentProb: 1})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed + 1))
	pool := make([]searchReq, 0, n)
	for _, c := range cases {
		req := searchReq{
			Keywords: strings.Join(c.Query.Keywords, ", "),
			Limit:    searchLimit,
			relevant: c.Relevant,
		}
		for _, frag := range c.Query.Fragments {
			if r.Intn(2) == 0 {
				req.DDL = ddl.Print(frag)
			} else {
				req.XSD = xsd.Print(frag)
			}
		}
		pool = append(pool, req)
	}
	return pool, nil
}

// explorePool derives browse searches: one or two words taken from the
// element names of a target schema.
func explorePool(seed int64, repo *repository.Repository, n int) ([]searchReq, error) {
	groups := fingerprintGroups(repo)
	var targets []string
	for _, s := range repo.All() {
		if s.NumElements() >= 4 {
			targets = append(targets, s.ID)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("workload: corpus has no schema with 4 elements")
	}
	r := rand.New(rand.NewSource(seed))
	pool := make([]searchReq, 0, n)
	for len(pool) < n {
		s := repo.Get(targets[r.Intn(len(targets))])
		els := s.Elements()
		var words []string
		for _, i := range r.Perm(len(els))[:1+r.Intn(2)] {
			if toks := text.Tokenize(els[i].Name); len(toks) > 0 {
				words = append(words, toks[r.Intn(len(toks))])
			}
		}
		if len(words) == 0 {
			continue
		}
		rel := map[string]bool{}
		for _, id := range groups[s.Fingerprint()] {
			rel[id] = true
		}
		pool = append(pool, searchReq{
			Keywords: strings.Join(words, " "), Limit: searchLimit,
			relevant: rel,
		})
	}
	return pool, nil
}

// importPayloads renders n distinct schemas for import, alternating DDL
// (relational reference schemas) and XSD (hierarchical ones). Imports
// beyond n reuse a payload under a new name.
func importPayloads(seed int64, n int) []importReq {
	rel := webtables.GenerateRelational(seed, n/2)
	hier := webtables.GenerateHierarchical(seed+1, n-n/2)
	out := make([]importReq, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			out = append(out, importReq{DDL: ddl.Print(rel[i/2])})
		} else {
			out = append(out, importReq{XSD: xsd.Print(hier[i/2])})
		}
	}
	return out
}

// importAt returns the i-th import of the stream.
func (w *workload) importAt(i int) importReq {
	req := w.imports[i%len(w.imports)]
	req.Name = fmt.Sprintf("perfbench import %d-%d", w.seed, i)
	return req
}

// sessionStream yields the workload's sessions in a fixed order: the n-th
// session depends only on the seed and n, however the phases consume them.
// It is safe for concurrent use.
type sessionStream struct {
	mu       sync.Mutex
	next     int // the position take hands out next
	r        *rand.Rand
	zipf     *rand.Zipf
	viewProb float64
	buf      []session
}

// newSessionStream draws pool entries with a Zipfian skew: P(rank k) is
// proportional to (10+k)^-1.1, so the ten most popular searches get about
// a quarter of the traffic without any one dominating a run's cost.
func newSessionStream(seed int64, pool int, viewProb float64) *sessionStream {
	r := rand.New(rand.NewSource(seed))
	return &sessionStream{
		r:        r,
		zipf:     rand.NewZipf(r, 1.1, 10, uint64(pool-1)),
		viewProb: viewProb,
	}
}

// take returns the next session of the stream.
func (s *sessionStream) take() session {
	s.mu.Lock()
	n := s.next
	s.next++
	s.mu.Unlock()
	return s.at(n)
}

// at returns the n-th session, generating the stream up to it.
func (s *sessionStream) at(n int) session {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) <= n {
		ss := session{pool: int(s.zipf.Uint64())}
		if s.r.Float64() < s.viewProb {
			ss.view = true
			// Users mostly open the first few hits.
			ss.viewRank = int(s.r.ExpFloat64() * 1.5)
		}
		s.buf = append(s.buf, ss)
	}
	return s.buf[n]
}
