package main

import (
	"context"
	"fmt"
	"time"

	"schemr"
	"schemr/internal/codebook"
	"schemr/internal/ddl"
	"schemr/internal/graphml"
	"schemr/internal/layout"
	"schemr/internal/model"
	"schemr/internal/obs"
	"schemr/internal/query"
	"schemr/internal/svg"
	"schemr/internal/xsd"
)

// engineSpanNames maps the phase spans the engine reports through
// obs.Trace to the layer names the benchmark reports.
var engineSpanNames = map[string]string{
	"search.extract":   "index.extract",
	"search.match":     "match",
	"search.tightness": "tightness",
}

// inproc replays a workload's request stream in process through the
// layers' public functions, on a WAL-attached system opened from a copy of
// the corpus. With a tracer every layer call is a span; with a nil tracer
// the same calls run untraced.
type inproc struct {
	sys *schemr.System
	dir string
	w   *workload
	req int
}

// searchOp is the server's search path: parse, three-phase search, codebook
// annotation of each result row. It returns the hits for a following view.
func (p *inproc) searchOp(tr *tracer, req searchReq) ([]hit, error) {
	p.req++
	root := tr.begin("request.search", 0, p.req)
	defer tr.end(root)
	sp := tr.begin("query.parse", root, p.req)
	q, err := query.Parse(query.Input{Keywords: req.Keywords, DDL: req.DDL, XSD: req.XSD})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var ot *obs.Trace
	if tr != nil {
		ctx, ot = obs.WithTrace(ctx)
	}
	sp = tr.begin("engine.search", root, p.req)
	res, _, err := p.sys.Engine.SearchWithStatsContext(ctx, q, req.Limit)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, s := range ot.Spans() {
		if name, ok := engineSpanNames[s.Name]; ok {
			tr.add(name, sp, p.req, s.Start, s.Duration)
		}
	}
	hits := make([]hit, 0, len(res))
	for _, r := range res {
		if schema := p.sys.Repo.Get(r.ID); schema != nil {
			sp = tr.begin("codebook.annotate", root, p.req)
			codebook.Annotate(schema)
			tr.end(sp)
		}
		hits = append(hits, hit{ID: r.ID, Score: r.Score})
	}
	return hits, nil
}

// viewOp is the server's diagram path: GraphML encoding, tree layout and
// SVG rendering of one schema.
func (p *inproc) viewOp(tr *tracer, schema *model.Schema) error {
	p.req++
	root := tr.begin("request.view", 0, p.req)
	defer tr.end(root)
	sp := tr.begin("graphml.encode", root, p.req)
	g := graphml.FromSchema(schema, nil)
	_, err := g.Marshal()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("layout", root, p.req)
	l, err := layout.Tree(g, layout.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("svg.render", root, p.req)
	svg.Render(l, svg.Options{})
	tr.end(sp)
	return nil
}

// importOp is the server's import path: parse the DDL or XSD, then store
// the schema through the WAL.
func (p *inproc) importOp(tr *tracer, imp importReq) error {
	p.req++
	root := tr.begin("request.import", 0, p.req)
	defer tr.end(root)
	var schema *model.Schema
	var err error
	if imp.DDL != "" {
		sp := tr.begin("ddl.parse", root, p.req)
		schema, err = ddl.Parse(imp.Name, imp.DDL)
		tr.end(sp)
	} else {
		sp := tr.begin("xsd.parse", root, p.req)
		schema, err = xsd.Parse(imp.Name, imp.XSD)
		tr.end(sp)
	}
	if err != nil {
		return err
	}
	sp := tr.begin("repository.put", root, p.req)
	_, err = p.sys.Repo.PutTenant("", schema)
	tr.end(sp)
	return err
}

// syncOp is the server's indexer tick.
func (p *inproc) syncOp(tr *tracer) error {
	sp := tr.begin("core.sync", 0, 0)
	_, _, err := p.sys.Engine.Sync()
	tr.end(sp)
	return err
}

// saveOp is the server's checkpoint.
func (p *inproc) saveOp(tr *tracer) error {
	sp := tr.begin("repository.snapshot", 0, 0)
	err := p.sys.Save(p.dir)
	tr.end(sp)
	return err
}

// tracedResult is what the traced run measured.
type tracedResult struct {
	layers      map[string]layerTime
	overheadPct float64
	ops         int
	spans       *tracer
}

// importsPerSession is how many imports the traced replay makes per
// session: enough for the import, sync and checkpoint layers to show.
const importsPerSession = 0.25

// runTraced replays sessions of the workload's stream for about budget,
// with imports between them, the indexer at the server's cadence and a
// final checkpoint as at shutdown. Each search and view runs once untraced
// and once traced, in alternating order; each import runs once, traced,
// so that the replay stores every schema once and the indexer and
// checkpoint see the stream's corpus. It returns the per-layer self times
// of the traced executions and the median excess of a read's traced time
// over its untraced time.
func (p *inproc) runTraced(budget time.Duration) (*tracedResult, error) {
	tr := newTracer()
	var ratios []float64 // traced over untraced time of each read
	// timed runs op untraced and traced, the order alternating between
	// calls of one kind so that neither side always runs on warm caches.
	calls := map[string]int{}
	timed := func(kind string, op func(t *tracer) error) error {
		calls[kind]++
		var took [2]time.Duration // untraced, traced
		for k := 0; k < 2; k++ {
			withTrace := (k == 0) == (calls[kind]%2 == 0)
			var t *tracer
			if withTrace {
				t = tr
			}
			start := time.Now()
			if err := op(t); err != nil {
				return err
			}
			if withTrace {
				took[1] = time.Since(start)
			} else {
				took[0] = time.Since(start)
			}
		}
		ratios = append(ratios, took[1].Seconds()/took[0].Seconds())
		return nil
	}
	start := time.Now()
	lastSync := start
	imports, imported := 0.0, 0
	n := 0
	for ; time.Since(start) < budget; n++ {
		ss := p.w.sessions.at(n)
		req := p.w.pool[ss.pool]
		var hits []hit
		err := timed("search", func(t *tracer) error {
			var err error
			hits, err = p.searchOp(t, req)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("traced search: %w", err)
		}
		if ss.view && len(hits) > 0 {
			schema := p.sys.Repo.Get(hits[min(ss.viewRank, len(hits)-1)].ID)
			if schema == nil {
				return nil, fmt.Errorf("traced view: schema vanished")
			}
			if err := timed("view", func(t *tracer) error { return p.viewOp(t, schema) }); err != nil {
				return nil, fmt.Errorf("traced view: %w", err)
			}
		}
		for imports += importsPerSession; imports >= 1; imports-- {
			if err := p.importOp(tr, p.w.importAt(imported)); err != nil {
				return nil, fmt.Errorf("traced import: %w", err)
			}
			imported++
		}
		if time.Since(lastSync) >= time.Second {
			if err := p.syncOp(tr); err != nil {
				return nil, err
			}
			lastSync = time.Now()
		}
	}
	if err := p.syncOp(tr); err != nil {
		return nil, err
	}
	if err := p.saveOp(tr); err != nil {
		return nil, err
	}
	return &tracedResult{
		layers:      selfTimes(tr.spans),
		overheadPct: 100 * (median(ratios) - 1),
		ops:         calls["search"] + calls["view"] + imported,
		spans:       tr,
	}, nil
}
