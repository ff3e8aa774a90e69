package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"schemr"
	"schemr/internal/eval"
)

// setupBoots is how many times a run boots the server to measure set-up
// time; the last boot serves the measured phases. The set-up time a run
// reports is the median over the boots of the server's CPU time from
// process start to its first successful search. Its wall time is printed
// too, but it follows the host's load by more than the CPU time does.
const setupBoots = 5

// runConfig is one benchmark run as the command line asked for it.
type runConfig struct {
	spec      spec
	seed      int64
	seconds   int
	trace     bool
	conns     int
	serverBin string
	work      string
	root      string
}

// rounds is how many times a run alternates its open-loop and closed-loop
// phases, so that a slow period of the host falls on both alike.
const rounds = 5

// opLog collects what the load phases observed. Its methods are safe for
// concurrent use.
type opLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	// Latencies in ms: open-loop searches timed from their due time,
	// closed-loop searches, views and imports timed from sending.
	search, closed, view, imports []float64
	selfMS                        []float64 // client-observed search latency minus took_ms
	lagMS                         []float64
	acked                         []ackedImport
}

type ackedImport struct{ id, name string }

// op records one attempted operation and its error, if any, and reports
// whether it succeeded.
func (l *opLog) op(err error) bool {
	l.mu.Lock()
	l.attempted++
	l.mu.Unlock()
	if err != nil {
		l.fail(err)
		return false
	}
	return true
}

// fail counts an operation already recorded as attempted as failed, as
// when a later check of its output fails.
func (l *opLog) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, err.Error())
	}
}

func (l *opLog) add(dst *[]float64, v float64) {
	l.mu.Lock()
	*dst = append(*dst, v)
	l.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runResult is everything one run measured.
type runResult struct {
	log *opLog
	// Server CPU seconds and wall seconds from each boot's process start
	// to its first successful search.
	setupCPU, setupWall []float64
	// Durations by round of the open-loop and closed-loop phases, and
	// of the imports.
	openSecs, closeSecs []float64
	impSecs             float64
	// Server CPU seconds used by the search phases, and by the imports
	// until the indexer had absorbed them.
	searchCPU, impCPU float64
	rssMB             float64
	mrr               float64
	ndcg              float64
	before            promSample
	after             promSample
	traced            *tracedResult
	corpus            manifest
	srcHash           string
}

// runBenchmark performs one run: set-up boots, a checked warm-up pass over
// the pool, the measured phases, the read-back of every acknowledged import
// and, when tracing, the traced in-process replay.
func runBenchmark(cfg runConfig) (*runResult, error) {
	sp := cfg.spec
	cacheDir := filepath.Join(cfg.work, "cache")
	corpusDir, man, err := ensureCorpus(cacheDir, corpusSize)
	if err != nil {
		return nil, err
	}
	srcHash, err := sourceHash(cfg.root)
	if err != nil {
		return nil, err
	}
	pool, refs, err := loadPool(sp, cacheDir, corpusDir, man, srcHash)
	if err != nil {
		return nil, err
	}
	w := newWorkload(sp, cfg.seed, pool, refs)
	runDir := filepath.Join(cfg.work, "run")
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &runResult{log: &opLog{}, corpus: man, srcHash: srcHash}
	client := newClient(cfg.conns)
	defer client.CloseIdleConnections()
	var srv *serverProc
	for boot := 0; boot < setupBoots; boot++ {
		if srv != nil {
			srv.stop()
		}
		dataDir := filepath.Join(runDir, fmt.Sprintf("data%d", boot))
		if err := cloneDir(corpusDir, dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		srv, err = startServer(cfg.serverBin, dataDir, filepath.Join(cfg.work, "server.log"))
		if err != nil {
			return nil, err
		}
		d, err := srv.waitReady(client, w.pool[0], start, 60*time.Second)
		if err != nil {
			srv.stop()
			return nil, err
		}
		cpu, err := srv.cpuSeconds()
		if err != nil {
			srv.stop()
			return nil, err
		}
		res.setupCPU = append(res.setupCPU, cpu)
		res.setupWall = append(res.setupWall, d.Seconds())
	}
	defer srv.stop()
	a := &api{c: client, base: srv.base}

	logf("%s: set-up %v s CPU, %v s wall; warming up over %d searches", sp.name, res.setupCPU, res.setupWall, len(w.pool))
	warmup(a, w, cfg.conns, res)
	ctx := context.Background()
	if res.before, err = srv.scrape(ctx, client); err != nil {
		return nil, err
	}
	logf("measuring for %ds", cfg.seconds)
	if err := measure(a, srv, w, cfg, res); err != nil {
		return nil, err
	}
	if res.after, err = srv.scrape(ctx, client); err != nil {
		return nil, err
	}
	if res.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	logf("reading back %d acknowledged imports", len(res.log.acked))
	readBack(a, cfg.conns, res.log)
	srv.stop()

	if cfg.trace {
		if res.traced, err = traceRun(cfg, w, corpusDir, filepath.Join(runDir, "traced")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceRun replays the run's request stream in process on a fresh copy of
// the corpus, for a quarter of the measured time, and writes its spans to
// spans.jsonl in the work directory.
func traceRun(cfg runConfig, w *workload, corpusDir, dir string) (*tracedResult, error) {
	if err := cloneDir(corpusDir, dir); err != nil {
		return nil, err
	}
	sys, err := schemr.Open(dir)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	p := &inproc{sys: sys, dir: dir, w: w}
	tr, err := p.runTraced(secs(float64(cfg.seconds) / 4))
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(cfg.work, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	if err := tr.spans.write(f); err != nil {
		f.Close()
		return nil, err
	}
	return tr, f.Close()
}

// warmup serves every pool query once, untimed: it fills the server's
// caches, checks each served top-10 against the reference and scores the
// ranking against the generator's ground truth.
func warmup(a *api, w *workload, conns int, res *runResult) {
	rr := make([]float64, len(w.pool))
	nd := make([]float64, len(w.pool))
	parallel(len(w.pool), conns, func(i int) {
		hits, _, err := a.search(w.pool[i])
		if err == nil {
			err = sameHits(hits, w.refs[i])
		}
		if !res.log.op(err) {
			return
		}
		ranking := make(eval.Ranking, len(hits))
		for k, h := range hits {
			ranking[k] = h.ID
		}
		rr[i] = eval.ReciprocalRank(ranking, w.pool[i].relevant)
		nd[i] = eval.NDCGAtK(ranking, w.pool[i].relevant, searchLimit)
	})
	for i := range w.pool {
		res.mrr += rr[i] / float64(len(w.pool))
		res.ndcg += nd[i] / float64(len(w.pool))
	}
}

// doSession runs one session: the search, checked against the reference
// when refs is non-nil, then the view if the session has one. due is when
// the session was due; searches are timed from it in the open loop.
func doSession(a *api, w *workload, refs [][]hit, ss session, due time.Time, open bool, l *opLog) {
	req := w.pool[ss.pool]
	sent := time.Now()
	hits, took, err := a.search(req)
	done := time.Now()
	if err == nil && refs != nil {
		err = sameHits(hits, refs[ss.pool])
	}
	if !l.op(err) {
		return
	}
	l.add(&l.selfMS, ms(done.Sub(sent))-took)
	if open {
		l.add(&l.search, ms(done.Sub(due)))
	} else {
		l.add(&l.closed, ms(done.Sub(sent)))
	}
	if !ss.view || len(hits) == 0 {
		return
	}
	rank := min(ss.viewRank, len(hits)-1)
	start := time.Now()
	err = a.view(hits[rank].ID, req.Keywords, rank)
	if l.op(err) {
		l.add(&l.view, ms(time.Since(start)))
	}
}

// doImport runs the i-th import of the stream.
func doImport(a *api, w *workload, i int, l *opLog) {
	imp := w.importAt(i)
	start := time.Now()
	id, err := a.importSchema(imp)
	if l.op(err) {
		l.mu.Lock()
		l.imports = append(l.imports, ms(time.Since(start)))
		l.acked = append(l.acked, ackedImport{id, imp.Name})
		l.mu.Unlock()
	}
}

// measure is a run's measured time: rounds of open-loop sessions at the
// workload's rate and closed-loop sessions on every connection, then the
// imports, closed loop on every connection. The imports come last, so that
// every search sees the corpus its reference results were computed on, and
// their number is fixed, so that every run grows the corpus and the
// server's memory by the same amount.
func measure(a *api, srv *serverProc, w *workload, cfg runConfig, res *runResult) error {
	roundSecs := float64(cfg.seconds) / rounds
	c0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		res.openSecs = append(res.openSecs, openPhase(a, w, roundSecs*openShare, cfg.conns, w.refs, res.log))
		res.closeSecs = append(res.closeSecs, closedPhase(a, w, time.Now().Add(secs(roundSecs*(1-openShare))), cfg.conns, w.refs, res.log))
	}
	c1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	res.searchCPU = c1 - c0
	start := time.Now()
	parallel(importCount, cfg.conns, func(i int) { doImport(a, w, i, res.log) })
	res.impSecs = time.Since(start).Seconds()
	// The imports' CPU cost includes indexing them, which the server's
	// indexer does on its own schedule: wait for it to catch up.
	if err := a.waitIndexed(30 * time.Second); err != nil {
		return err
	}
	c2, err := srv.cpuSeconds()
	res.impCPU = c2 - c1
	return err
}

// openPhase runs the next rate×seconds sessions of the stream on a fixed
// schedule at the workload's rate and returns how long they took.
func openPhase(a *api, w *workload, seconds float64, conns int, refs [][]hit, l *opLog) float64 {
	stream := make([]session, int(w.spec.rate*seconds))
	for i := range stream {
		stream[i] = w.sessions.take()
	}
	start := time.Now()
	lags := openLoop(len(stream), w.spec.rate, conns, start, func(i int, due time.Time) {
		doSession(a, w, refs, stream[i], due, true, l)
	})
	for _, d := range lags {
		l.add(&l.lagMS, ms(d))
	}
	return time.Since(start).Seconds()
}

// closedPhase runs sessions closed loop on conns connections until the
// deadline and returns how long it ran.
func closedPhase(a *api, w *workload, deadline time.Time, conns int, refs [][]hit, l *opLog) float64 {
	start := time.Now()
	closedLoop(conns, deadline, func(int) {
		doSession(a, w, refs, w.sessions.take(), time.Now(), false, l)
	})
	return time.Since(start).Seconds()
}

// readBack checks that every acknowledged import is readable. An import
// that is not counts as failed.
func readBack(a *api, conns int, l *opLog) {
	parallel(len(l.acked), conns, func(i int) {
		imp := l.acked[i]
		if err := a.checkImported(imp.id, imp.name); err != nil {
			l.fail(fmt.Errorf("acknowledged import unreadable: %w", err))
		}
	})
}

// parallel calls do(i) for every i in [0, n) from workers goroutines, each
// taking the next i as soon as its previous call returns, and waits.
func parallel(n, workers int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
