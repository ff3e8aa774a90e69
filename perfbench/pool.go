package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"schemr"
	"schemr/internal/query"
)

// cachedPool is a workload's pool with its ground truth and reference
// results, as stored between runs.
type cachedPool struct {
	Reqs     []searchReq `json:"reqs"`
	Relevant [][]string  `json:"relevant"`
	Refs     [][]hit     `json:"refs"`
}

// loadPool returns a workload's pool and the reference top-10 of each
// search: a serial in-process search on a copy of the snapshot the server
// boots from. The result depends only on the pool's parameters, the
// corpus and the program, so it is cached under a key of all three; a
// change to any of them computes it afresh.
func loadPool(sp spec, cacheDir, corpusDir string, man manifest, srcHash string) ([]searchReq, [][]hit, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%d\x00%t\x00%s\x00%s", sp.name, sp.pool, poolSeed, sp.explore, man.SHA256, srcHash)
	path := filepath.Join(cacheDir, "pool-"+sp.name+"-"+hex.EncodeToString(h.Sum(nil))[:16]+".json")
	var cp cachedPool
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &cp) == nil &&
		len(cp.Reqs) == sp.pool && len(cp.Relevant) == sp.pool && len(cp.Refs) == sp.pool {
		pool, refs := cp.unpack()
		return pool, refs, nil
	}
	logf("%s: computing the pool and its reference results", sp.name)
	tmp := filepath.Join(cacheDir, "pool-tmp")
	if err := cloneDir(corpusDir, tmp); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	// Return the reference system's memory before the server boots, so
	// the first run of a checkout measures like the others.
	defer debug.FreeOSMemory()
	sys, err := schemr.Open(tmp)
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	if sys.Repo.Len() != man.Schemas {
		return nil, nil, fmt.Errorf("corpus holds %d schemas, manifest says %d", sys.Repo.Len(), man.Schemas)
	}
	pool, err := generatePool(sp, sys.Repo)
	if err != nil {
		return nil, nil, err
	}
	cp = cachedPool{}
	for i, req := range pool {
		q, err := query.Parse(query.Input{Keywords: req.Keywords, DDL: req.DDL, XSD: req.XSD})
		if err != nil {
			return nil, nil, fmt.Errorf("pool search %d: %w", i, err)
		}
		res, err := sys.Search(q, req.Limit)
		if err != nil {
			return nil, nil, fmt.Errorf("reference search %d: %w", i, err)
		}
		ref := make([]hit, 0, len(res))
		for _, r := range res {
			ref = append(ref, hit{ID: r.ID, Score: r.Score})
		}
		var rel []string
		for id := range req.relevant {
			rel = append(rel, id)
		}
		sort.Strings(rel)
		cp.Reqs = append(cp.Reqs, req)
		cp.Relevant = append(cp.Relevant, rel)
		cp.Refs = append(cp.Refs, ref)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return nil, nil, err
	}
	return pool, cp.Refs, nil
}

func (cp *cachedPool) unpack() ([]searchReq, [][]hit) {
	pool := make([]searchReq, len(cp.Reqs))
	for i, req := range cp.Reqs {
		req.relevant = map[string]bool{}
		for _, id := range cp.Relevant[i] {
			req.relevant[id] = true
		}
		pool[i] = req
	}
	return pool, cp.Refs
}
