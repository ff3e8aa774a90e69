package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"schemr"
	"schemr/internal/webtables"
)

// corpusSeed fixes the corpus content. The workload seed varies the request
// streams; the corpus stays the same across seeds so that one cached data
// directory per size serves every run.
const corpusSeed = 1

// manifest records what a cached data directory holds, so that a stale or
// damaged cache is rebuilt instead of benchmarked.
type manifest struct {
	Seed    int64  `json:"seed"`
	Size    int    `json:"size"`
	Schemas int    `json:"schemas"`
	SHA256  string `json:"sha256"`
}

const manifestFile = "manifest.json"

// ensureCorpus returns a verified cached data directory holding a corpus of
// size schemas, building it under cacheRoot when it is missing or stale.
func ensureCorpus(cacheRoot string, size int) (dir string, m manifest, err error) {
	dir = filepath.Join(cacheRoot, fmt.Sprintf("corpus-s%d-n%d", corpusSeed, size))
	if m, err = verifyCorpus(dir, size); err == nil {
		return dir, m, nil
	}
	logf("corpus %s: %v; building", dir, err)
	if err := os.RemoveAll(dir); err != nil {
		return "", m, err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", m, err
	}
	if err := buildCorpus(tmp, size); err != nil {
		return "", m, fmt.Errorf("building corpus: %w", err)
	}
	sum, err := hashDir(tmp)
	if err != nil {
		return "", m, err
	}
	m = manifest{Seed: corpusSeed, Size: size, Schemas: size, SHA256: sum}
	data, err := json.Marshal(m)
	if err != nil {
		return "", m, err
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestFile), data, 0o644); err != nil {
		return "", m, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", m, err
	}
	m, err = verifyCorpus(dir, size)
	return dir, m, err
}

// verifyCorpus checks a cached data directory against its manifest: the
// seed, the requested size and the content hash must all match.
func verifyCorpus(dir string, size int) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("manifest: %w", err)
	}
	if m.Seed != corpusSeed || m.Size != size || m.Schemas != size {
		return m, fmt.Errorf("manifest is for seed %d size %d (%d schemas), want seed %d size %d",
			m.Seed, m.Size, m.Schemas, corpusSeed, size)
	}
	sum, err := hashDir(dir)
	if err != nil {
		return m, err
	}
	if sum != m.SHA256 {
		return m, fmt.Errorf("content hash %s does not match manifest %s", sum, m.SHA256)
	}
	return m, nil
}

// buildCorpus writes a persisted system of exactly size schemas to dir: a
// mix of multi-entity relational and hierarchical reference schemas plus
// filtered web tables, as the repository's own benchmarks build it.
func buildCorpus(dir string, size int) error {
	sys := schemr.New()
	for _, s := range webtables.GenerateRelational(corpusSeed, size/10+5) {
		if _, err := sys.Add(s); err != nil {
			return err
		}
	}
	for _, s := range webtables.GenerateHierarchical(corpusSeed+1, size/20+3) {
		if _, err := sys.Add(s); err != nil {
			return err
		}
	}
	for seed := int64(corpusSeed + 2); sys.Repo.Len() < size; seed++ {
		flat, _ := webtables.Filter(webtables.NewGenerator(webtables.Options{
			Seed: seed, NumTables: 40 * (size - sys.Repo.Len() + 100),
		}).All())
		for _, s := range flat {
			if sys.Repo.Len() >= size {
				break
			}
			if _, _, err := sys.Repo.PutDedup(s); err != nil {
				return err
			}
		}
	}
	if err := sys.Refresh(); err != nil {
		return err
	}
	if err := sys.Save(dir); err != nil {
		return err
	}
	return sys.Close()
}

// hashDir returns the SHA-256 over the names and contents of the regular
// files in dir, the manifest excluded.
func hashDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() && e.Name() != manifestFile {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00", name)
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cloneDir gives dst the regular files of src, the manifest excluded, as a
// fresh directory. Files are hard links where the file system allows, else
// fsynced copies. Sharing is safe because schemr replaces its snapshot and
// index files by writing a new file and renaming it over the old one, and
// keeps its write-ahead log in a file the corpus does not have; a write in
// place would change the corpus's content hash and force a rebuild rather
// than go unnoticed. Links also spare each run from writing, and later
// discarding, a corpus-sized copy while the disk is being measured.
func cloneDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == manifestFile {
			continue
		}
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if os.Link(from, to) == nil {
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
