package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// hit is one served search result as the checks compare it.
type hit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// api issues the benchmark's requests against one server.
type api struct {
	c    *http.Client
	base string
}

// do sends a request and returns the body of a 2xx reply; any other
// status is an error.
func (a *api) do(method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %.200s", method, path, resp.Status, data)
	}
	return data, nil
}

// search runs one search and returns its hits and the server's took_ms.
func (a *api) search(req searchReq) ([]hit, float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := a.do(http.MethodPost, "/api/v1/search", "application/json", body)
	if err != nil {
		return nil, 0, err
	}
	var env struct {
		Data struct {
			TookMS  float64 `json:"took_ms"`
			Results []hit   `json:"results"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, 0, fmt.Errorf("search reply: %w", err)
	}
	return env.Data.Results, env.Data.TookMS, nil
}

// view is a click-through on a search hit: record the selection with the
// query and rank, then fetch the schema's SVG diagram and GraphML, checking
// that each is what it claims to be.
func (a *api) view(id, q string, rank int) error {
	form := url.Values{"q": {q}, "rank": {strconv.Itoa(rank)}}
	path := "/api/v1/schema/" + url.PathEscape(id)
	if _, err := a.do(http.MethodPost, path+"/select", "application/x-www-form-urlencoded", []byte(form.Encode())); err != nil {
		return err
	}
	svg, err := a.do(http.MethodGet, "/api/schema/"+url.PathEscape(id)+"/svg", "", nil)
	if err != nil {
		return err
	}
	if !bytes.Contains(svg, []byte("<svg")) || !bytes.Contains(svg, []byte("</svg>")) {
		return fmt.Errorf("view %s: reply is not an SVG document", id)
	}
	gml, err := a.do(http.MethodGet, "/api/schema/"+url.PathEscape(id), "", nil)
	if err != nil {
		return err
	}
	if !bytes.Contains(gml, []byte("<graphml")) || !bytes.Contains(gml, []byte("</graphml>")) {
		return fmt.Errorf("view %s: reply is not a GraphML document", id)
	}
	return nil
}

// importSchema imports one schema and returns the acknowledged ID.
func (a *api) importSchema(imp importReq) (string, error) {
	body, err := json.Marshal(imp)
	if err != nil {
		return "", err
	}
	data, err := a.do(http.MethodPost, "/api/v1/schemas", "application/json", body)
	if err != nil {
		return "", err
	}
	var env struct {
		Data struct {
			ID   string `json:"id"`
			Name string `json:"name"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return "", fmt.Errorf("import reply: %w", err)
	}
	if env.Data.ID == "" || env.Data.Name != imp.Name {
		return "", fmt.Errorf("import %q: acknowledged as %q named %q", imp.Name, env.Data.ID, env.Data.Name)
	}
	return env.Data.ID, nil
}

// checkImported fetches an acknowledged import and checks it is the schema
// that was sent.
func (a *api) checkImported(id, name string) error {
	data, err := a.do(http.MethodGet, "/api/v1/schema/"+url.PathEscape(id), "", nil)
	if err != nil {
		return err
	}
	var env struct {
		Data struct {
			ID   string `json:"id"`
			Name string `json:"name"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("schema reply: %w", err)
	}
	if env.Data.ID != id || env.Data.Name != name {
		return fmt.Errorf("schema %s reads back as %q named %q, want %q", id, env.Data.ID, env.Data.Name, name)
	}
	return nil
}

// waitIndexed polls the server's stats until its index holds every schema
// of the repository.
func (a *api) waitIndexed(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		data, err := a.do(http.MethodGet, "/api/v1/stats", "", nil)
		if err != nil {
			return err
		}
		var env struct {
			Data struct {
				Schemas int `json:"schemas"`
				Indexed int `json:"indexed"`
			} `json:"data"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("stats reply: %w", err)
		}
		if env.Data.Indexed == env.Data.Schemas {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("index holds %d of %d schemas after %v", env.Data.Indexed, env.Data.Schemas, limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sameHits reports whether served hits equal the reference exactly, IDs
// and scores in order.
func sameHits(got, want []hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("hit %d is %s %v, reference %s %v", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}
