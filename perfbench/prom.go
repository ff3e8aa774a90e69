package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: each series
// name (histograms as name_sum, name_count, ...) mapped to its value summed
// over every label set.
type promSample map[string]float64

// parseProm parses the Prometheus 0.0.4 text format the server exports.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, rest := text, ""
		if i := strings.IndexAny(text, "{ "); i >= 0 {
			name, rest = text[:i], text[i:]
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.LastIndexByte(rest, '}')
			if end < 0 {
				return nil, fmt.Errorf("metrics line %d: unterminated labels", line)
			}
			rest = rest[end+1:]
		}
		fields := strings.Fields(rest)
		if name == "" || len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		if strings.HasSuffix(name, "_bucket") {
			continue // buckets summed over "le" would mean nothing
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns how much each series grew from before to after.
func (after promSample) delta(before promSample) promSample {
	out := promSample{}
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histMeanMS returns the mean observation of a seconds histogram in ms.
func (s promSample) histMeanMS(name string) float64 {
	return 1000 * ratio(s[name+"_sum"], s[name+"_count"])
}
