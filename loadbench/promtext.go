package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// metricSet is one scrape of a ccserved /metrics endpoint: sample name
// (including any label set, verbatim) to value.
type metricSet map[string]float64

// parseMetrics reads the Prometheus text exposition format: comment and
// blank lines are skipped, every other line is "name[{labels}] value
// [timestamp]". A malformed line is an error — a benchmark must not
// silently read a counter as zero.
func parseMetrics(r io.Reader) (metricSet, error) {
	out := metricSet{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, rest := text, ""
		if i := strings.IndexByte(text, '{'); i >= 0 {
			j := strings.LastIndexByte(text, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unbalanced label set: %q", line, text)
			}
			name, rest = text[:j+1], text[j+1:]
		} else if i := strings.IndexAny(text, " \t"); i >= 0 {
			name, rest = text[:i], text[i:]
		} else {
			return nil, fmt.Errorf("metrics line %d: no value: %q", line, text)
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want value [timestamp]: %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate sample %q", line, name)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// delta is the change of every named sample between two scrapes of the
// same process. A name missing from either scrape reads as zero there
// (an instrument registered mid-run starts from nothing).
func delta(before, after metricSet) metricSet {
	out := metricSet{}
	for name, v := range after {
		out[name] = v - before[name]
	}
	for name, v := range before {
		if _, ok := after[name]; !ok {
			out[name] = -v
		}
	}
	return out
}

// sum adds the named samples.
func (m metricSet) sum(names ...string) float64 {
	var s float64
	for _, n := range names {
		s += m[n]
	}
	return s
}
